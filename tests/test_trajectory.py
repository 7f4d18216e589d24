import importlib.util
import math
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg import block_diag
from scipy.linalg.lapack import dpbtrf, dpbtrs

from uavirs.channel import (
    LinkRuleSet,
    LinkStateRule,
    LinkState,
    Node,
    NodeRole,
    PathLossModel,
    Position3D,
    RadioParams,
    leg_amplitude,
    link_rate,
)
from uavirs import trajectory
from uavirs.irs import IrsSurface, SurfaceKind
from uavirs.scenario import (
    _MAX_STEP_LIMIT,
    SPEED_SLACK,
    Scenario,
    TrajectoryExperiment,
    load_scenario,
    loads_scenario,
    scenario_path,
)
from uavirs.trajectory import (
    Schedule,
    Trajectory,
    TrajectoryConstraints,
    _project_speed,
    _RateEvaluator,
    improve_trajectory,
    linprog,
    min_time_mission,
    optimal_schedule,
    per_slot_rates,
    straight_line_trajectory,
)

from oracles import (
    dykstra_speed_projection,
    linprog_max_min_schedule,
    sequential_line_search,
    speed_projection_kkt_violation,
)

REAL_HIGHS = trajectory.highs._Highs
RADIO = RadioParams(tx_power=0.1, noise_power=1e-11, ref_path_gain_db=-30.0)


def make_scenario(
    sensors,
    surfaces=(),
    start=(0.0, 0.0, 30.0),
    end=(100.0, 0.0, 30.0),
    v_max=50.0,
    slot=0.1,
    rate_target=0.5,
    max_time=20.0,
    rules=(),
):
    nodes = [Node("uav", NodeRole.UAV, Position3D(*start))]
    nodes += [Node(nid, NodeRole.SENSOR, Position3D(*pos)) for nid, pos in sensors]
    constraints = TrajectoryConstraints(
        Position3D(*start), Position3D(*end), start[2], v_max, slot
    )
    return Scenario(
        name="test",
        nodes=tuple(nodes),
        surfaces=tuple(surfaces),
        radio=RADIO,
        path_loss_classes={
            "uav_sn": PathLossModel(2.6),
            "uav_irs": PathLossModel(2.4),
            "irs_sn": PathLossModel(2.2),
        },
        link_rules=LinkRuleSet(rules),
        experiment=TrajectoryExperiment(constraints, rate_target, max_time),
    )


class TestPerSlotRates:
    def test_node_directly_below_waypoint(self):
        # log2(1 + 1e7 * 30**-2.6), frozen from a 40-digit mpmath evaluation
        scn = make_scenario([("sn1", (50.0, 0.0, 0.0))])
        traj = straight_line_trajectory(scn.experiment.constraints, 20)
        R = per_slot_rates(scn, traj)
        assert R.shape == (1, 20)
        assert R[0, 10] == pytest.approx(10.496580055706206, rel=1e-12)

    def test_zero_element_surface_matches_no_surface(self):
        surf = IrsSurface(
            id="irs",
            kind=SurfaceKind.TERRESTRIAL,
            position=Position3D(50.0, 20.0, 10.0),
            num_elements=0,
            facing_normal=(0.0, -1.0, 0.0),
            covered_node_ids=frozenset({"sn1"}),
        )
        with_surface = make_scenario([("sn1", (50.0, 5.0, 0.0))], surfaces=(surf,))
        without = make_scenario([("sn1", (50.0, 5.0, 0.0))])
        traj = straight_line_trajectory(with_surface.experiment.constraints, 20)
        np.testing.assert_array_equal(
            per_slot_rates(with_surface, traj), per_slot_rates(without, traj)
        )

    def test_rates_nonnegative(self):
        scn = make_scenario([("sn1", (10.0, -40.0, 0.0)), ("sn2", (90.0, 35.0, 0.0))])
        traj = straight_line_trajectory(scn.experiment.constraints, 25)
        assert np.all(per_slot_rates(scn, traj) >= 0.0)

    def test_surface_raises_covered_node_rates(self):
        surf = IrsSurface(
            id="irs",
            kind=SurfaceKind.TERRESTRIAL,
            position=Position3D(50.0, 30.0, 10.0),
            num_elements=300,
            facing_normal=(0.0, -1.0, 0.0),
            covered_node_ids=frozenset({"sn1"}),
        )
        boosted = make_scenario([("sn1", (50.0, 25.0, 0.0))], surfaces=(surf,))
        bare = make_scenario([("sn1", (50.0, 25.0, 0.0))])
        traj = straight_line_trajectory(boosted.experiment.constraints, 20)
        assert np.all(per_slot_rates(boosted, traj) > per_slot_rates(bare, traj))

    def test_colocated_node_clamps_instead_of_raising(self):
        scn = make_scenario([("sn1", (50.0, 0.0, 30.0))], start=(0.0, 0.0, 30.0))
        traj = straight_line_trajectory(scn.experiment.constraints, 20)
        R = per_slot_rates(scn, traj)  # waypoint 10 coincides with the node
        assert np.isfinite(R).all()

    def test_blocked_direct_link_zeroes_rates(self):
        scn = make_scenario(
            [("sn1", (50.0, 0.0, 0.0))],
            rules=[LinkStateRule(("uav", "sn1"), math.inf, LinkState.BLOCKED)],
        )
        traj = straight_line_trajectory(scn.experiment.constraints, 20)
        np.testing.assert_array_equal(per_slot_rates(scn, traj), np.zeros((1, 20)))

    def test_speed_infeasible_trajectory_rejected(self):
        scn = make_scenario([("sn1", (50.0, 0.0, 0.0))])
        bad = Trajectory(np.array([[0.0, 0.0, 30.0], [100.0, 0.0, 30.0]]), 0.1)
        with pytest.raises(ValueError):
            per_slot_rates(scn, bad)

    def test_trajectory_off_the_fixed_altitude_rejected(self):
        # link states are resolved at the fixed altitude, so a path flown
        # elsewhere would mix two geometries
        scn = load_scenario(scenario_path("fig4"))
        traj = straight_line_trajectory(scn.experiment.constraints, 30)
        low = traj.waypoints.copy()
        low[:, 2] = 0.0
        with pytest.raises(ValueError, match="fixed altitude"):
            per_slot_rates(scn, Trajectory(low, traj.slot_duration))
        low[:, 2] = 30.0 + 1e-8
        with pytest.raises(ValueError, match="fixed altitude"):
            per_slot_rates(scn, Trajectory(low, traj.slot_duration))

    def test_matches_the_scalar_channel_kernel(self):
        # sn1 hears the UAV directly; sn4 also through the 300-element surface
        scn = load_scenario(scenario_path("fig4"))
        traj = straight_line_trajectory(scn.experiment.constraints, 30)
        R = per_slot_rates(scn, traj)
        radio, surface = scn.radio, scn.surfaces[0]
        for k, nid in ((0, "sn1"), (3, "sn4")):
            node = scn.node(nid).position
            down = leg_amplitude(
                surface.position.distance_to(node), scn.path_loss("irs_sn"), radio
            )
            for t, wp in enumerate(traj.waypoints[:-1]):
                uav = Position3D(*wp)
                amp = leg_amplitude(uav.distance_to(node), scn.path_loss("uav_sn"), radio)
                if nid == "sn4":
                    up = leg_amplitude(
                        uav.distance_to(surface.position), scn.path_loss("uav_irs"), radio
                    )
                    amp += surface.num_elements * down * up
                assert R[k, t] == pytest.approx(link_rate(amp, radio), rel=1e-14, abs=0.0)


ALTITUDE = 30.0


@st.composite
def speed_chains(draw, min_slack, max_slack=1.0, min_slots=2, max_slots=15):
    """A perturbed path between two points and its speed budget.

    slack is the share of the budget M * max_step that the straight flight
    from start to end leaves unused.
    """
    m = draw(st.integers(min_slots, max_slots))
    max_step = draw(st.floats(0.5, 20.0))
    slack = draw(st.floats(min_slack, max_slack))
    angle = draw(st.floats(0.0, 2.0 * math.pi))
    start = np.array([draw(st.floats(-200.0, 200.0)), draw(st.floats(-200.0, 200.0))])
    end = start + (1.0 - slack) * m * max_step * np.array([math.cos(angle), math.sin(angle)])
    spread = draw(st.floats(0.0, 3.0)) * max_step
    offsets = np.array(
        draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * (m - 1), max_size=2 * (m - 1)))
    ).reshape(m - 1, 2)
    wp = np.full((m + 1, 3), ALTITUDE)
    wp[:, :2] = start + np.linspace(0.0, 1.0, m + 1)[:, None] * (end - start)
    wp[0, :2], wp[-1, :2] = start, end
    wp[1:-1, :2] += spread * offsets
    return wp, max_step


@st.composite
def speed_stacks(draw):
    """1 to 6 paths that share M and the endpoints, each perturbed by its own spread.

    A spread of 0 leaves the straight line, which is feasible unless the
    budget has no slack; small spreads may leave a path feasible too.
    """
    m = draw(st.integers(2, 40))
    max_step = draw(st.floats(0.5, 20.0))
    slack = draw(st.sampled_from([0.0, 0.001, 0.01]) | st.floats(0.0, 0.95))
    angle = draw(st.floats(0.0, 2.0 * math.pi))
    start = np.array([draw(st.floats(-200.0, 200.0)), draw(st.floats(-200.0, 200.0))])
    end = start + (1.0 - slack) * m * max_step * np.array([math.cos(angle), math.sin(angle)])
    line = np.full((m + 1, 3), ALTITUDE)
    line[:, :2] = start + np.linspace(0.0, 1.0, m + 1)[:, None] * (end - start)
    line[0, :2], line[-1, :2] = start, end
    spreads = draw(
        st.lists(st.sampled_from([0.0, 0.01]) | st.floats(0.0, 3.0), min_size=1, max_size=6)
    )
    stack = np.repeat(line[None], len(spreads), axis=0)
    for path, spread in zip(stack, spreads):
        offsets = draw(
            st.lists(st.floats(-1.0, 1.0), min_size=2 * (m - 1), max_size=2 * (m - 1))
        )
        path[1:-1, :2] += spread * max_step * np.array(offsets).reshape(m - 1, 2)
    return stack, max_step


def upper_factor_as_lower(low, lower=0, overwrite_ab=0):
    """dpbtrf on a lower-layout band, computed by the upper-layout factorization."""
    assert lower == 1
    n = low.shape[1]
    upper = np.zeros((4, n))
    for d in range(min(n, 4)):
        upper[3 - d, d:] = low[d, : n - d]
    chol, info = dpbtrf(upper)
    fac = np.zeros_like(low)
    for d in range(min(n, 4)):
        fac[d, : n - d] = chol[3 - d, d:]
    return fac, info


def newton_matrix(rng, m):
    """A dense Newton matrix of the speed projection for one chain of m slots.

    H = I + sum_t D_t^T (lam_t I + (lam_t / u_t) s_t s_t^T) D_t over segments
    s_t inside the unit ball, with multipliers and slacks over many decades.
    """
    seg = rng.uniform(-1.0, 1.0, (m, 2)) * rng.uniform(0.0, 0.7, (m, 1))
    slack = 0.5 * (1.0 - (seg * seg).sum(axis=1)) * 10.0 ** rng.uniform(-8.0, 0.0, m)
    lam = 10.0 ** rng.uniform(-8.0, 4.0, m)
    h = np.eye(2 * (m + 1))
    for t in range(m):
        block = lam[t] * np.eye(2) + (lam[t] / slack[t]) * np.outer(seg[t], seg[t])
        d = np.zeros((2, 2 * (m + 1)))
        d[:, 2 * t : 2 * t + 2], d[:, 2 * t + 2 : 2 * t + 4] = -np.eye(2), np.eye(2)
        h += d.T @ block @ d
    return h[2:-2, 2:-2]  # the endpoints are fixed


def pulled_back_start(path, line, max_step):
    """line + _IPM_REACH * theta * (path - line), theta the largest value in [0, 1]
    that keeps every segment within max_step, solved segment by segment."""
    shift = path[:, :2] - line[:, :2]
    theta = 1.0
    for c, e in zip(np.diff(line[:, :2], axis=0), np.diff(shift, axis=0)):
        a, b, room = e @ e, c @ e, max_step * max_step - c @ c
        if a > 0.0:  # ||c + theta e|| = max_step at the positive root
            root = math.sqrt(b * b + a * room)
            theta = min(theta, room / (b + root) if b >= 0.0 else (root - b) / a)
    start = line.copy()
    start[:, :2] += trajectory._IPM_REACH * theta * shift
    return start


def start_of(path, max_step):
    """The interior-point start of one infeasible path: a first factorization
    that fails stops the chain where it stands."""
    with mock.patch("uavirs.trajectory.dpbtrf", return_value=(None, 1)):
        return _project_speed(path, max_step)


def boundary_path(rng, m, max_step):
    """A bent path from a random start whose every segment is max_step long."""
    heading = np.cumsum(rng.uniform(-0.6, 0.6, m))
    steps = max_step * np.stack([np.cos(heading), np.sin(heading)], axis=1)
    wp = np.full((m + 1, 3), ALTITUDE)
    wp[0, :2] = rng.uniform(-100.0, 100.0, 2)
    wp[1:, :2] = wp[0, :2] + np.cumsum(steps, axis=0)
    return wp


def longest_segment(wp):
    seg = np.diff(wp[:, :2], axis=0)
    return float(np.hypot(seg[:, 0], seg[:, 1]).max())


class TestProjectSpeed:
    @settings(max_examples=60)
    @given(stack=speed_stacks())
    def test_stack_matches_one_path_calls(self, stack):
        paths, max_step = stack
        out = _project_speed(paths, max_step)
        assert out.shape == paths.shape
        for path, got in zip(paths, out):
            assert got.tobytes() == _project_speed(path, max_step).tobytes()

    def test_failed_factorization_stops_only_its_chain(self):
        # A factorization that fails in the middle chain's block stops that
        # chain where it stands, at its start strictly inside the bound; the
        # others go on as they would alone.
        rng = np.random.default_rng(4)
        m, max_step = 12, 5.0
        constraints = TrajectoryConstraints(
            Position3D(0.0, 0.0, ALTITUDE),
            Position3D(0.5 * m * max_step, 0.0, ALTITUDE),
            ALTITUDE,
            max_step,
            1.0,
        )
        line = straight_line_trajectory(constraints, m).waypoints
        paths = np.repeat(line[None], 3, axis=0)
        paths[:, 1:-1, :2] += rng.uniform(-2.0, 2.0, (3, m - 1, 2)) * max_step
        alone = [_project_speed(path, max_step) for path in paths]
        calls = []

        def fail_once(band, **kwargs):
            calls.append(band.shape)
            if len(calls) == 1:  # the first column of chain 1's block
                return band, 1 + band.shape[1] // 3
            return dpbtrf(band, **kwargs)

        with mock.patch("uavirs.trajectory.dpbtrf", side_effect=fail_once):
            out = _project_speed(paths, max_step)
        assert calls[1][1] == 2 * calls[0][1] // 3  # the stack shrank to two chains
        start = pulled_back_start(paths[1], line, max_step)
        np.testing.assert_allclose(out[1], start, rtol=0.0, atol=1e-12 * max_step)
        np.testing.assert_array_equal(out[1][[0, -1]], line[[0, -1]])
        np.testing.assert_array_equal(out[1][:, 2], line[:, 2])
        assert longest_segment(out[1]) < max_step
        assert out[0].tobytes() == alone[0].tobytes()
        assert out[2].tobytes() == alone[2].tobytes()

    def test_newton_steps_do_not_grow_as_the_overshoot_shrinks(self):
        # A line search's short steps overshoot the bound by little: here a
        # bent path strictly inside it plus alpha * g, alpha = 2^-5 ... 2^-29.
        # A start at the straight line, with multipliers the size of the
        # path's bend, took more Newton steps the smaller the overshoot (10
        # at 2^-5, 24 at 2^-29); a start next to the candidate does not.
        m, max_step = 40, 5.0
        heading = 1.1 * np.sin(np.linspace(0.0, 2.0 * math.pi, m))
        wp = np.full((m + 1, 3), ALTITUDE)
        wp[0, :2] = 0.0
        steps = (1.0 - 1e-12) * max_step * np.stack([np.cos(heading), np.sin(heading)], axis=1)
        wp[1:, :2] = np.cumsum(steps, axis=0)
        assert longest_segment(wp) < max_step
        g = np.zeros_like(wp)
        g[1:-1, :2] = np.random.default_rng(0).normal(size=(m - 1, 2)) * max_step
        counts = []
        for k in range(5, 30):
            with mock.patch("uavirs.trajectory.dpbtrf", wraps=dpbtrf) as factor:
                out = _project_speed(wp + 2.0**-k * g, max_step)
            counts.append(factor.call_count)
            assert longest_segment(out) <= max_step
        assert min(counts) > 0  # every candidate overshoots
        assert counts[-1] <= counts[0] + 2

    def test_start_keeps_the_line_where_the_candidate_does(self):
        # Segments where the candidate moves no waypoint off the straight
        # line have no root and are skipped; the start leaves those
        # waypoints on the line, bit for bit.
        m, max_step = 16, 5.0
        line = np.full((m + 1, 3), ALTITUDE)
        start_xy = np.array([3.0, -7.0])
        end_xy = start_xy + 0.6 * m * max_step * np.array([0.6, 0.8])
        line[:, :2] = trajectory._straight_line(start_xy, end_xy, m)
        path = line.copy()
        path[6:11, :2] += np.random.default_rng(1).uniform(-2.0, 2.0, (5, 2)) * max_step
        start = start_of(path, max_step)
        np.testing.assert_array_equal(start[:6], line[:6])
        np.testing.assert_array_equal(start[11:], line[11:])
        expected = pulled_back_start(path, line, max_step)
        np.testing.assert_allclose(start, expected, atol=1e-12 * max_step)
        assert longest_segment(start) < max_step
        out = _project_speed(path, max_step)
        ref = dykstra_speed_projection(path[:, :2], max_step)
        assert np.abs(out[:, :2] - ref).max() <= 1e-6 * max_step

    @pytest.mark.parametrize("seed", range(3))
    def test_huge_overshoot_starts_next_to_the_line(self, seed):
        # 300 slots' flight off the line: theta is about 1e-3, the start
        # strictly inside the bound, and the answer still optimal.
        rng = np.random.default_rng(seed)
        m, max_step = 12, 5.0
        line = np.full((m + 1, 3), ALTITUDE)
        line[:, :2] = trajectory._straight_line(np.zeros(2), np.array([0.5 * m * max_step, 0.0]), m)
        path = line.copy()
        path[1:-1, :2] += 300.0 * max_step * rng.uniform(-1.0, 1.0, (m - 1, 2))
        start = start_of(path, max_step)
        assert longest_segment(start) < max_step
        expected = pulled_back_start(path, line, max_step)
        np.testing.assert_allclose(start, expected, atol=1e-12 * max_step)
        assert np.abs(start - line).max() < 0.01 * np.abs(path - line).max()
        out = _project_speed(path, max_step)
        np.testing.assert_array_equal(out[[0, -1]], path[[0, -1]])
        assert speed_projection_kkt_violation(path[:, :2], out[:, :2], max_step) <= 1e-6

    def test_start_on_a_budget_with_ulps_of_slack_stays_inside(self):
        # When the straight step is a few ulps below max_step, rounding can
        # leave a pulled-back start segment outside the ball; that chain
        # starts at the straight line instead, and the output stays inside.
        # (A line that rounding leaves on the bound is returned as it is.)
        rng = np.random.default_rng(0)
        solved = 0
        for _ in range(100):
            m, max_step = int(rng.integers(2, 6)), float(rng.uniform(1.0, 10.0))
            angle = rng.uniform(0.0, 2.0 * math.pi)
            start = rng.uniform(-100.0, 100.0, 2)
            reach = m * max_step * (1.0 - int(rng.integers(1, 60)) * 2.0**-52)
            end = start + reach * np.array([math.cos(angle), math.sin(angle)])
            wp = np.full((m + 1, 3), ALTITUDE)
            wp[:, :2] = trajectory._straight_line(start, end, m)
            if trajectory._no_slack(wp[:, :2], max_step):
                continue
            wp[1:-1, :2] += rng.uniform(-3.0, 3.0, (m - 1, 2)) * max_step
            out = _project_speed(wp, max_step)
            assert longest_segment(out) < max_step
            np.testing.assert_array_equal(out[[0, -1]], wp[[0, -1]])
            solved += 1
        assert solved > 30

    def test_huge_overshoot_two_slot_path(self):
        # One interior waypoint 6e5 m off the line: its projection is the
        # corner of the lens the two discs around the endpoints share.
        wp = np.array([[0.0, 0.0, 30.0], [50.0, 1e4 * 60.0, 30.0], [100.0, 0.0, 30.0]])
        out = _project_speed(wp, 60.0)
        np.testing.assert_allclose(out[1], [50.0, math.sqrt(60.0**2 - 50.0**2), 30.0], rtol=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_near_feasible_candidate_matches_dykstra(self, seed):
        # A path on the bound, bent, plus a 1e-6 * max_step perturbation: the
        # short-step candidates of a line search.
        rng = np.random.default_rng(seed)
        m, max_step = int(rng.integers(3, 40)), float(rng.uniform(0.5, 20.0))
        wp = boundary_path(rng, m, max_step)
        wp[1:-1, :2] += 1e-6 * max_step * rng.uniform(-1.0, 1.0, (m - 1, 2))
        out = _project_speed(wp, max_step)
        ref = dykstra_speed_projection(wp[:, :2], max_step)
        assert np.abs(out[:, :2] - ref).max() <= 1e-6 * max_step
        assert longest_segment(out) <= max_step

    @settings(max_examples=40)
    @given(stack=speed_stacks())
    def test_lower_layout_factor_gives_the_upper_layout_bits(self, stack):
        # The projection factors its Newton band in lower layout; routed
        # through the upper-layout factorization instead, every bit stays.
        paths, max_step = stack
        direct = _project_speed(paths, max_step)
        with mock.patch("uavirs.trajectory.dpbtrf", side_effect=upper_factor_as_lower):
            routed = _project_speed(paths, max_step)
        assert routed.tobytes() == direct.tobytes()

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("m", [2, 3, 7, 40])
    def test_lower_and_upper_band_factors_are_equal(self, seed, m):
        # dpbtf2 forms the same products in the same order in both layouts.
        rng = np.random.default_rng(seed)
        dense = block_diag(*(newton_matrix(rng, m) for _ in range(3)))
        n = dense.shape[0]
        lower = np.array([np.append(np.diagonal(dense, -d), np.zeros(d)) for d in range(4)])
        upper = np.array([np.append(np.zeros(3 - d), np.diagonal(dense, 3 - d)) for d in range(4)])
        fac, info = dpbtrf(np.asfortranarray(lower), lower=1)
        chol, upper_info = dpbtrf(upper)
        assert info == upper_info == 0
        for d in range(4):
            assert fac[d, : n - d].tobytes() == chol[3 - d, d:].tobytes()

    def test_largest_accepted_step_projects(self):
        # The step to the bound squares s . ds, a product of four lengths;
        # at 1e76 times this 3-slot case it overflowed and the projection
        # returned the straight line.
        base = np.array(
            [[0.0, 0.0, 30.0], [30.0, 60.0, 30.0], [70.0, -50.0, 30.0], [100.0, 0.0, 30.0]]
        )
        scale = _MAX_STEP_LIMIT / 40.0
        start, end = Position3D(0.0, 0.0, 30.0), Position3D(100.0 * scale, 0.0, 30.0)
        constraints = TrajectoryConstraints(start, end, 30.0, 40.0 * scale, 1.0)  # accepted
        ref = _project_speed(base, 40.0)
        out = _project_speed(base * scale, constraints.max_step) / scale
        np.testing.assert_allclose(out[:, :2], ref[:, :2], rtol=1e-9, atol=1e-9 * 100.0)

    @given(chain=speed_chains(min_slack=0.0))
    def test_feasible_with_endpoints_and_altitude_fixed(self, chain):
        wp, max_step = chain
        out = _project_speed(wp, max_step)
        steps = np.linalg.norm(np.diff(out, axis=0), axis=1)
        assert steps.max() <= max_step + SPEED_SLACK
        np.testing.assert_array_equal(out[[0, -1]], wp[[0, -1]])
        np.testing.assert_array_equal(out[:, 2], wp[:, 2])

    # Dykstra's sweeps grow like 1/slack (about 3000 at 1% slack, 90000 at
    # 0.1%), so the reference keeps 5% or more here; the interior-point
    # solve needs about as many Newton steps at any slack (tests below).
    @settings(max_examples=40)
    @given(chain=speed_chains(min_slack=0.05))
    def test_matches_dykstra(self, chain):
        wp, max_step = chain
        out = _project_speed(wp, max_step)
        ref = dykstra_speed_projection(wp[:, :2], max_step)
        assert np.abs(out[:, :2] - ref).max() <= 1e-6 * max_step

    # Mission projections have 46-300 slots at 30-90% slack. The reference
    # stops at 1e-12, looser than its default and still far below the
    # 1e-6 * max_step the comparison allows.
    @settings(max_examples=8)
    @given(chain=speed_chains(min_slack=0.3, max_slack=0.9, min_slots=50, max_slots=300))
    def test_long_chain_matches_dykstra(self, chain):
        wp, max_step = chain
        out = _project_speed(wp, max_step)
        ref = dykstra_speed_projection(wp[:, :2], max_step, tol=1e-12)
        assert np.abs(out[:, :2] - ref).max() <= 1e-6 * max_step

    def test_dykstra_settles_far_from_origin(self):
        # Near 800 m the spacing of doubles (1.1e-13 m) exceeds 1e-14 *
        # max_step, so rounding keeps this chain's sweeps from settling to
        # that; a stop relative to the coordinates settles in under 100.
        m, max_step = 40, 5.7
        rng = np.random.default_rng(9)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        start = np.array([800.0, 0.0])
        end = start + 0.5 * m * max_step * np.array([math.cos(angle), math.sin(angle)])
        wp = np.full((m + 1, 3), ALTITUDE)
        wp[:, :2] = start + np.linspace(0.0, 1.0, m + 1)[:, None] * (end - start)
        wp[1:-1, :2] += rng.uniform(-1.0, 1.0, (m - 1, 2)) * 2.0 * max_step
        ref = dykstra_speed_projection(wp[:, :2], max_step, max_sweeps=500)
        out = _project_speed(wp, max_step)
        assert np.abs(out[:, :2] - ref).max() <= 1e-6 * max_step

    @settings(max_examples=6)
    @given(chain=speed_chains(min_slack=0.01, max_slack=0.01, max_slots=10))
    def test_one_percent_slack_matches_dykstra(self, chain):
        wp, max_step = chain
        out = _project_speed(wp, max_step)
        ref = dykstra_speed_projection(wp[:, :2], max_step)
        assert np.abs(out[:, :2] - ref).max() <= 1e-6 * max_step

    @settings(max_examples=20)
    @given(chain=speed_chains(min_slack=0.001, max_slack=0.001))
    def test_tenth_percent_slack_few_newton_steps(self, chain):
        wp, max_step = chain
        # Each Newton step makes two dpbtrs solves (predictor and corrector);
        # 30 steps is well under the solver's cap.
        with mock.patch("uavirs.trajectory.dpbtrs", wraps=dpbtrs) as solves:
            out = _project_speed(wp, max_step)
        assert solves.call_count <= 2 * 30
        steps = np.linalg.norm(np.diff(out, axis=0), axis=1)
        assert steps.max() <= max_step + SPEED_SLACK
        np.testing.assert_array_equal(out[[0, -1]], wp[[0, -1]])
        np.testing.assert_array_equal(out[:, 2], wp[:, 2])

    def test_two_slot_path(self):
        # One interior waypoint: the band has no off-diagonal 2x2 blocks.
        wp = np.array([[0.0, 0.0, 30.0], [50.0, 40.0, 30.0], [100.0, 0.0, 30.0]])
        out = _project_speed(wp, 60.0)
        assert np.linalg.norm(np.diff(out, axis=0), axis=1).max() <= 60.0 + SPEED_SLACK
        np.testing.assert_allclose(out[1], [50.0, math.sqrt(60.0**2 - 50.0**2), 30.0], rtol=1e-9)
        np.testing.assert_array_equal(out[[0, -1]], wp[[0, -1]])

    @settings(max_examples=20)
    @given(chain=speed_chains(min_slack=0.05, max_slots=2))
    def test_two_slot_chain_matches_dykstra(self, chain):
        wp, max_step = chain
        out = _project_speed(wp, max_step)
        ref = dykstra_speed_projection(wp[:, :2], max_step)
        assert np.abs(out[:, :2] - ref).max() <= 1e-6 * max_step

    def test_non_finite_slack_raises(self, package_env, tmp_path):
        # At max_step 1e160 the slack (L - l)(L + l) / 2 overflows, so no
        # halving of the step brings a trial inside the bound. A child
        # process with a timeout: the uncapped halving loop never ended.
        code = """
        import numpy as np
        from uavirs.trajectory import _project_speed
        wp = np.array([[0.0, 0.0, 30.0], [1.0, 2e160, 30.0], [2.0, 0.0, 30.0], [3.0, 0.0, 30.0]])
        try:
            _project_speed(wp, 1e160)
        except RuntimeError as exc:
            print(exc)
        """
        done = subprocess.run(
            [sys.executable, "-W", "ignore", "-c", textwrap.dedent(code)],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=package_env,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert "no step keeps the path inside the bound" in done.stdout

    @given(
        m=st.integers(1, 15),
        max_step=st.floats(0.1, 20.0),
        lengths=st.lists(st.floats(0.0, 0.999), min_size=15, max_size=15),
        angles=st.lists(st.floats(0.0, 2.0 * math.pi), min_size=15, max_size=15),
    )
    def test_feasible_input_unchanged(self, m, max_step, lengths, angles):
        steps = max_step * np.array(
            [[r * math.cos(a), r * math.sin(a)] for r, a in zip(lengths[:m], angles[:m])]
        )
        wp = np.full((m + 1, 3), ALTITUDE)
        wp[0, :2] = 0.0
        wp[1:, :2] = np.cumsum(steps, axis=0)
        np.testing.assert_array_equal(_project_speed(wp, max_step), wp)

    @given(
        m=st.integers(1, 15),
        eighths=st.integers(1, 160),
        direction=st.sampled_from([(1, 0, 1), (0, -1, 1), (-1, 0, 1), (3, 4, 5), (-4, 3, 5)]),
        start=st.tuples(st.integers(-200, 200), st.integers(-200, 200)),
        offsets=st.lists(st.floats(-50.0, 50.0), min_size=30, max_size=30),
    )
    def test_zero_slack_gives_straight_line(self, m, eighths, direction, start, offsets):
        # Dyadic lengths along integer (3, 4, 5) directions keep M * max_step
        # equal to the start-end distance in floating point.
        dx, dy, norm = direction
        unit = eighths / 8.0
        max_step = norm * unit
        start_xy = np.array(start, dtype=float)
        end_xy = start_xy + m * unit * np.array([dx, dy], dtype=float)
        constraints = TrajectoryConstraints(
            Position3D(*start_xy, ALTITUDE), Position3D(*end_xy, ALTITUDE), ALTITUDE, max_step, 1.0
        )
        line = straight_line_trajectory(constraints, m).waypoints
        wp = line.copy()
        wp[1:-1, :2] += np.array(offsets[: 2 * (m - 1)]).reshape(m - 1, 2)
        with mock.patch("uavirs.trajectory._interior_point_chain", side_effect=AssertionError):
            out = _project_speed(wp, max_step)  # returned without iterating
        np.testing.assert_array_equal(out, line)


@st.composite
def ulp_slack_chains(draw):
    """A perturbed path whose straight step is 1 to 60 ulps of M * max_step short of max_step."""
    m, max_step = draw(st.integers(2, 8)), draw(st.floats(1.0, 10.0))
    angle, ulps = draw(st.floats(0.0, 2.0 * math.pi)), draw(st.integers(1, 60))
    start = np.array([draw(st.floats(-100.0, 100.0)), draw(st.floats(-100.0, 100.0))])
    reach = m * max_step * (1.0 - ulps * 2.0**-52)
    end = start + reach * np.array([math.cos(angle), math.sin(angle)])
    wp = np.full((m + 1, 3), ALTITUDE)
    wp[:, :2] = trajectory._straight_line(start, end, m)
    offsets = draw(st.lists(st.floats(-3.0, 3.0), min_size=2 * (m - 1), max_size=2 * (m - 1)))
    wp[1:-1, :2] += max_step * np.array(offsets).reshape(m - 1, 2)
    return wp, max_step


def bench_trajectory_scenes():
    """The benchmark's trajectory instances, seeds 0-9: the shipped scenes and rigid motions."""
    root = Path(__file__).resolve().parents[1]
    path = root / "bench" / "instances.py"
    spec = importlib.util.spec_from_file_location("bench_instances", path)
    instances = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(instances)
    return [
        (name, loads_scenario(text))
        for workload in ("trajopt-noirs", "trajopt-irs")
        for seed in range(10)
        for name, text in instances.instance_texts(root, workload, seed)
    ]


class TestLengthKernel:
    """The projection's slack and its feasibility test measure segments with one kernel."""

    @settings(max_examples=60)
    @given(stack=speed_stacks())
    def test_projection_is_idempotent(self, stack):
        paths, max_step = stack
        out = _project_speed(paths, max_step)
        assert _project_speed(out, max_step).tobytes() == out.tobytes()

    @settings(max_examples=60)
    @given(chain=ulp_slack_chains())
    def test_projection_with_ulps_of_slack_is_idempotent(self, chain):
        wp, max_step = chain
        out = _project_speed(wp, max_step)  # or the straight line, if it has no slack
        assert _project_speed(out, max_step).tobytes() == out.tobytes()

    def test_fig4_rigid_motions_one_lp_no_projection(self):
        scenes = [(n, scn) for n, scn in bench_trajectory_scenes() if n.split("_s")[0] == "fig4"]
        assert len(scenes) == 10
        for name, scn in scenes:
            with mock.patch("uavirs.trajectory.linprog", wraps=linprog) as lp, mock.patch(
                "uavirs.trajectory._project_speed", wraps=_project_speed
            ) as ps:
                res = min_time_mission(scn)
            assert res.mission_time == pytest.approx(3.0), name
            assert (lp.call_count, ps.call_count) == (1, 0), name


class TestRateGradient:
    def test_matches_central_differences(self):
        surf = IrsSurface(
            id="irs",
            kind=SurfaceKind.TERRESTRIAL,
            position=Position3D(50.0, 30.0, 10.0),
            num_elements=300,
            facing_normal=(0.0, -1.0, 0.0),
            covered_node_ids=frozenset({"sn1"}),
        )
        scn = make_scenario(
            [("sn1", (50.0, 25.0, 0.0)), ("sn2", (20.0, -40.0, 0.0))], surfaces=(surf,)
        )
        ev = _RateEvaluator(scn)
        wp = straight_line_trajectory(scn.experiment.constraints, 20).waypoints
        wp[1:-1, 1] += np.linspace(-15.0, 25.0, 19)
        grad = ev.rate_gradient(wp)
        h = 1e-4
        for t in (1, 7, 12, 18):
            for axis in (0, 1):
                up, down = wp.copy(), wp.copy()
                up[t, axis] += h
                down[t, axis] -= h
                fd = (ev.rates(up)[:, t] - ev.rates(down)[:, t]) / (2.0 * h)
                np.testing.assert_allclose(grad[:, t, axis], fd, rtol=1e-6)


@st.composite
def priced_pairs(draw):
    """A scene, a path and (node, slot) pairs to price, of any order and with repeats.

    Direct links may be blocked, nodes may be served by one of two surfaces,
    and one node may sit within the 1 m reference-distance clamp of a waypoint.
    """
    m = draw(st.integers(1, 12))
    coord = st.floats(-80.0, 180.0)
    wp = np.full((m + 1, 3), 30.0)
    points = draw(st.lists(coord, min_size=2 * (m + 1), max_size=2 * (m + 1)))
    wp[:, :2] = np.array(points).reshape(m + 1, 2)
    k = draw(st.integers(1, 5))
    sensors = [
        (f"sn{i}", (draw(coord), draw(coord), draw(st.sampled_from([0.0, 10.0]))))
        for i in range(k)
    ]
    if draw(st.booleans()):  # within the clamp: under 1 m from waypoint t, at its altitude
        t, angle = draw(st.integers(0, m)), draw(st.floats(0.0, 2.0 * math.pi))
        r = draw(st.floats(0.0, 0.99))
        near = wp[t, :2] + r * np.array([math.cos(angle), math.sin(angle)])
        sensors[0] = ("sn0", (float(near[0]), float(near[1]), 30.0))
    assume(len({pos for _, pos in sensors} | {(0.0, 0.0, 30.0)}) == k + 1)  # no colocated nodes
    owner = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=k, max_size=k))
    surfaces = tuple(
        IrsSurface(
            id=f"irs{j}",
            kind=SurfaceKind.TERRESTRIAL,
            position=Position3D(40.0 + 60.0 * j, 60.0, 10.0),
            num_elements=draw(st.integers(0, 2000)),
            facing_normal=(0.0, -1.0, 0.0),
            covered_node_ids=frozenset(f"sn{i}" for i in range(k) if owner[i] == j),
        )
        for j in (0, 1)
    )
    blocked = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    rules = [
        LinkStateRule(("uav", f"sn{i}"), math.inf, LinkState.BLOCKED)
        for i in range(k)
        if blocked[i]
    ]
    scn = make_scenario(sensors, surfaces=surfaces, rules=rules)
    pair = st.tuples(st.integers(0, k - 1), st.integers(0, m - 1))
    pairs = draw(st.lists(pair, max_size=3 * k * m))
    ks = np.array([p[0] for p in pairs], dtype=np.intp)
    ts = np.array([p[1] for p in pairs], dtype=np.intp)
    return _RateEvaluator(scn), wp, ks, ts


class TestPairKernel:
    """Pricing (node, slot) pairs gives the bits of the same entries of the full matrix."""

    @settings(max_examples=150)
    @given(case=priced_pairs())
    def test_pairs_match_the_full_matrix(self, case):
        ev, wp, ks, ts = case
        rates, slopes = ev.rates(wp, (ks, ts)), ev.rate_gradient(wp, (ks, ts))
        assert rates.shape == ks.shape and slopes.shape == (*ks.shape, 2)
        assert rates.tobytes() == ev.rates(wp)[ks, ts].tobytes()
        assert slopes.tobytes() == ev.rate_gradient(wp)[ks, ts].tobytes()

    @settings(max_examples=100)
    @given(case=priced_pairs())
    def test_a_stack_of_paths_is_priced_path_by_path(self, case):
        # the line search prices its candidates as one stack
        ev, wp, ks, ts = case
        stack = np.stack([wp, wp[::-1], wp + 0.5])
        rates = ev.rates(stack, (ks, ts))
        assert rates.shape == (3, *ks.shape)
        for path, row in zip(stack, rates):
            assert row.tobytes() == ev.rates(path.copy())[ks, ts].tobytes()

    def test_full_matrix_matches_per_node_evaluation(self):
        # sn4 is served by the surface; the all-pairs call is one broadcast
        scn = load_scenario(scenario_path("fig4"))
        ev = _RateEvaluator(scn)
        wp = straight_line_trajectory(scn.experiment.constraints, 30).waypoints
        rates, slopes = ev.rates(wp), ev.rate_gradient(wp)
        assert rates.shape == (len(ev.nodes), 30) and slopes.shape == (len(ev.nodes), 30, 2)
        for k in range(len(ev.nodes)):
            row = (np.full(30, k), np.arange(30))
            assert ev.rates(wp, row).tobytes() == rates[k].tobytes()
            assert ev.rate_gradient(wp, row).tobytes() == slopes[k].tobytes()

    def test_step_prices_only_the_schedule_support(self):
        scn = make_scenario([("sn1", (30.0, 50.0, 0.0)), ("sn2", (70.0, -45.0, 0.0))], slot=0.2)
        traj = straight_line_trajectory(scn.experiment.constraints, 12)
        sched, _ = optimal_schedule(per_slot_rates(scn, traj), 0.2)
        ev, priced = _RateEvaluator(scn), []

        def record(waypoints, pairs=None):
            priced.append(pairs)
            return _RateEvaluator.rates(ev, waypoints, pairs)

        with mock.patch.object(ev, "rates", side_effect=record):
            improve_trajectory(scn, traj, sched, _evaluator=ev)
        support = np.nonzero(sched.fractions)
        assert priced and len(support[0]) < sched.fractions.size
        for ks, ts in priced:
            assert ks.tolist() == support[0].tolist() and ts.tolist() == support[1].tolist()


class TestImproveTrajectory:
    def test_zero_gradient_returns_input(self):
        scn = make_scenario(
            [("sn1", (50.0, 0.0, 0.0))],
            rules=[LinkStateRule(("uav", "sn1"), math.inf, LinkState.BLOCKED)],
        )
        traj = straight_line_trajectory(scn.experiment.constraints, 10)
        sched = Schedule(np.ones((1, 10)))
        out = improve_trajectory(scn, traj, sched)
        assert out is traj  # _solve_fixed_time ends its descent on this identity

    def test_pulls_toward_offset_node(self):
        scn = make_scenario([("sn1", (50.0, 40.0, 0.0))], slot=0.2)
        traj = straight_line_trajectory(scn.experiment.constraints, 15)  # slack budget
        sched = Schedule(np.ones((1, 15)))
        out = improve_trajectory(scn, traj, sched)
        d_before = np.linalg.norm(
            traj.waypoints - np.array([50.0, 40.0, 0.0]), axis=1
        )
        d_after = np.linalg.norm(out.waypoints - np.array([50.0, 40.0, 0.0]), axis=1)
        assert np.any(d_after < d_before - 1e-6)
        # objective increase confirmed by direct re-evaluation
        obj_before = (per_slot_rates(scn, traj) * sched.fractions).sum()
        obj_after = (per_slot_rates(scn, out) * sched.fractions).sum()
        assert obj_after > obj_before

    def test_endpoints_and_altitude_fixed(self):
        scn = make_scenario([("sn1", (50.0, 40.0, 0.0))], slot=0.2)
        traj = straight_line_trajectory(scn.experiment.constraints, 15)
        out = improve_trajectory(scn, traj, Schedule(np.ones((1, 15))))
        np.testing.assert_array_equal(out.waypoints[0], traj.waypoints[0])
        np.testing.assert_array_equal(out.waypoints[-1], traj.waypoints[-1])
        np.testing.assert_array_equal(out.waypoints[:, 2], traj.waypoints[:, 2])

    def test_output_speed_feasible(self):
        scn = make_scenario(
            [("sn1", (20.0, 60.0, 0.0)), ("sn2", (80.0, -70.0, 0.0))], slot=0.15
        )
        traj = straight_line_trajectory(scn.experiment.constraints, 14)
        sched, _ = optimal_schedule(per_slot_rates(scn, traj), 0.15)
        out = improve_trajectory(scn, traj, sched)
        assert out.is_speed_feasible(scn.experiment.constraints)

    def test_hard_min_never_decreases(self):
        scn = make_scenario(
            [("sn1", (30.0, 50.0, 0.0)), ("sn2", (70.0, -45.0, 0.0))], slot=0.2
        )
        traj = straight_line_trajectory(scn.experiment.constraints, 12)
        sched, _ = optimal_schedule(per_slot_rates(scn, traj), 0.2)
        for _ in range(5):
            out = improve_trajectory(scn, traj, sched)
            before = ((sched.fractions * per_slot_rates(scn, traj)).sum(axis=1)).min()
            after = ((sched.fractions * per_slot_rates(scn, out)).sum(axis=1)).min()
            assert after >= before - 1e-12
            traj = out

    def test_stationary_on_speed_tight_straight_path(self):
        # node under the start-end segment; zero speed slack pins the path
        scn = make_scenario([("sn1", (50.0, 0.0, 0.0))], slot=0.1, v_max=50.0)
        traj = straight_line_trajectory(scn.experiment.constraints, 20)  # 5 m steps
        sched = Schedule(np.ones((1, 20)))
        out = improve_trajectory(scn, traj, sched)
        obj_before = (per_slot_rates(scn, traj) * sched.fractions).sum() * 0.1 / 2.0
        obj_after = (per_slot_rates(scn, out) * sched.fractions).sum() * 0.1 / 2.0
        assert abs(obj_after - obj_before) < 1e-9

    def test_zero_slack_returns_input_without_line_search(self):
        scn = make_scenario([("sn1", (50.0, 30.0, 0.0))], slot=0.1, v_max=50.0)
        traj = straight_line_trajectory(scn.experiment.constraints, 20)  # 5 m steps
        with mock.patch("uavirs.trajectory._project_speed", wraps=_project_speed) as ps:
            out = improve_trajectory(scn, traj, Schedule(np.ones((1, 20))))
        assert out is traj
        assert ps.call_count == 0


def solve_recorded(name, **overrides):
    """Solve a shipped scenario, with its experiment's fields replaced by overrides,
    counting LPs and projections and recording every step.

    Each step is (input trajectory, schedule, rate evaluator, output trajectory).
    """
    steps = []

    def step(scenario, trajectory, schedule, *, _evaluator):
        out = improve_trajectory(scenario, trajectory, schedule, _evaluator=_evaluator)
        steps.append((trajectory, schedule, _evaluator, out))
        return out

    scn = load_scenario(scenario_path(name))
    scn = scn.with_experiment(replace(scn.experiment, **overrides))
    with mock.patch("uavirs.trajectory.linprog", wraps=linprog) as lp, mock.patch(
        "uavirs.trajectory._project_speed", wraps=_project_speed
    ) as ps, mock.patch("uavirs.trajectory.improve_trajectory", side_effect=step):
        res = min_time_mission(scn)
    return res, lp.call_count, ps.call_count, steps


@pytest.fixture(scope="module")
def fig4_noirs_solve():
    return solve_recorded("fig4_noirs")


@pytest.fixture(scope="module")
def fig4_surface_solve():
    """fig4 at rate_target 1.1: the with-surface mission the optimizer must shape."""
    return solve_recorded("fig4", rate_target=1.1)


class CountingHighs:
    """A real HiGHS instance that appends its simplex iteration count to runs after each run."""

    runs = []

    def __init__(self):
        self._solver = REAL_HIGHS()

    def __getattr__(self, name):
        return getattr(self._solver, name)

    def run(self):
        status = self._solver.run()
        CountingHighs.runs.append(self._solver.getInfo().simplex_iteration_count)
        return status


@pytest.fixture(scope="module")
def fig4_noirs_lps():
    """A second fig4_noirs solve in this process, and a record of its every LP.

    A record holds the LP's inputs (args), the start basis it was offered
    (offered: None, or the basis's alien flag and its column and row
    statuses), its solution x, the optimal basis it left (left: column and
    row statuses) and the simplex iterations HiGHS took for it.
    """
    lps = []

    def record(*args, warm=None):
        offered = None
        if warm is not None and warm.basis is not None:
            offered = (warm.basis.alien, warm.basis.col_status, warm.basis.row_status)
        before = len(CountingHighs.runs)
        x = linprog(*args, warm=warm)
        left = (warm.basis.col_status, warm.basis.row_status)
        iterations = sum(CountingHighs.runs[before:])
        lps.append(
            SimpleNamespace(args=args, offered=offered, x=x, left=left, iterations=iterations)
        )
        return x

    CountingHighs.runs = []
    with mock.patch("uavirs.trajectory.linprog", side_effect=record), mock.patch.object(
        trajectory.highs, "_Highs", CountingHighs
    ):
        res = min_time_mission(load_scenario(scenario_path("fig4_noirs")))
    return res, lps


def nodes_and_slots(lp):
    """K and M of a schedule LP: node rows have upper bound 0, slot rows 1."""
    row_upper = lp.args[-1]
    k = int(np.count_nonzero(row_upper == 0.0))
    return k, row_upper.size - k


def probe_first_lps(lps):
    """The first LP of every probe after the first: each probe has its own slot count."""
    return [lp for old, lp in zip(lps, lps[1:]) if nodes_and_slots(lp) != nodes_and_slots(old)]


def accepted_and_rejected(steps):
    rejected = sum(out is traj for traj, _, _, out in steps)
    return len(steps) - rejected, rejected


class TestKnownAnswers:
    """A rejected step ends the descent without re-solving the unchanged LP."""

    def test_fig4_one_lp_no_projection(self):
        res, lp_calls, projections, _ = solve_recorded("fig4")
        assert res.mission_time == pytest.approx(3.0)
        assert (lp_calls, projections, res.iterations) == (1, 0, 1)
        speed, probe = res.probes
        assert speed.note == "speed"
        assert len(probe.objective_history) == 2
        assert probe.objective_history[0] == probe.objective_history[1]

    def test_fig4_noirs_lp_count(self, fig4_noirs_solve):
        res, lp_calls, _, _ = fig4_noirs_solve
        assert res.mission_time == pytest.approx(5.1)
        assert (lp_calls, res.iterations) == (21, 21)

    def test_fig4_noirs_accepted_and_rejected_steps(self, fig4_noirs_solve):
        *_, steps = fig4_noirs_solve
        assert accepted_and_rejected(steps) == (11, 10)

    def test_fig4_noirs_only_the_first_lp_is_cold(self, fig4_noirs_lps):
        # Each probe's first LP starts from the last basis of the probe
        # before it, mapped to its slot count; every other LP from the
        # optimal basis of the LP just before it.
        res, lps = fig4_noirs_lps
        assert [lp.offered is None for lp in lps] == [True] + [False] * 20
        firsts = probe_first_lps(lps)
        assert len(firsts) == sum(p.note != "speed" for p in res.probes) - 1
        for before, lp in zip(lps, lps[1:]):
            alien, cols, rows = lp.offered
            (k, m_old), (_, m_new) = nodes_and_slots(before), nodes_and_slots(lp)
            if m_new == m_old:
                assert not alien and (cols, rows) == before.left
                continue
            src = [min((2 * t + 1) * m_old // (2 * m_new), m_old - 1) for t in range(m_new)]
            old_cols, old_rows = before.left
            assert alien
            assert cols == [old_cols[node * m_old + s] for node in range(k) for s in src] + [
                old_cols[-1]
            ]
            assert rows == old_rows[:k] + [old_rows[k + s] for s in src]

    def test_fig4_noirs_mapped_starts_halve_the_simplex_iterations(self, fig4_noirs_lps):
        _, lps = fig4_noirs_lps
        firsts = probe_first_lps(lps)
        CountingHighs.runs = []
        with mock.patch.object(trajectory.highs, "_Highs", CountingHighs):
            for lp in firsts:
                linprog(*lp.args)
        assert len(CountingHighs.runs) == len(firsts)
        assert sum(lp.iterations for lp in firsts) < 0.5 * sum(CountingHighs.runs)

    def test_fig4_noirs_warm_lps_reach_the_cold_value(self, fig4_noirs_lps):
        _, lps = fig4_noirs_lps
        for lp in lps:
            cold = linprog(*lp.args)
            if lp.offered is not None:
                assert lp.x[-1] == pytest.approx(cold[-1], rel=1e-12)
            else:
                assert lp.x.tobytes() == cold.tobytes()

    def test_fig4_surface_mission(self, fig4_surface_solve):
        res, lp_calls, _, steps = fig4_surface_solve
        assert res.converged
        assert res.mission_time == pytest.approx(4.8)
        assert res.achieved_min_rate >= 1.1
        assert (lp_calls, res.iterations) == (20, 19)
        assert accepted_and_rejected(steps) == (10, 9)


class TestSearchSnapshot:
    """Mission time, accepted BCD iterations and probe count of today's search.

    The bisection's answer depends on max_time (ROADMAP item 1), so these
    pin the search itself: a change meant only to make it faster must keep
    every value. ROADMAP items 1 and 2, which replace the trajectory step
    and the bisection, will re-pin them.
    """

    @pytest.mark.parametrize(
        "name, overrides, expected",
        [
            ("fig4_noirs", {"max_time": 15.0}, (9.1, 18, 8)),
            ("fig4_noirs", {"max_time": 30.0}, (5.1, 21, 10)),
            ("fig4_noirs", {"max_time": 40.0}, (4.7, 27, 11)),
            ("fig4", {"rate_target": 1.1, "max_time": 10.0}, (6.8, 11, 8)),
            ("fig4", {"rate_target": 1.1, "max_time": 30.0}, (4.8, 19, 10)),
        ],
    )
    def test_same_search(self, name, overrides, expected):
        scn = load_scenario(scenario_path(name))
        res = min_time_mission(scn.with_experiment(replace(scn.experiment, **overrides)))
        assert res.converged
        assert (round(res.mission_time, 9), res.iterations, len(res.probes)) == expected


class TestNoSolverStateAcrossSolves:
    """Each mission keeps its LP start bases to itself."""

    def test_second_solve_gives_the_same_bytes(self, fig4_noirs_solve, fig4_noirs_lps):
        first, second = fig4_noirs_solve[0], fig4_noirs_lps[0]
        assert first.trajectory.waypoints.tobytes() == second.trajectory.waypoints.tobytes()
        assert first.schedule.fractions.tobytes() == second.schedule.fractions.tobytes()
        assert first.per_node_rates.tobytes() == second.per_node_rates.tobytes()

    def test_standalone_schedule_after_a_solve_is_linprogs(self, fig4_noirs_solve):
        res = fig4_noirs_solve[0]
        R = per_slot_rates(load_scenario(scenario_path("fig4_noirs")), res.trajectory)
        sched, value = optimal_schedule(R, res.trajectory.slot_duration)
        tau_ref, value_ref = linprog_max_min_schedule(R, res.trajectory.slot_duration)
        assert sched.fractions.tobytes() == tau_ref.tobytes()
        assert value == value_ref


class TestStackedLineSearch:
    """Stacked candidate projections take the step a one-at-a-time search takes."""

    @pytest.mark.parametrize("solve", ["fig4_noirs_solve", "fig4_surface_solve"])
    def test_every_bcd_state_matches_sequential_search(self, solve, request):
        *_, steps = request.getfixturevalue(solve)
        name = {"fig4_noirs_solve": "fig4_noirs", "fig4_surface_solve": "fig4"}[solve]
        max_step = load_scenario(scenario_path(name)).experiment.constraints.max_step
        for traj, sched, ev, out in steps:
            ref = sequential_line_search(
                traj.waypoints,
                sched.fractions,
                traj.slot_duration,
                max_step,
                ev.rates,
                ev.rate_gradient,
                _project_speed,
                tries=trajectory._MAX_BACKTRACKS,
            )
            if ref is None:
                assert out is traj
            else:
                assert out is not traj and out.waypoints.tobytes() == ref.tobytes()

    def test_a_failed_search_ends_at_a_2048th_of_a_step(self, fig4_noirs_solve):
        # 16 candidates, moving the fastest waypoint by 16 * max_step down to
        # max_step / 2048 before projection; fig4_noirs makes 9 such searches.
        *_, steps = fig4_noirs_solve
        scn = load_scenario(scenario_path("fig4_noirs"))
        max_step = scn.experiment.constraints.max_step
        failed = 0
        for traj, sched, ev, out in steps:
            if out is not traj:
                continue
            with mock.patch("uavirs.trajectory._project_speed", wraps=_project_speed) as ps:
                assert improve_trajectory(scn, traj, sched, _evaluator=ev) is traj
            stacks = [call.args[0] for call in ps.call_args_list]
            if not stacks:
                continue  # no line search was made
            failed += 1
            candidates = np.concatenate(stacks)
            assert len(candidates) == 16
            moves = np.linalg.norm((candidates - traj.waypoints)[:, :, :2], axis=-1)
            assert moves[0].max() == pytest.approx(16 * max_step, rel=1e-12)
            assert moves[-1].max() == pytest.approx(max_step / 2048, rel=1e-12)
        assert failed == 9


class TestMinTimeMission:
    def test_slack_target_returns_straight_line_time(self):
        scn = make_scenario([("sn1", (50.0, 0.0, 0.0))], rate_target=0.01)
        res = min_time_mission(scn)
        assert res.mission_time == pytest.approx(2.0)  # 100 m at 50 m/s
        assert res.converged
        assert res.achieved_min_rate >= 0.01

    def test_nodes_at_start_with_tiny_target(self):
        scn = make_scenario(
            [("sn1", (0.0, 2.0, 0.0)), ("sn2", (2.0, 0.0, 0.0))], rate_target=0.05
        )
        res = min_time_mission(scn)
        assert res.mission_time == pytest.approx(2.0)

    def test_invalid_target_rejected(self):
        constraints = make_scenario([("sn1", (50.0, 0.0, 0.0))]).experiment.constraints
        for target in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="rate_target must be > 0"):
                TrajectoryExperiment(constraints, target)

    def test_infeasible_target_reports_best(self):
        scn = make_scenario([("sn1", (50.0, 500.0, 0.0))], rate_target=5.0, max_time=4.0)
        res = min_time_mission(scn)
        assert not res.converged
        assert res.achieved_min_rate < 5.0
        assert res.achieved_min_rate == pytest.approx(
            max(p.achieved_min_rate for p in res.probes), rel=1e-9
        )

    def test_result_consistency(self):
        scn = make_scenario(
            [("sn1", (30.0, 25.0, 0.0)), ("sn2", (70.0, -20.0, 0.0))], rate_target=1.2
        )
        res = min_time_mission(scn)
        assert res.converged
        # per-node rates recompute from trajectory + schedule
        R = per_slot_rates(scn, res.trajectory)
        recompute = (res.schedule.fractions * R).sum(axis=1) * 0.1 / res.mission_time
        np.testing.assert_allclose(res.per_node_rates, recompute, rtol=1e-12)
        assert res.achieved_min_rate == pytest.approx(recompute.min(), rel=1e-12)
        assert res.achieved_min_rate >= 1.2 - 1e-6
        # speed bound on the returned trajectory
        cons = scn.experiment.constraints
        assert res.trajectory.is_speed_feasible(cons)

    def test_bisection_soundness(self):
        scn = make_scenario(
            [("sn1", (30.0, 25.0, 0.0)), ("sn2", (70.0, -20.0, 0.0))], rate_target=1.2
        )
        res = min_time_mission(scn)
        assert res.converged
        delta = scn.experiment.constraints.slot_duration
        predecessor = [
            p for p in res.probes if abs(p.mission_time - (res.mission_time - delta)) < 1e-9
        ]
        assert predecessor and not predecessor[0].feasible

    def test_monotone_inner_histories(self):
        scn = make_scenario(
            [("sn1", (30.0, 25.0, 0.0)), ("sn2", (70.0, -20.0, 0.0))], rate_target=1.2
        )
        res = min_time_mission(scn)
        for probe in res.probes:
            hist = probe.objective_history
            assert all(b >= a for a, b in zip(hist, hist[1:]))

    def test_surface_dominates_no_surface(self):
        surf = IrsSurface(
            id="irs",
            kind=SurfaceKind.TERRESTRIAL,
            position=Position3D(50.0, 60.0, 8.0),
            num_elements=300,
            facing_normal=(0.0, -1.0, 0.0),
            covered_node_ids=frozenset({"sn1"}),
        )
        sensors = [("sn1", (50.0, 65.0, 0.0)), ("sn2", (60.0, -30.0, 0.0))]
        boosted = make_scenario(sensors, surfaces=(surf,), rate_target=1.0)
        bare = boosted.without_irs()
        res_with = min_time_mission(boosted)
        res_without = min_time_mission(bare)
        assert res_with.converged and res_without.converged
        assert res_with.mission_time <= res_without.mission_time

    def test_same_answer_under_rigid_motion(self):
        # The target forces a detour: 2.3 s against 2.0 s for the straight flight.
        sensors = [("sn1", (30.0, 60.0, 0.0)), ("sn2", (70.0, -50.0, 0.0))]
        start, end = (0.0, 0.0, 30.0), (100.0, 0.0, 30.0)
        targets = dict(rate_target=4.0, max_time=10.0)
        base = min_time_mission(make_scenario(sensors, start=start, end=end, **targets))
        motions = {
            "mirror": lambda x, y: (x, -y),
            "quarter turn": lambda x, y: (-y, x),
            "shift": lambda x, y: (x + 137.0, y - 61.0),
        }
        for name, motion in motions.items():

            def move(p):
                return (*motion(p[0], p[1]), p[2])

            moved = [(nid, move(pos)) for nid, pos in sensors]
            res = min_time_mission(
                make_scenario(moved, start=move(start), end=move(end), **targets)
            )
            assert res.mission_time == pytest.approx(base.mission_time, rel=1e-6), name
            np.testing.assert_allclose(res.per_node_rates, base.per_node_rates, rtol=1e-6)

    def test_max_time_below_straight_flight_rejected(self):
        # the experiment checks slot_range(max_time) when built
        with pytest.raises(ValueError):
            make_scenario([("sn1", (50.0, 0.0, 0.0))], max_time=1.0)


class TestSpeedContract:
    """Every step is at most max_step + SPEED_SLACK, the straight line at m_min included."""

    def test_step_just_over_the_bound_takes_a_second_slot(self):
        # fig4_noirs cut to one 5.000000004 m step: 4e-9 m over its 5 m bound
        text = scenario_path("fig4_noirs").read_text()
        text = text.replace("end: [200.0, 0.0, 30.0]", "end: [55.000000004, 0.0, 30.0]")
        scn = loads_scenario(text.replace("rate_target: 1.0", "rate_target: 0.01"))
        cons = scn.experiment.constraints
        assert cons.slot_range(scn.experiment.max_time)[0] == 2
        res = min_time_mission(scn)
        assert res.converged and res.trajectory.num_slots == 2
        assert res.trajectory.is_speed_feasible(cons)
        assert per_slot_rates(scn, res.trajectory).shape == (8, 2)  # raises past the bound

    @given(
        steps=st.integers(1, 300),
        v_max=st.floats(1.0, 1000.0),
        over=st.floats(-3.0, 3.0),  # SPEED_SLACKs per step beyond max_step
        heading=st.floats(0.0, 2 * math.pi),
    )
    def test_straight_line_at_the_fewest_slots_meets_the_bound(self, steps, v_max, over, heading):
        distance = steps * (v_max * 0.1 + over * SPEED_SLACK)
        x, y = 50.0 + distance * math.cos(heading), -20.0 + distance * math.sin(heading)
        cons = TrajectoryConstraints(
            Position3D(50.0, -20.0, 30.0), Position3D(x, y, 30.0), 30.0, v_max, 0.1
        )
        m_min, _ = cons.slot_range(1e6)
        assert straight_line_trajectory(cons, m_min).is_speed_feasible(cons)
        # one slot fewer would need a step beyond the bound
        assert m_min == 1 or cons.start.distance_to(cons.end) / (m_min - 1) > cons.max_step


class TestTypes:
    def test_constraints_validation(self):
        with pytest.raises(ValueError):
            TrajectoryConstraints(
                Position3D(0, 0, 30.0), Position3D(1, 0, 20.0), 30.0, 50.0, 0.1
            )
        with pytest.raises(ValueError):
            TrajectoryConstraints(
                Position3D(0, 0, 30.0), Position3D(1, 0, 30.0), 30.0, 0.0, 0.1
            )

    @pytest.mark.parametrize(
        "v_max, slot", [(1e308, 0.1), (1e160, 0.1), (50.0, 1e300), (1e-170, 0.1)]
    )
    def test_step_whose_square_leaves_float_range_rejected(self, v_max, slot):
        # The speed projection squares max_step and multiplies four lengths;
        # the largest accepted step, 1e70 m, keeps those far inside float range.
        start, end = Position3D(0, 0, 30.0), Position3D(1, 0, 30.0)
        with pytest.raises(ValueError, match="v_max \\* slot_duration"):
            TrajectoryConstraints(start, end, 30.0, v_max, slot)
        largest = TrajectoryConstraints(start, end, 30.0, _MAX_STEP_LIMIT, 1.0)
        assert largest.max_step == _MAX_STEP_LIMIT
        with pytest.raises(ValueError, match="v_max \\* slot_duration"):
            TrajectoryConstraints(start, end, 30.0, math.nextafter(_MAX_STEP_LIMIT, math.inf), 1.0)

    def test_trajectory_shape_validation(self):
        with pytest.raises(ValueError):
            Trajectory(np.zeros((1, 3)), 0.1)
        with pytest.raises(ValueError):
            Trajectory(np.zeros((4, 2)), 0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_trajectory_rejects_non_finite_waypoints(self, bad):
        waypoints = np.array([[0.0, 0.0, 30.0], [1.0, 0.0, 30.0], [2.0, 0.0, 30.0]])
        waypoints[1, 0] = bad
        with pytest.raises(ValueError, match="waypoints must be finite"):
            Trajectory(waypoints, 0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -0.1])
    def test_trajectory_rejects_bad_slot_duration(self, bad):
        with pytest.raises(ValueError, match="slot_duration must be finite and > 0"):
            Trajectory(np.zeros((2, 3)), bad)

    def test_mission_time(self):
        traj = straight_line_trajectory(
            TrajectoryConstraints(
                Position3D(0, 0, 30.0), Position3D(100, 0, 30.0), 30.0, 50.0, 0.1
            ),
            25,
        )
        assert traj.mission_time == pytest.approx(2.5)
        assert traj.num_slots == 25
