import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.optimize import linprog

from uavirs.channel import (
    LinkRuleSet,
    LinkStateRule,
    LinkState,
    Node,
    NodeRole,
    PathLossModel,
    Position3D,
    RadioParams,
)
from uavirs.irs import IrsSurface, SurfaceKind
from uavirs.scenario import Scenario, TrajectoryExperiment, load_scenario, scenario_path
from uavirs.trajectory import (
    SPEED_SLACK,
    Schedule,
    Trajectory,
    TrajectoryConstraints,
    _project_speed,
    _RateEvaluator,
    improve_trajectory,
    min_time_mission,
    optimal_schedule,
    per_slot_rates,
    straight_line_trajectory,
)

from oracles import dykstra_speed_projection, sequential_line_search

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
        # chain where it stands (the straight line); the others go on as
        # they would alone.
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

        def fail_once(band):
            calls.append(band.shape)
            if len(calls) == 1:  # the first column of chain 1's block
                return band, 1 + band.shape[1] // 3
            return dpbtrf(band)

        with mock.patch("uavirs.trajectory.dpbtrf", side_effect=fail_once):
            out = _project_speed(paths, max_step)
        assert calls[1][1] == 2 * calls[0][1] // 3  # the stack shrank to two chains
        np.testing.assert_array_equal(out[1], line)
        assert out[0].tobytes() == alone[0].tobytes()
        assert out[2].tobytes() == alone[2].tobytes()

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
    """Solve a shipped scenario, counting LPs and projections and recording every step.

    Each step is (input trajectory, schedule, rate evaluator, output trajectory).
    """
    steps = []

    def step(scenario, trajectory, schedule, *, _evaluator):
        out = improve_trajectory(scenario, trajectory, schedule, _evaluator=_evaluator)
        steps.append((trajectory, schedule, _evaluator, out))
        return out

    scn = load_scenario(scenario_path(name))
    with mock.patch("uavirs.trajectory.linprog", wraps=linprog) as lp, mock.patch(
        "uavirs.trajectory._project_speed", wraps=_project_speed
    ) as ps, mock.patch("uavirs.trajectory.improve_trajectory", side_effect=step):
        res = min_time_mission(scn, **overrides)
    return res, lp.call_count, ps.call_count, steps


@pytest.fixture(scope="module")
def fig4_noirs_solve():
    return solve_recorded("fig4_noirs")


@pytest.fixture(scope="module")
def fig4_surface_solve():
    """fig4 at rate_target 1.1: the with-surface mission the optimizer must shape."""
    return solve_recorded("fig4", rate_target=1.1)


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

    def test_fig4_surface_mission(self, fig4_surface_solve):
        res, lp_calls, _, steps = fig4_surface_solve
        assert res.converged
        assert res.mission_time == pytest.approx(4.8)
        assert res.achieved_min_rate >= 1.1
        assert (lp_calls, res.iterations) == (20, 19)
        assert accepted_and_rejected(steps) == (10, 9)


class TestStackedLineSearch:
    """Stacked candidate projections take the step a one-at-a-time search takes."""

    @pytest.mark.parametrize("solve", ["fig4_noirs_solve", "fig4_surface_solve"])
    def test_every_bcd_state_matches_sequential_search(self, solve, request):
        *_, steps = request.getfixturevalue(solve)
        for traj, sched, ev, out in steps:
            ref = sequential_line_search(
                traj.waypoints,
                sched.fractions,
                traj.slot_duration,
                ev.scenario.experiment.constraints.max_step,
                ev.rates,
                ev.rate_gradient,
                _project_speed,
            )
            if ref is None:
                assert out is traj
            else:
                assert out is not traj and out.waypoints.tobytes() == ref.tobytes()


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
        scn = make_scenario([("sn1", (50.0, 0.0, 0.0))])
        with pytest.raises(ValueError):
            min_time_mission(scn, rate_target=0.0)

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
        assert res.trajectory.max_segment_length() <= cons.max_step + 1e-9

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
        scn = make_scenario([("sn1", (50.0, 0.0, 0.0))], max_time=1.0)
        with pytest.raises(ValueError):
            min_time_mission(scn)


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

    def test_trajectory_shape_validation(self):
        with pytest.raises(ValueError):
            Trajectory(np.zeros((1, 3)), 0.1)
        with pytest.raises(ValueError):
            Trajectory(np.zeros((4, 2)), 0.1)

    def test_mission_time(self):
        traj = straight_line_trajectory(
            TrajectoryConstraints(
                Position3D(0, 0, 30.0), Position3D(100, 0, 30.0), 30.0, 50.0, 0.1
            ),
            25,
        )
        assert traj.mission_time == pytest.approx(2.5)
        assert traj.num_slots == 25
