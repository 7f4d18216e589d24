"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The expensive minimum-time missions are computed once and shared.
"""

import json
import math
import time

import numpy as np
import pytest

from uavirs.channel import (
    LinkRuleSet,
    LinkState,
    LinkStateRule,
    Node,
    NodeRole,
    PathLossModel,
    Position3D,
    RadioParams,
    path_gain,
)
from uavirs.cli import EXIT_OK, main
from uavirs.deployment import (
    DeploymentPlan,
    DeploymentStrategy,
    evaluate_strategy,
    user_rate,
)
from uavirs.irs import IrsSurface, SurfaceKind
from uavirs.scenario import DeploymentExperiment, Scenario, load_scenario, scenario_path
from uavirs.trajectory import min_time_mission, optimal_schedule

from oracles import deployment_user_rate, grid_maxmin_schedule

RADIO = RadioParams()


def verdict(num, ok, detail):
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} -- {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def fig4_missions():
    scenario = load_scenario(scenario_path("fig4"))
    started = time.perf_counter()
    with_irs = min_time_mission(scenario)
    without_irs = min_time_mission(scenario.without_irs())
    wall = time.perf_counter() - started
    return scenario, with_irs, without_irs, wall


@pytest.fixture(scope="module")
def fig5_scenario():
    return load_scenario(scenario_path("fig5"))


def test_criterion_1_mission_time_ordering(fig4_missions):
    """Without the surface the mission takes >= 1.5x longer, within budget."""
    _, with_irs, without_irs, wall = fig4_missions
    ratio = without_irs.mission_time / with_irs.mission_time
    ok = (
        with_irs.converged
        and without_irs.converged
        and without_irs.mission_time > with_irs.mission_time
        and ratio >= 1.5
        and wall < 60.0
    )
    verdict(
        1,
        ok,
        f"mission_time {with_irs.mission_time:.1f} s with surface vs "
        f"{without_irs.mission_time:.1f} s without (ratio {ratio:.2f}, "
        f"solve wall {wall:.1f} s)",
    )


def test_criterion_2_detour_shape(fig4_missions):
    """Covered sensors are skipped; some uncovered sensor is approached as closely."""
    scenario, with_irs, without_irs, _ = fig4_missions
    covered, uncovered = [], []
    for node in scenario.sensor_nodes():
        d_with = with_irs.trajectory.closest_approach(node.position)
        d_without = without_irs.trajectory.closest_approach(node.position)
        (covered if scenario.covering_surface(node.id) else uncovered).append(
            (node.id, d_with, d_without)
        )
    covered_ok = all(dw > dwo for _, dw, dwo in covered)
    uncovered_ok = any(dw <= dwo + 5.0 for _, dw, dwo in uncovered)
    detail = (
        "covered closest-approach (with/without): "
        + ", ".join(f"{nid} {dw:.0f}/{dwo:.0f}" for nid, dw, dwo in covered)
        + "; uncovered: "
        + ", ".join(f"{nid} {dw:.0f}/{dwo:.0f}" for nid, dw, dwo in uncovered)
    )
    verdict(2, covered_ok and uncovered_ok, detail)


def _independent_fig5_enumeration(scenario):
    """Re-enumerates the fig5 element split with test-local math only."""
    bs = (0.0, 0.0, 25.0)
    u1, u2 = (80.0, 0.0, 0.0), (120.0, 0.0, 0.0)
    tirs = (120.0, 10.0, 5.0)
    uirs_xy = (10.0, 0.0)
    budget = scenario.experiment.n_budget
    radio = scenario.radio

    def aerial_rate(elements, altitude, user):
        return deployment_user_rate(
            bs, user, (uirs_xy[0], uirs_xy[1], altitude), elements, 2,
            2.2, 2.2, radio.tx_power, radio.noise_power, radio.ref_path_gain_db,
        )

    def tirs_rate(elements, user):
        return deployment_user_rate(
            bs, user, tirs, elements, 2,
            2.2, 2.2, radio.tx_power, radio.noise_power, radio.ref_path_gain_db,
        )

    best_n1, best_min = None, -1.0
    for n1 in range(budget + 1):
        n2 = budget - n1
        r1 = aerial_rate(n1, 30.0, u1) if n1 > 0 else 0.0
        # user 2 picks the better surface, ties to terrestrial; joining the
        # aerial surface raises the altitude to its 50 m LoS threshold
        r2_t = tirs_rate(n2, u2)
        r2_a = aerial_rate(n1, 50.0, u2) if n1 > 0 else 0.0
        if r2_a > r2_t:
            rates = (aerial_rate(n1, 50.0, u1) if n1 > 0 else 0.0, r2_a)
        else:
            rates = (r1, r2_t)
        min_rate = min(rates)
        if min_rate > best_min:
            best_n1, best_min = n1, min_rate
    return best_n1, best_min


def test_criterion_3_deployment_ordering(fig5_scenario):
    """Hybrid > BS-side >= user-side, anchored altitudes, sound argmax."""
    user = evaluate_strategy(fig5_scenario, DeploymentStrategy.USER_SIDE)
    bs = evaluate_strategy(fig5_scenario, DeploymentStrategy.BS_SIDE)
    hybrid = evaluate_strategy(fig5_scenario, DeploymentStrategy.HYBRID)
    indep_n1, indep_min = _independent_fig5_enumeration(fig5_scenario)
    ok = (
        hybrid.min_rate > bs.min_rate + 1e-6
        and bs.min_rate >= user.min_rate
        and hybrid.plan.uirs_altitude == 30.0
        and bs.plan.uirs_altitude == 50.0
        and hybrid.plan.aerial_elements == indep_n1
        and hybrid.min_rate == pytest.approx(indep_min, rel=1e-9)
    )
    verdict(
        3,
        ok,
        f"min-rate hybrid {hybrid.min_rate:.4f} > bs {bs.min_rate:.4f} >= "
        f"user {user.min_rate:.4f}; altitudes {hybrid.plan.uirs_altitude:.0f}/"
        f"{bs.plan.uirs_altitude:.0f} m; split ({hybrid.plan.aerial_elements}, "
        f"{hybrid.plan.terrestrial_elements}) equals the independent argmax",
    )


def _scaling_scenario(num_users):
    users = [Node("u1", NodeRole.USER, Position3D(5.0, 0.0, 0.0))]
    rules = [LinkStateRule(("uirs", "u1")), LinkStateRule(("bs", "u1"), math.inf, LinkState.BLOCKED)]
    if num_users == 2:
        users.append(Node("u2", NodeRole.USER, Position3D(-5.0, 0.0, 0.0)))
        rules += [
            LinkStateRule(("uirs", "u2")),
            LinkStateRule(("bs", "u2"), math.inf, LinkState.BLOCKED),
        ]
    surfaces = (
        IrsSurface(id="uirs", kind=SurfaceKind.AERIAL_MOUNTED, position=Position3D(0.0, 0.0, 20.0)),
        IrsSurface(
            id="tirs",
            kind=SurfaceKind.TERRESTRIAL,
            position=Position3D(0.0, 50.0, 5.0),
            facing_normal=(0.0, 1.0, 0.0),
        ),
    )
    return Scenario(
        name=f"scaling-{num_users}",
        nodes=tuple([Node("bs", NodeRole.BS, Position3D(0.0, 0.0, 5.0))] + users),
        surfaces=surfaces,
        radio=RadioParams(tx_power=1.0),
        path_loss_classes={"los": PathLossModel(2.2), "nlos": PathLossModel(3.5)},
        link_rules=LinkRuleSet(rules),
        experiment=DeploymentExperiment(600),
    )


def test_criterion_4_element_scaling():
    """Doubling a blocked-direct user's elements adds 2/K bps/Hz at high SNR."""
    worst_gap = 0.0
    floor_snr = math.inf
    for num_users in (1, 2):
        scenario = _scaling_scenario(num_users)
        assignment = tuple((u.id, "uirs") for u in scenario.user_nodes())

        def rate(elements):
            plan = DeploymentPlan(elements, 0, 20.0, assignment)
            return user_rate(scenario, plan, "u1")

        for n in (150, 300):
            floor_snr = min(floor_snr, 2.0 ** (num_users * rate(n)) - 1.0)
            gap = abs((rate(2 * n) - rate(n)) - 2.0 / num_users)
            worst_gap = max(worst_gap, gap)
    ok = floor_snr > 1e3 and worst_gap < 0.01
    verdict(
        4,
        ok,
        f"rate(2N)-rate(N) within {worst_gap:.2e} of 2/K for K in (1,2), "
        f"N in (150,300); lowest SNR {floor_snr:.0f}",
    )


def test_criterion_5_schedule_oracle():
    """LP max-min equals grid brute force on 1000 deterministic instances."""
    rng = np.random.default_rng(5)
    grid = np.linspace(0.0, 4.0, 17)
    delta = 1.0
    violations = 0
    for i in range(1000):
        k = 1 + (i % 2)
        m = 1 + ((i // 2) % 3)
        R = grid[rng.integers(0, grid.size, size=(k, m))]
        _, lp_value = optimal_schedule(R, delta)
        grid_value = grid_maxmin_schedule(R, delta, step=0.05)
        resolution = 0.05 * delta * R.sum(axis=1).max() + 1e-9
        if not (grid_value <= lp_value + 1e-9 and lp_value - grid_value <= resolution):
            violations += 1
    verdict(5, violations == 0, f"{violations} violations over 1000 instances")


def test_criterion_6_optimizer_contracts(fig4_missions):
    """Monotone inner descent, speed bound, sound bisection bookkeeping."""
    scenario, with_irs, without_irs, _ = fig4_missions
    constraints = scenario.experiment.constraints
    delta = constraints.slot_duration
    monotone_violations = 0
    for result in (with_irs, without_irs):
        for probe in result.probes:
            hist = probe.objective_history
            monotone_violations += sum(1 for a, b in zip(hist, hist[1:]) if b < a)
    speed_ok = all(r.trajectory.is_speed_feasible(constraints) for r in (with_irs, without_irs))
    sound = True
    for result in (with_irs, without_irs):
        if result.converged:
            target_time = result.mission_time - delta
            predecessors = [
                p for p in result.probes if abs(p.mission_time - target_time) < 1e-9
            ]
            sound &= bool(predecessors) and not predecessors[0].feasible
    ok = monotone_violations == 0 and speed_ok and sound
    verdict(
        6,
        ok,
        f"{monotone_violations} monotonicity violations; speed bound "
        f"{'held' if speed_ok else 'VIOLATED'}; predecessor durations "
        f"{'evaluated infeasible' if sound else 'UNSOUND'}",
    )


def test_criterion_7_channel_unit_suite():
    """Exact path-gain examples plus 1e4-sample ordering properties."""
    examples = [
        (1.0, 2.6, 1e-3),
        (10.0, 2.0, 1e-5),
        (100.0, 2.2, 3.9810717055349725e-08),  # frozen 40-digit evaluation
    ]
    exact = all(
        abs(path_gain(d, PathLossModel(a), RADIO) - expected) <= 1e-12 * expected
        for d, a, expected in examples
    )
    rng = np.random.default_rng(7)
    n = 10_000
    d_lo = rng.uniform(1.0, 1e4, size=n)
    d_hi = d_lo + rng.uniform(1e-6, 1e4, size=n)
    alpha = rng.uniform(1.0, 4.0, size=n)
    mono_violations = 0
    for d1, d2, a in zip(d_lo, d_hi, alpha):
        model = PathLossModel(a)
        if not path_gain(d1, model, RADIO) > path_gain(d2, model, RADIO):
            mono_violations += 1
    d = rng.uniform(1.0 + 1e-9, 1e4, size=n)
    a_lo = rng.uniform(1.0, 4.0, size=n)
    a_hi = a_lo + rng.uniform(1e-6, 1.0, size=n)
    order_violations = 0
    for dist, a1, a2 in zip(d, a_lo, a_hi):
        if not path_gain(dist, PathLossModel(a1), RADIO) > path_gain(
            dist, PathLossModel(a2), RADIO
        ):
            order_violations += 1
    ok = exact and mono_violations == 0 and order_violations == 0
    verdict(
        7,
        ok,
        f"examples exact to 12 digits: {exact}; {mono_violations} monotonicity "
        f"and {order_violations} exponent-ordering violations over {n} samples",
    )


def test_criterion_8_cli_determinism(tmp_path):
    """Repeated CLI runs emit byte-identical result tables."""
    outputs = {}
    for run in ("a", "b"):
        out = tmp_path / f"traj_{run}"
        code = main(["trajopt", str(scenario_path("fig4")), "--out", str(out), "--quiet"])
        assert code == EXIT_OK
        outputs[run] = (
            (out / "fig4_trajectory.csv").read_bytes(),
            _stable_summary(out / "fig4_summary.json"),
        )
    traj_identical = outputs["a"] == outputs["b"]
    outputs = {}
    for run in ("a", "b"):
        out = tmp_path / f"dep_{run}"
        code = main(["deploy", str(scenario_path("fig5")), "--out", str(out), "--quiet"])
        assert code == EXIT_OK
        outputs[run] = (
            (out / "fig5_deployment.csv").read_bytes(),
            _stable_summary(out / "fig5_summary.json"),
        )
    deploy_identical = outputs["a"] == outputs["b"]
    ok = traj_identical and deploy_identical
    verdict(
        8,
        ok,
        f"trajectory tables identical: {traj_identical}; deployment tables "
        f"identical: {deploy_identical}",
    )


def _stable_summary(path):
    payload = json.loads(path.read_text())
    payload.pop("wall_time_s", None)  # the only field allowed to vary
    return json.dumps(payload, sort_keys=True)
