import math
import random
from collections import Counter
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from uavirs.channel import (
    LinkRuleSet,
    LinkState,
    LinkStateRule,
    Node,
    NodeRole,
    PathLossModel,
    Position3D,
    RadioParams,
)
from uavirs import channel
from uavirs.cli import EXIT_OK, main
from uavirs.deployment import (
    DeploymentPlan,
    DeploymentResult,
    DeploymentStrategy,
    _HybridRule,
    allocation_sweep,
    evaluate_strategy,
    user_rate,
)
from uavirs.errors import ConfigurationError, FieldError
from uavirs.irs import IrsSurface, SurfaceKind
from uavirs.scenario import DeploymentExperiment, Scenario, load_scenario, scenario_path

from oracles import brute_force_deployment, brute_force_split, deployment_user_rate, leg_amplitude


def make_deploy_scenario(
    users,
    uirs_xy=(10.0, 0.0),
    uirs_alt=50.0,
    tirs=None,
    rules=(),
    bs=(0.0, 0.0, 25.0),
    radio=None,
    n_budget=600,
):
    if tirs is None:
        tirs = IrsSurface(
            id="tirs",
            kind=SurfaceKind.TERRESTRIAL,
            position=Position3D(120.0, 10.0, 5.0),
            facing_normal=(0.0, -1.0, 0.0),
            coverage_radius=20.0,
        )
    nodes = [Node("bs", NodeRole.BS, Position3D(*bs))]
    nodes += [Node(uid, NodeRole.USER, Position3D(*pos)) for uid, pos in users]
    uirs = IrsSurface(
        id="uirs",
        kind=SurfaceKind.AERIAL_MOUNTED,
        position=Position3D(uirs_xy[0], uirs_xy[1], uirs_alt),
    )
    return Scenario(
        name="test-deploy",
        nodes=tuple(nodes),
        surfaces=(uirs, tirs),
        radio=radio or RadioParams(),
        path_loss_classes={"los": PathLossModel(2.2), "nlos": PathLossModel(3.5)},
        link_rules=LinkRuleSet(rules),
        experiment=DeploymentExperiment(n_budget),
    )


def with_budget(scenario, n_budget):
    return scenario.with_experiment(replace(scenario.experiment, n_budget=n_budget))


def blocked(a, b):
    return LinkStateRule((a, b), math.inf, LinkState.BLOCKED)


def oracle_rate(scenario, direct_exponent=None):
    """rate(uid, surface, elements, altitude) for the oracles' brute forces.

    Recomputed from the raw geometry. Every surface leg is LoS at the
    altitudes the rule asks about; the direct link is blocked unless
    direct_exponent is given.
    """

    def xyz(position):
        return (position.x, position.y, position.z)

    bs = xyz(scenario.bs_node().position)
    users = {u.id: xyz(u.position) for u in scenario.user_nodes()}
    uirs, tirs = scenario.surfaces
    radio = scenario.radio
    los = scenario.path_loss("los").exponent

    def rate(uid, surface, elements, altitude):
        direct = 0.0
        if direct_exponent is not None:
            direct = leg_amplitude(bs, users[uid], direct_exponent, radio.ref_path_gain_db)
        if surface == "aerial":
            pos = (uirs.position.x, uirs.position.y, altitude)
        else:  # terrestrial, or None with 0 elements: the direct link alone
            pos = xyz(tirs.position)
        return deployment_user_rate(
            bs, users[uid], pos, elements, len(users), los, los,
            radio.tx_power, radio.noise_power, radio.ref_path_gain_db,
            direct_amplitude=direct,
        )

    return rate


SURFACE_NAMES = {"uirs": "aerial", "tirs": "terrestrial", None: None}
# (user id, covered by the terrestrial surface, aerial LoS threshold) on fig5
FIG5_USERS = (("user1", False, 30.0), ("user2", True, 50.0))


@pytest.fixture(scope="module")
def fig5():
    return load_scenario(scenario_path("fig5"))


class TestUserRate:
    def test_unserved_user_rate_is_zero(self, fig5):
        plan = DeploymentPlan(0, 600, 0.0, (("user1", None), ("user2", "tirs")))
        assert user_rate(fig5, plan, "user1") == 0.0

    def test_unknown_user_rejected(self, fig5):
        plan = DeploymentPlan(0, 600, 0.0, (("user1", None), ("user2", "tirs")))
        with pytest.raises(ValueError):
            user_rate(fig5, plan, "ghost")

    def test_matches_independent_calculator(self, fig5):
        plan = DeploymentPlan(300, 300, 50.0, (("user1", "uirs"), ("user2", "tirs")))
        via_tirs = user_rate(fig5, plan, "user2")
        expected = deployment_user_rate(
            bs_pos=(0.0, 0.0, 25.0),
            user_pos=(120.0, 0.0, 0.0),
            surface_pos=(120.0, 10.0, 5.0),
            elements=300,
            num_users=2,
            exponent_up=2.2,
            exponent_down=2.2,
            tx_power=0.1,
            noise_power=1e-11,
            ref_gain_db=-30.0,
        )
        assert via_tirs == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("altitude", [30.0, 37.5, 50.0, 80.0])  # 37.5 m is no rule level
    def test_aerial_surface_flies_at_the_plan_altitude(self, fig5, altitude):
        plan = DeploymentPlan(300, 300, altitude, (("user1", "uirs"), ("user2", "tirs")))
        expected = deployment_user_rate(
            bs_pos=(0.0, 0.0, 25.0),
            user_pos=(80.0, 0.0, 0.0),
            surface_pos=(10.0, 0.0, altitude),
            elements=300,
            num_users=2,
            exponent_up=2.2,
            exponent_down=2.2,
            tx_power=0.1,
            noise_power=1e-11,
            ref_gain_db=-30.0,
        )
        assert user_rate(fig5, plan, "user1") == pytest.approx(expected, rel=1e-12)

    def test_terrestrial_surface_ignores_the_plan_altitude(self, fig5):
        low, high = (
            DeploymentPlan(300, 300, altitude, (("user1", None), ("user2", "tirs")))
            for altitude in (0.0, 50.0)
        )
        assert user_rate(fig5, low, "user2") == user_rate(fig5, high, "user2")

    def test_terrestrial_beats_aerial_when_product_distance_smaller(self, fig5):
        # user 2 at equal element counts: 10 m terrestrial leg vs a 50 m-high
        # aerial relay; the independent calculator confirms both values
        plan_terr = DeploymentPlan(300, 300, 50.0, (("user1", "uirs"), ("user2", "tirs")))
        plan_air = DeploymentPlan(300, 300, 50.0, (("user1", "uirs"), ("user2", "uirs")))
        via_tirs = user_rate(fig5, plan_terr, "user2")
        via_uirs = user_rate(fig5, plan_air, "user2")
        expected_uirs = deployment_user_rate(
            bs_pos=(0.0, 0.0, 25.0),
            user_pos=(120.0, 0.0, 0.0),
            surface_pos=(10.0, 0.0, 50.0),
            elements=300,
            num_users=2,
            exponent_up=2.2,
            exponent_down=2.2,
            tx_power=0.1,
            noise_power=1e-11,
            ref_gain_db=-30.0,
        )
        assert via_uirs == pytest.approx(expected_uirs, rel=1e-12)
        assert via_tirs > via_uirs

    def test_aerial_assignment_requires_los(self, fig5):
        plan = DeploymentPlan(600, 0, 30.0, (("user1", "uirs"), ("user2", "uirs")))
        with pytest.raises(ConfigurationError):
            user_rate(fig5, plan, "user2")  # user2 needs 50 m for LoS

    def test_terrestrial_assignment_requires_coverage(self, fig5):
        plan = DeploymentPlan(0, 600, 0.0, (("user1", "tirs"), ("user2", "tirs")))
        with pytest.raises(ConfigurationError):
            user_rate(fig5, plan, "user1")

    @pytest.mark.parametrize("n", [150, 300])
    @pytest.mark.parametrize("num_users", [1, 2])
    def test_doubling_elements_high_snr(self, n, num_users):
        # blocked direct, SNR(N) > 1e3: rate(2N) - rate(N) = 2/K within 0.01
        users = [("u1", (5.0, 0.0, 0.0))]
        rules = [LinkStateRule(("uirs", "u1")), blocked("bs", "u1")]
        if num_users == 2:
            users.append(("u2", (-5.0, 0.0, 0.0)))
            rules += [LinkStateRule(("uirs", "u2")), blocked("bs", "u2")]
        tirs = IrsSurface(
            id="tirs",
            kind=SurfaceKind.TERRESTRIAL,
            position=Position3D(0.0, 50.0, 5.0),
            facing_normal=(0.0, 1.0, 0.0),
        )
        scn = make_deploy_scenario(
            users,
            uirs_xy=(0.0, 0.0),
            uirs_alt=20.0,
            tirs=tirs,
            rules=rules,
            bs=(0.0, 0.0, 5.0),
            radio=RadioParams(tx_power=1.0),
        )

        def rate(elements):
            plan = DeploymentPlan(
                elements, 0, 20.0, tuple((u, "uirs") for u, _ in users)
            )
            return user_rate(scn, plan, "u1")

        snr_floor = (2.0 ** (num_users * rate(n))) - 1.0
        assert snr_floor > 1e3
        assert abs((rate(2 * n) - rate(n)) - 2.0 / num_users) < 0.01

    def test_prelog_consistency_with_link_rate(self, fig5):
        # K * rate must equal the channel kernel's rate of the reflected
        # amplitude, bit for bit: the direct link is blocked, both legs LoS
        plan = DeploymentPlan(325, 275, 30.0, (("user1", "uirs"), ("user2", "tirs")))
        rate = user_rate(fig5, plan, "user1")
        d_up = Position3D(0.0, 0.0, 25.0).distance_to(Position3D(10.0, 0.0, 30.0))
        d_down = Position3D(10.0, 0.0, 30.0).distance_to(Position3D(80.0, 0.0, 0.0))
        up = channel.leg_amplitude(d_up, PathLossModel(2.2), fig5.radio)
        down = channel.leg_amplitude(d_down, PathLossModel(2.2), fig5.radio)
        assert 2.0 * rate == channel.link_rate(325 * up * down, fig5.radio)


class TestEvaluateStrategy:
    def test_user_side_leaves_uncovered_user_at_zero(self, fig5):
        res = evaluate_strategy(fig5, DeploymentStrategy.USER_SIDE)
        rates = dict(zip(res.user_ids, res.per_user_rates))
        assert rates["user1"] == 0.0
        assert rates["user2"] > 0.0
        assert res.min_rate == 0.0
        assert res.plan.aerial_elements == 0
        assert res.plan.terrestrial_elements == 600

    def test_bs_side_altitude_covers_both_users(self, fig5):
        res = evaluate_strategy(fig5, DeploymentStrategy.BS_SIDE)
        assert res.plan.uirs_altitude == 50.0
        assert res.plan.aerial_elements == 600
        assert all(r > 0 for r in res.per_user_rates)

    def test_hybrid_lowers_altitude_to_30(self, fig5):
        res = evaluate_strategy(fig5, DeploymentStrategy.HYBRID)
        assert res.plan.uirs_altitude == 30.0
        assignment = dict(res.plan.assignment)
        assert assignment["user1"] == "uirs"
        assert assignment["user2"] == "tirs"

    def test_strategy_ordering(self, fig5):
        user = evaluate_strategy(fig5, DeploymentStrategy.USER_SIDE)
        bs = evaluate_strategy(fig5, DeploymentStrategy.BS_SIDE)
        hybrid = evaluate_strategy(fig5, DeploymentStrategy.HYBRID)
        assert hybrid.min_rate > bs.min_rate + 1e-6
        assert bs.min_rate >= user.min_rate

    def test_unknown_strategy_rejected(self, fig5):
        with pytest.raises(ValueError):
            evaluate_strategy(fig5, "sideways")


def symmetric_scenario(n_budget):
    """User 1 reachable only by the aerial surface, user 2 only by the
    terrestrial one, with mirrored leg lengths: the best split is N/2."""
    tirs = IrsSurface(
        id="tirs",
        kind=SurfaceKind.TERRESTRIAL,
        position=Position3D(-10.0, 0.0, 20.0),
        facing_normal=(-1.0, 0.0, 0.0),
        coverage_radius=35.0,
    )
    return make_deploy_scenario(
        [("u1", (30.0, 0.0, 0.0)), ("u2", (-30.0, 0.0, 0.0))],
        uirs_xy=(10.0, 0.0),
        uirs_alt=20.0,
        tirs=tirs,
        rules=[
            LinkStateRule(("uirs", "u1"), 20.0),
            LinkStateRule(("uirs", "u2"), math.inf, LinkState.NLOS),
            blocked("bs", "u1"),
            blocked("bs", "u2"),
        ],
        bs=(0.0, 0.0, 0.0),
        n_budget=n_budget,
    )


class TestExhaustiveAllocate:
    def test_terrestrial_useless_when_covering_nobody(self):
        tirs = IrsSurface(
            id="tirs",
            kind=SurfaceKind.TERRESTRIAL,
            position=Position3D(0.0, 50.0, 5.0),
            facing_normal=(0.0, 1.0, 0.0),  # faces away from every user
        )
        scn = make_deploy_scenario(
            [("u1", (30.0, 0.0, 0.0)), ("u2", (-30.0, 0.0, 0.0))],
            uirs_xy=(0.0, 0.0),
            uirs_alt=20.0,
            tirs=tirs,
            rules=[
                LinkStateRule(("uirs", "u1"), 20.0),
                LinkStateRule(("uirs", "u2"), 20.0),
                blocked("bs", "u1"),
                blocked("bs", "u2"),
            ],
            bs=(0.0, 0.0, 0.0),
            n_budget=40,
        )
        res = evaluate_strategy(scn, DeploymentStrategy.HYBRID)
        assert res.plan.aerial_elements == 40
        assert res.plan.terrestrial_elements == 0
        sweep = allocation_sweep(scn)
        assert sweep[0].plan.assignment == (("u1", None), ("u2", None))
        assert sweep[0].per_user_rates == (0.0, 0.0)
        for res in sweep[1:]:
            assert res.plan.assignment == (("u1", "uirs"), ("u2", "uirs"))
            assert res.plan.uirs_altitude == 20.0

    def test_symmetric_geometry_splits_evenly(self):
        res = evaluate_strategy(symmetric_scenario(10), DeploymentStrategy.HYBRID)
        assert res.plan.aerial_elements == 5
        assert res.plan.terrestrial_elements == 5

    def test_argmax_soundness_by_reenumeration(self, fig5):
        best = evaluate_strategy(fig5, DeploymentStrategy.HYBRID)
        sweep = allocation_sweep(fig5)
        assert len(sweep) == 601
        assert best.min_rate == max(r.min_rate for r in sweep)
        firsts = [r for r in sweep if r.min_rate == best.min_rate]
        assert firsts[0].plan.aerial_elements == best.plan.aerial_elements

    def test_min_rate_unimodal_within_fixed_assignment(self, fig5):
        # min(non-decreasing, non-increasing) is unimodal while the serving
        # assignment stays put; the rule's reassignment at extreme splits
        # starts a new segment (it must, or the hybrid search space would not
        # contain the BS-side candidate).
        sweep = allocation_sweep(fig5)
        segments = []
        for res in sweep:
            key = (res.plan.assignment, res.plan.uirs_altitude)
            if not segments or segments[-1][0] != key:
                segments.append((key, []))
            segments[-1][1].append(res.min_rate)
        assert len(segments) <= 3
        for _, values in segments:
            peak = values.index(max(values))
            rising = values[: peak + 1]
            falling = values[peak:]
            assert all(b >= a - 1e-12 for a, b in zip(rising, rising[1:]))
            assert all(b <= a + 1e-12 for a, b in zip(falling, falling[1:]))

    def test_rates_have_no_cross_terms(self, fig5):
        # a user's rate depends only on its own serving surface's elements
        def r1(n1, n2):
            plan = DeploymentPlan(n1, n2, 30.0, (("user1", "uirs"), ("user2", "tirs")))
            return user_rate(fig5, plan, "user1")

        assert r1(300, 0) == r1(300, 300) == r1(300, 600)

    def test_hybrid_dominates_endpoint_strategies(self, fig5):
        sweep = allocation_sweep(fig5)
        hybrid = evaluate_strategy(fig5, DeploymentStrategy.HYBRID)
        assert hybrid.min_rate >= sweep[0].min_rate  # user-side candidate
        assert hybrid.min_rate >= sweep[-1].min_rate  # bs-side candidate

    def test_altitude_monotonicity(self, fig5):
        # raising the aerial surface above the LoS threshold only hurts
        def rate_at(alt):
            plan = DeploymentPlan(600, 0, alt, (("user1", "uirs"), ("user2", None)))
            return user_rate(fig5, plan, "user1")

        rates = [rate_at(a) for a in (30.0, 40.0, 50.0, 80.0)]
        assert all(b < a for a, b in zip(rates, rates[1:]))


@st.composite
def relay_cases(draw):
    """Small relay scenario plus the oracle's view of its users.

    1-3 ground users, each covered by the terrestrial surface or not, with an
    aerial LoS threshold of 0, a finite height or inf, and a direct link that
    is blocked or always NLoS.
    """
    coord = st.integers(-60, 60).map(float)
    num_users = draw(st.integers(1, 3))
    direct_nlos = draw(st.booleans())
    users, oracle_users, rules = [], [], []
    for i in range(num_users):
        uid = f"u{i}"
        threshold = draw(st.sampled_from([0.0, 15.0, 30.0, 45.0, math.inf]))
        fallback = draw(st.sampled_from([LinkState.NLOS, LinkState.BLOCKED]))
        covered = draw(st.booleans())
        users.append((uid, (draw(coord), draw(coord), 0.0)))
        oracle_users.append((uid, covered, threshold))
        rules.append(LinkStateRule(("uirs", uid), threshold, fallback))
        rules.append(
            LinkStateRule(("bs", uid), math.inf, LinkState.NLOS)
            if direct_nlos
            else blocked("bs", uid)
        )
    tirs = IrsSurface(
        id="tirs",
        kind=SurfaceKind.TERRESTRIAL,
        position=Position3D(draw(coord), draw(coord), 5.0),
        facing_normal=(0.0, 1.0, 0.0),
        covered_node_ids=frozenset(uid for uid, covered, _ in oracle_users if covered),
    )
    scn = make_deploy_scenario(
        users,
        uirs_xy=(draw(coord), draw(coord)),
        tirs=tirs,
        rules=rules,
        bs=(0.0, 0.0, draw(st.sampled_from([0.0, 10.0, 25.0]))),
        n_budget=draw(st.integers(0, 30)),
    )
    direct_exponent = scn.path_loss("nlos").exponent if direct_nlos else None
    return scn, tuple(oracle_users), direct_exponent


def seeded_relay_case(seed):
    """A relay scenario like relay_cases', drawn from random.Random(seed).

    2-3 ground users at random positions, each covered by the terrestrial
    surface or not, with an aerial LoS threshold of 0, 15, 30, 45 m or inf;
    direct links all blocked or all NLoS; a budget of 1-1200 elements.
    Returns the scenario, the oracle's view of its users and the direct
    links' exponent (None when blocked).
    """
    rng = random.Random(seed)

    def coord():
        return rng.uniform(-60.0, 60.0)

    direct_nlos = rng.random() < 0.5
    users, oracle_users, rules = [], [], []
    for i in range(rng.randint(2, 3)):
        uid = f"u{i}"
        threshold = rng.choice([0.0, 15.0, 30.0, 45.0, math.inf])
        covered = rng.random() < 0.5
        users.append((uid, (coord(), coord(), 0.0)))
        oracle_users.append((uid, covered, threshold))
        fallback = rng.choice([LinkState.NLOS, LinkState.BLOCKED])
        rules.append(LinkStateRule(("uirs", uid), threshold, fallback))
        rules.append(
            LinkStateRule(("bs", uid), math.inf, LinkState.NLOS)
            if direct_nlos
            else blocked("bs", uid)
        )
    tirs = IrsSurface(
        id="tirs",
        kind=SurfaceKind.TERRESTRIAL,
        position=Position3D(coord(), coord(), 5.0),
        facing_normal=(0.0, 1.0, 0.0),
        covered_node_ids=frozenset(uid for uid, covered, _ in oracle_users if covered),
    )
    scn = make_deploy_scenario(
        users,
        uirs_xy=(coord(), coord()),
        tirs=tirs,
        rules=rules,
        bs=(0.0, 0.0, rng.choice([0.0, 10.0, 25.0])),
        n_budget=rng.randint(1, 1200),
    )
    direct_exponent = scn.path_loss("nlos").exponent if direct_nlos else None
    return scn, tuple(oracle_users), direct_exponent


def assert_split_is_the_brute_force(res, users, rate):
    """One split of the rule: its min rate is the brute force's over every
    assignment at that split, its altitude the highest threshold among the
    flyers, or 0, and each user's rate the oracle's on its own surface."""
    n_air, n_terr = res.plan.aerial_elements, res.plan.terrestrial_elements
    assert res.min_rate == brute_force_split(users, n_air, n_terr, rate)
    serving = {uid: SURFACE_NAMES[sid] for uid, sid in res.plan.assignment}
    flying = [t for uid, _, t in users if serving[uid] == "aerial"]
    assert res.plan.uirs_altitude == max(flying, default=0.0)
    elements = {"aerial": n_air, "terrestrial": n_terr, None: 0}
    assert res.per_user_rates == tuple(
        rate(uid, serving[uid], elements[serving[uid]], res.plan.uirs_altitude)
        for uid, _, _ in users
    )


class TestHybridSweep:
    def test_matches_scalar_rates_and_oracle_on_fig5(self, fig5):
        rate = oracle_rate(fig5)
        for n_budget in [*range(81), 150, 600, 1200]:
            sweep = allocation_sweep(with_budget(fig5, n_budget))
            assert [r.plan.aerial_elements for r in sweep] == list(range(n_budget + 1))
            for res in sweep:
                assert res.plan.terrestrial_elements == n_budget - res.plan.aerial_elements
                assert res.per_user_rates == tuple(
                    user_rate(fig5, res.plan, uid) for uid in res.user_ids
                )
                assert_split_is_the_brute_force(res, FIG5_USERS, rate)

    @given(case=relay_cases())
    def test_exhaustive_matches_oracle(self, case):
        scn, users, direct_exponent = case
        rate = oracle_rate(scn, direct_exponent)
        sweep = allocation_sweep(scn)
        for res in sweep:
            assert_split_is_the_brute_force(res, users, rate)
        mins = [res.min_rate for res in sweep]
        expected = sweep[mins.index(max(mins))]  # first maximum: fewest aerial elements
        res = evaluate_strategy(scn, DeploymentStrategy.HYBRID)
        assert res.plan == expected.plan
        assert res.per_user_rates == expected.per_user_rates
        assert res.per_user_rates == tuple(user_rate(scn, res.plan, uid) for uid in res.user_ids)
        assert res.min_rate == max(mins)

    def test_rate_ties_go_terrestrial(self):
        # at 5 m the aerial surface sits exactly where the terrestrial one
        # stands, so an even split gives the user two equal rates
        tirs = IrsSurface(
            id="tirs",
            kind=SurfaceKind.TERRESTRIAL,
            position=Position3D(20.0, 0.0, 5.0),
            facing_normal=(1.0, 0.0, 0.0),
        )
        scn = make_deploy_scenario(
            [("u1", (30.0, 0.0, 0.0))],
            uirs_xy=(20.0, 0.0),
            tirs=tirs,
            rules=[LinkStateRule(("uirs", "u1"), 5.0), blocked("bs", "u1")],
            bs=(0.0, 0.0, 10.0),
            n_budget=20,
        )
        sweep = allocation_sweep(scn)
        assert sweep[10].plan.assignment == (("u1", "tirs"),)
        assert sweep[10].plan.uirs_altitude == 0.0
        assert sweep[11].plan.assignment == (("u1", "uirs"),)
        assert sweep[11].plan.uirs_altitude == 5.0

    def test_covered_user_stays_terrestrial_at_a_forced_altitude(self):
        # u1 would fly at 0 m, but uncovered u2 must fly (its direct link is
        # blocked) and forces 45 m, where u1's terrestrial path is the better one
        tirs = IrsSurface(
            id="tirs",
            kind=SurfaceKind.TERRESTRIAL,
            position=Position3D(5.0, 5.0, 5.0),
            facing_normal=(0.0, 1.0, 0.0),
            covered_node_ids=frozenset({"u1"}),
        )
        scn = make_deploy_scenario(
            [("u1", (10.0, 0.0, 0.0)), ("u2", (-10.0, 0.0, 0.0))],
            uirs_xy=(0.0, 0.0),
            tirs=tirs,
            rules=[
                LinkStateRule(("uirs", "u1"), 0.0),
                LinkStateRule(("uirs", "u2"), 45.0),
                blocked("bs", "u1"),
                blocked("bs", "u2"),
            ],
            bs=(0.0, 0.0, 0.0),
            n_budget=20,
        )
        res = allocation_sweep(scn)[10]
        assert res.plan.assignment == (("u1", "tirs"), ("u2", "uirs"))
        assert res.plan.uirs_altitude == 45.0

    def test_uncovered_user_gaining_nothing_stays_on_its_direct_link(self):
        # the BS-to-aerial-surface leg is blocked, so flying adds nothing to
        # u1's NLoS direct link: it stays there and leaves the altitude at 0
        scn = make_deploy_scenario(
            [("u1", (30.0, 0.0, 0.0))],
            uirs_xy=(0.0, 0.0),
            rules=[
                LinkStateRule(("uirs", "u1"), 45.0),
                blocked("bs", "uirs"),
                LinkStateRule(("bs", "u1"), math.inf, LinkState.NLOS),
            ],
            n_budget=20,
        )
        sweep = allocation_sweep(scn)
        assert {res.plan.assignment for res in sweep} == {(("u1", None),)}
        assert {res.plan.uirs_altitude for res in sweep} == {0.0}
        assert len({res.min_rate for res in sweep}) == 1 and sweep[0].min_rate > 0
        best = evaluate_strategy(scn, DeploymentStrategy.HYBRID)
        assert best.plan == DeploymentPlan(0, 20, 0.0, (("u1", None),))

    def test_zero_budget_is_one_empty_split(self, fig5):
        empty = with_budget(fig5, 0)
        (res,) = allocation_sweep(empty)
        assert res.plan == DeploymentPlan(0, 0, 0.0, (("user1", None), ("user2", "tirs")))
        assert res.per_user_rates == (0.0, 0.0)  # both direct links are blocked
        best = evaluate_strategy(empty, DeploymentStrategy.HYBRID)
        assert best.plan == res.plan
        assert best.min_rate == 0.0

    def test_unreachable_aerial_surface_keeps_budget_terrestrial(self):
        # no user can ever see the aerial surface: every split serves both
        # users terrestrially at altitude 0, and the best gives it nothing
        tirs = IrsSurface(
            id="tirs",
            kind=SurfaceKind.TERRESTRIAL,
            position=Position3D(0.0, 40.0, 5.0),
            facing_normal=(0.0, 1.0, 0.0),
            covered_node_ids=frozenset({"u1", "u2"}),
        )
        scn = make_deploy_scenario(
            [("u1", (30.0, 0.0, 0.0)), ("u2", (-30.0, 0.0, 0.0))],
            uirs_xy=(0.0, 0.0),
            tirs=tirs,
            rules=[
                LinkStateRule(("uirs", "u1"), math.inf, LinkState.NLOS),
                LinkStateRule(("uirs", "u2"), math.inf, LinkState.BLOCKED),
                blocked("bs", "u1"),
                blocked("bs", "u2"),
            ],
            n_budget=20,
        )
        for res in allocation_sweep(scn):
            assert res.plan.assignment == (("u1", "tirs"), ("u2", "tirs"))
            assert res.plan.uirs_altitude == 0.0
        best = evaluate_strategy(scn, DeploymentStrategy.HYBRID)
        user_side = evaluate_strategy(scn, DeploymentStrategy.USER_SIDE)
        assert best.plan == DeploymentPlan(0, 20, 0.0, user_side.plan.assignment)
        assert best.per_user_rates == user_side.per_user_rates

    @pytest.mark.parametrize(
        "search",
        [
            allocation_sweep,
            # the split search that the hybrid strategy runs
            pytest.param(
                lambda scn: evaluate_strategy(scn, DeploymentStrategy.HYBRID),
                id="exhaustive_allocate",
            ),
        ],
    )
    def test_negative_budget_rejected(self, fig5, search):
        # the budget is checked where the experiment is built, so no search
        # ever runs on a negative one
        with pytest.raises(ValueError, match="n_budget must be an integer >= 0"):
            search(with_budget(fig5, -1))

    @pytest.mark.parametrize("n_budget", [-1, 2.5, math.nan, 600.0, True])
    def test_bad_budget_rejected(self, n_budget):
        # the same check DeploymentPlan makes of its element counts: an int >= 0
        with pytest.raises(ValueError, match="n_budget must be an integer >= 0"):
            DeploymentExperiment(n_budget)

    def test_budget_above_2_53_rejected(self):
        DeploymentExperiment(2**53)
        with pytest.raises(ValueError, match=r"n_budget must be <= 2\*\*53"):
            DeploymentExperiment(2**53 + 1)

    @pytest.mark.parametrize(
        "strategies",
        [(), (DeploymentStrategy.HYBRID, DeploymentStrategy.HYBRID), ("hybrid",)],
        ids=["empty", "repeated", "not-a-strategy"],
    )
    def test_bad_strategies_rejected(self, strategies):
        with pytest.raises(ValueError, match="strategies must be"):
            DeploymentExperiment(600, strategies)


def first_maximum(scenario):
    """allocation_sweep's first split with the highest min rate."""
    sweep = allocation_sweep(scenario)
    minima = [res.min_rate for res in sweep]
    return sweep[minima.index(max(minima))]


class TestSplitSearch:
    """The HYBRID strategy searches for the split the sweep's first maximum gives.

    The search rests on each aerial rate being non-decreasing and each ground
    rate non-increasing in n_aerial, as computed in floating point.
    """

    @staticmethod
    def assert_search_equals_sweep(scn):
        expected = first_maximum(scn)
        res = evaluate_strategy(scn, DeploymentStrategy.HYBRID)
        assert res.plan == expected.plan
        assert res.per_user_rates == expected.per_user_rates
        assert res.min_rate == expected.min_rate
        # the checked single-user path validates the plan and gives the same rates
        rates = tuple(user_rate(scn, res.plan, uid) for uid in res.user_ids)
        assert res.per_user_rates == rates
        return res

    def test_fig5(self, fig5):
        for n_budget in [*range(81), 150, 600, 1200]:
            self.assert_search_equals_sweep(with_budget(fig5, n_budget))

    @pytest.mark.parametrize("seed", range(100))
    def test_seeded_relay_cases(self, seed):
        scn, _, _ = seeded_relay_case(seed)
        self.assert_search_equals_sweep(scn)

    @staticmethod
    def two_users(covered, u2_threshold, u2_fallback, u2_direct):
        tirs = IrsSurface(
            id="tirs",
            kind=SurfaceKind.TERRESTRIAL,
            position=Position3D(0.0, -40.0, 5.0),
            facing_normal=(0.0, 1.0, 0.0),
            covered_node_ids=frozenset(covered),
        )
        return make_deploy_scenario(
            [("u1", (30.0, 0.0, 0.0)), ("u2", (-30.0, 0.0, 0.0))],
            uirs_xy=(0.0, 0.0),
            tirs=tirs,
            rules=[
                LinkStateRule(("uirs", "u1"), 20.0),
                LinkStateRule(("uirs", "u2"), u2_threshold, u2_fallback),
                blocked("bs", "u1"),
                u2_direct,
            ],
            n_budget=50,
        )

    def test_blocked_uncovered_user_keeps_every_split_at_zero(self):
        # u2 can reach neither surface and its direct link is blocked: the
        # min rate is 0 at every split, so the first maximum is split 0
        scn = self.two_users({"u1"}, math.inf, LinkState.BLOCKED, blocked("bs", "u2"))
        assert {res.min_rate for res in allocation_sweep(scn)} == {0.0}
        res = self.assert_search_equals_sweep(scn)
        assert res.plan.aerial_elements == 0

    def test_all_users_uncovered(self):
        # everyone flies from split 1 on and no rate falls: the whole budget
        scn = self.two_users((), 45.0, LinkState.NLOS, blocked("bs", "u2"))
        res = self.assert_search_equals_sweep(scn)
        assert res.plan.aerial_elements == 50
        assert res.plan.uirs_altitude == 45.0

    def test_tie_across_the_meet_goes_to_fewer_aerial_elements(self):
        # an odd budget on mirrored users: splits 5 and 6 have the same min
        # rate, the aerial user's at 5 and the terrestrial user's at 6
        res = self.assert_search_equals_sweep(symmetric_scenario(11))
        assert res.plan.aerial_elements == 5
        assert res.min_rate == res.per_user_rates[0]  # the aerial user's

    def test_first_of_a_rounding_plateau(self):
        # near 2**53 elements one more aerial element moves no rate by an
        # ulp, so the rates flatten before the budget ends; the first of the
        # top value wins (allocation_sweep cannot run here; user_rate can)
        scn = with_budget(
            self.two_users((), 45.0, LinkState.NLOS, blocked("bs", "u2")), 2**53
        )
        res = evaluate_strategy(scn, DeploymentStrategy.HYBRID)

        def min_rate(n_aerial):
            plan = replace(
                res.plan, aerial_elements=n_aerial, terrestrial_elements=2**53 - n_aerial
            )
            return min(user_rate(scn, plan, uid) for uid in res.user_ids)

        n_aerial = res.plan.aerial_elements
        assert n_aerial < 2**53
        assert min_rate(n_aerial - 1) < res.min_rate == min_rate(n_aerial) == min_rate(2**53)

    def test_flat_ground_rate_caps_the_min(self):
        # u2 stays on its NLoS direct link, a constant rate: once u1's aerial
        # rate passes it the min rate is flat, and the first of it wins
        nlos = LinkStateRule(("bs", "u2"), math.inf, LinkState.NLOS)
        scn = self.two_users((), math.inf, LinkState.BLOCKED, nlos)
        minima = [res.min_rate for res in allocation_sweep(scn)]
        assert minima.count(max(minima)) > 1
        res = self.assert_search_equals_sweep(scn)
        assert 0 < res.plan.aerial_elements < 50

    def test_rates_are_monotone_in_the_split(self, fig5):
        rule = _HybridRule.of(with_budget(fig5, 1200))
        splits = range(1201)
        sequences = 0
        for i in range(len(rule.user_ids)):
            ground = [rule.ground_rate(i, n) for n in splits]
            assert all(a >= b for a, b in zip(ground, ground[1:]))
            for level, legs in enumerate(rule.air):
                if legs[i] is not None:  # the level is at or above the user's threshold
                    air = [rule.air_rate(i, level, n) for n in splits]
                    assert all(a <= b for a, b in zip(air, air[1:]))
                    sequences += 1
        assert rule.altitudes == (0.0, 30.0, 50.0)
        assert sequences == 3  # user1 at 30 and 50 m, user2 at 50 m

    def test_rule_resolves_each_direct_link_once(self, fig5):
        # fig5 has 5 leg sets for 2 users (one ground, three aerial); each
        # user's BS link is resolved once and shared by all of its sets
        bs = fig5.bs_node().id
        resolve = mock.patch(
            "uavirs.deployment.resolve_link_state", wraps=channel.resolve_link_state
        )
        with resolve as counted:
            rule = _HybridRule.of(fig5)
        ends = [call.args[1:3] for call in counted.call_args_list]
        direct = Counter(b for a, b in ends if a == bs and b in rule.user_ids)
        assert dict(direct) == {uid: 1 for uid in rule.user_ids}
        assert len(rule.ground) + sum(legs is not None for row in rule.air for legs in row) == 5

    @pytest.mark.parametrize("n_budget", [10**8, 2**53])
    def test_deploy_cost_does_not_grow_with_the_budget(self, n_budget, tmp_path, monkeypatch):
        # allocation_sweep at these budgets would not finish; the search
        # prices a few hundred rates
        text = scenario_path("fig5").read_text(encoding="utf-8")
        path = tmp_path / "fig5.scenario"
        path.write_text(text.replace("n_budget: 600\n", f"n_budget: {n_budget}\n", 1))
        calls = []

        def counted(amplitude, radio):
            calls.append(amplitude)
            return channel.link_rate(amplitude, radio)

        monkeypatch.setattr("uavirs.deployment.link_rate", counted)
        assert main(["deploy", str(path), "--out", str(tmp_path), "--quiet"]) == EXIT_OK
        assert 0 < len(calls) <= 400


# seeds where a greedy rule, flying each covered user for its own gain, falls
# short of the brute force (by up to 15.9%)
FORMER_SHORTFALL_SEEDS = (
    8, 16, 66, 80, 82, 97, 98, 113, 206, 216, 252, 259, 271, 284, 293, 338, 353, 354, 366, 378
)


class TestBruteForce:
    """The hybrid rule against every split and every user-to-surface assignment.

    The rule is exact: at each split and altitude every user takes its better
    surface, and each candidate altitude is forced by one flyer, so the
    hybrid min rate equals the brute force's (400 of seeds 0-399 of
    seeded_relay_case; tier-1 runs the seeds below).
    """

    @staticmethod
    def hybrid_and_best(seed):
        scn, users, direct_exponent = seeded_relay_case(seed)
        best = brute_force_deployment(
            users, scn.experiment.n_budget, oracle_rate(scn, direct_exponent)
        )
        return evaluate_strategy(scn, DeploymentStrategy.HYBRID).min_rate, best

    @pytest.mark.parametrize("n_budget", [1, 2, 10, 100, 600, 1200])
    def test_fig5_hybrid_is_the_optimum(self, fig5, n_budget):
        scn = with_budget(fig5, n_budget)
        best = brute_force_deployment(FIG5_USERS, n_budget, oracle_rate(scn))
        assert evaluate_strategy(scn, DeploymentStrategy.HYBRID).min_rate == best

    @pytest.mark.parametrize("seed", sorted({*range(12), *FORMER_SHORTFALL_SEEDS}))
    def test_hybrid_never_beats_the_brute_force(self, seed):
        hybrid, best = self.hybrid_and_best(seed)
        assert hybrid == best

    @pytest.mark.parametrize(
        "seed, plan",
        [
            # NLoS direct links: u1 (threshold 45 m) stays on its direct link,
            # so the surface flies at 15 m for u0.
            (8, DeploymentPlan(30, 203, 15.0, (("u0", "uirs"), ("u1", None), ("u2", "tirs")))),
            # Blocked direct links: covered u0 (threshold 45 m) stays on the
            # terrestrial surface, so the aerial one flies at 30 m for u1.
            (216, DeploymentPlan(66, 8, 30.0, (("u0", "tirs"), ("u1", "uirs")))),
        ],
        ids=["8", "216"],
    )
    def test_a_user_stays_down_to_keep_the_altitude_low(self, seed, plan):
        scn, _, _ = seeded_relay_case(seed)
        assert evaluate_strategy(scn, DeploymentStrategy.HYBRID).plan == plan


class TestPlanValidation:
    def test_negative_elements_rejected(self):
        with pytest.raises(ValueError):
            DeploymentPlan(-1, 10, 0.0, ())

    @pytest.mark.parametrize(
        "aerial, terrestrial, assignment",
        [
            (2.5, 0.5, (("user1", "uirs"), ("user2", "tirs"))),
            (math.nan, 0, ()),
            (10, 10.0, ()),
            (True, False, ()),
        ],
        ids=["fractional", "nan", "integral-float", "bool"],
    )
    def test_non_integer_elements_rejected(self, aerial, terrestrial, assignment):
        # the one element-count check, irs._check_count, that IrsSurface.num_elements also makes
        with pytest.raises(FieldError, match="_elements must be an integer >= 0"):
            DeploymentPlan(aerial, terrestrial, 30.0, assignment)

    @pytest.mark.parametrize("aerial, terrestrial", [(2**53 + 1, 0), (0, 2**53 + 1), (10**400, 0)])
    def test_more_elements_than_floats_count_exactly_rejected(self, aerial, terrestrial):
        with pytest.raises(ValueError, match=r"_elements must be <= 2\*\*53"):
            DeploymentPlan(aerial, terrestrial, 30.0, ())
        assert DeploymentPlan(2**53, 2**53, 30.0, ()).aerial_elements == 2**53

    @pytest.mark.parametrize("altitude", [math.nan, math.inf, -1.0])
    def test_bad_altitude_rejected(self, altitude):
        with pytest.raises(ValueError, match="uirs_altitude"):
            DeploymentPlan(10, 10, altitude, ())

    def test_unknown_surface_rejected(self, fig5):
        plan = DeploymentPlan(600, 0, 50.0, (("user1", "mystery"), ("user2", None)))
        with pytest.raises(ConfigurationError):
            user_rate(fig5, plan, "user1")

    def test_user_left_out_rejected(self, fig5):
        plan = DeploymentPlan(0, 600, 0.0, (("user1", None),))
        with pytest.raises(ConfigurationError, match="'user2' exactly once, not 0 times"):
            user_rate(fig5, plan, "user2")

    def test_user_assigned_twice_rejected(self, fig5):
        plan = DeploymentPlan(0, 600, 0.0, (("user1", None), ("user2", "tirs"), ("user2", None)))
        with pytest.raises(ConfigurationError, match="'user2' exactly once, not 2 times"):
            user_rate(fig5, plan, "user2")


def baseline_cases():
    """(label, scenario, oracle users) of seeded_relay_case seeds 0-399 at
    budgets 0, 1 and the seed's own."""
    for seed in range(400):
        scn, users, _ = seeded_relay_case(seed)
        for n_budget in sorted({0, 1, scn.experiment.n_budget}):
            yield f"seed {seed}, budget {n_budget}", with_budget(scn, n_budget), users


class TestBaselines:
    """The user-side and BS-side plans against constructions of their own."""

    def test_user_side_is_the_sweeps_first_split(self):
        # split (0, budget) at altitude 0, covered users on the terrestrial surface and
        # the others on their direct links (all blocked or all NLoS), priced by the oracle;
        # a whole sweep is built only at budgets 0 and 1, where it is short
        for label, scn, users in baseline_cases():
            res = evaluate_strategy(scn, DeploymentStrategy.USER_SIDE)
            n_budget = scn.experiment.n_budget
            direct = scn.link_rules.get("bs", users[0][0]).fallback_state is LinkState.NLOS
            rate = oracle_rate(scn, scn.path_loss("nlos").exponent if direct else None)
            ids = tuple(uid for uid, _, _ in users)
            covered = tuple(c for _, c, _ in users)
            rates = tuple(
                rate(uid, "terrestrial", n_budget if c else 0, 0.0) for uid, c in zip(ids, covered)
            )
            assignment = tuple((uid, "tirs" if c else None) for uid, c in zip(ids, covered))
            plan = DeploymentPlan(0, n_budget, 0.0, assignment)
            strategy = DeploymentStrategy.USER_SIDE
            assert res == DeploymentResult(plan, ids, rates, min(rates), strategy), label
            if n_budget <= 1:
                assert res == replace(allocation_sweep(scn)[0], strategy=strategy), label
            rates = tuple(user_rate(scn, res.plan, uid) for uid in res.user_ids)
            assert res.per_user_rates == rates, label

    def test_bs_side_flies_at_the_highest_threshold(self):
        reachable_counts = set()
        for label, scn, users in baseline_cases():
            res = evaluate_strategy(scn, DeploymentStrategy.BS_SIDE)
            n_budget = scn.experiment.n_budget
            finite = [t for _, _, t in users if math.isfinite(t)]
            reachable_counts.add(len(finite))
            assert res.plan.aerial_elements == n_budget, label
            assert res.plan.terrestrial_elements == 0, label
            assert res.plan.uirs_altitude == max(finite, default=0.0), label
        assert 0 in reachable_counts  # some instance has nobody reachable

    def test_bs_side_flies_every_reachable_user(self):
        for label, scn, users in baseline_cases():
            res = evaluate_strategy(scn, DeploymentStrategy.BS_SIDE)
            flying = scn.experiment.n_budget > 0
            for (uid, covered, threshold), assigned in zip(users, res.plan.assignment):
                # a user left on the ground keeps its terrestrial label, on 0 elements
                ground = "tirs" if covered else None
                expected = "uirs" if flying and math.isfinite(threshold) else ground
                assert assigned == (uid, expected), label
            rates = tuple(user_rate(scn, res.plan, uid) for uid, _, _ in users)
            assert res.per_user_rates == rates, label
            assert res.min_rate == min(rates), label

    def test_bs_side_needs_no_altitude_for_a_user_without_a_rule(self):
        scn = make_deploy_scenario(
            [("u1", (40.0, 0.0, 0.0)), ("u2", (-30.0, 20.0, 0.0))],
            rules=[blocked("bs", "u1"), blocked("bs", "u2")],
            n_budget=50,
        )
        res = evaluate_strategy(scn, DeploymentStrategy.BS_SIDE)
        assert res.plan.uirs_altitude == 0.0
        assert res.plan.assignment == (("u1", "uirs"), ("u2", "uirs"))
        assert all(r > 0.0 for r in res.per_user_rates)
