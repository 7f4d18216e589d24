"""Hybrid reflecting-surface deployment for relaying from a BS to blocked users.

One UAV-mounted surface near the BS and one terrestrial surface near a user
share a fixed budget of reflecting elements. Users transmit over orthogonal
equal-duration slots (prelog 1/K) and their direct BS links are blocked, so
each user's rate is carried entirely by its serving surface's cascaded path
with per-leg binary LoS/NLoS exponents. A plan is an element split, an aerial
altitude (the lowest altitude giving LoS to its assigned users) and a
user-to-surface assignment, and one rule, `_HybridRule`, builds the plan of
every strategy. The rule and `user_rate` price every rate alike: `_legs` gives
a user's direct amplitude (from `_direct`) and two surface-leg amplitudes, and
`_rate` the rate of direct + N * up * down. The user-side and BS-side
baselines put the whole budget on one surface. The hybrid rule is exact: at
each split every user takes its better surface (ties stay on the ground) at
each altitude a flyer forces, the first best plan wins, and binary search at
its breakpoints finds the best split in evaluations logarithmic in the budget.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from enum import Enum
from typing import TYPE_CHECKING, Iterator, NamedTuple, Optional, Tuple

from .channel import LinkState, Node, RadioParams, leg_amplitude, link_rate, resolve_link_state
from .errors import ConfigurationError
from .irs import IrsSurface, SurfaceKind, _check_count, covers

if TYPE_CHECKING:  # pragma: no cover
    from .scenario import Scenario


class DeploymentStrategy(Enum):
    USER_SIDE = "user"
    BS_SIDE = "bs"
    HYBRID = "hybrid"


@dataclass(frozen=True)
class DeploymentPlan:
    """Element split, aerial altitude, and user -> surface assignment."""

    aerial_elements: int
    terrestrial_elements: int
    uirs_altitude: float
    assignment: Tuple[Tuple[str, Optional[str]], ...]  # (user id, surface id | None)

    def __post_init__(self):
        _check_count("aerial_elements", self.aerial_elements)
        _check_count("terrestrial_elements", self.terrestrial_elements)
        if not (math.isfinite(self.uirs_altitude) and self.uirs_altitude >= 0):
            raise ValueError(f"uirs_altitude must be finite and >= 0, got {self.uirs_altitude!r}")
        object.__setattr__(self, "assignment", tuple(self.assignment))


@dataclass(frozen=True)
class DeploymentResult:
    plan: DeploymentPlan
    user_ids: Tuple[str, ...]
    per_user_rates: Tuple[float, ...]
    min_rate: float
    strategy: DeploymentStrategy


def _deployment_surfaces(scenario: "Scenario") -> Tuple[IrsSurface, IrsSurface]:
    """The aerial and the terrestrial surface; a deployment Scenario has one of each."""
    (aerial,) = [s for s in scenario.surfaces if s.kind is SurfaceKind.AERIAL_MOUNTED]
    (terrestrial,) = [s for s in scenario.surfaces if s.kind is SurfaceKind.TERRESTRIAL]
    return aerial, terrestrial


def _leg_amplitude(
    scenario: "Scenario", a_id: str, a_pos, b_id: str, b_pos, aerial_altitude: float
) -> float:
    """Amplitude gain of the leg between two Position3Ds in its resolved state, 0 if blocked."""
    state = resolve_link_state(scenario.link_rules, a_id, b_id, aerial_altitude)
    if state is LinkState.BLOCKED:
        return 0.0
    return leg_amplitude(a_pos.distance_to(b_pos), scenario.path_loss(state.value), scenario.radio)


_Legs = Tuple[float, float, float]  # direct, BS -> surface and surface -> user amplitudes


def _direct(scenario: "Scenario", user: Node) -> float:
    """The amplitude of a user's direct link from the BS."""
    bs = scenario.bs_node()
    direct_alt = max(bs.position.z, user.position.z)
    return _leg_amplitude(scenario, bs.id, bs.position, user.id, user.position, direct_alt)


def _legs(
    scenario: "Scenario", surface: Optional[IrsSurface], altitude: float, user: Node, direct: float
) -> _Legs:
    """A user's legs through one surface, or over its `_direct` link alone (None).

    An aerial surface is priced at `altitude`, a terrestrial one where it
    stands; both surface legs resolve their link state at the surface's height.
    """
    bs = scenario.bs_node()
    if surface is None:
        return direct, 0.0, 0.0
    at = surface.position
    if surface.kind is SurfaceKind.AERIAL_MOUNTED:
        at = replace(at, z=float(altitude))
    up = _leg_amplitude(scenario, bs.id, bs.position, surface.id, at, at.z)
    down = _leg_amplitude(scenario, surface.id, at, user.id, user.position, at.z)
    return direct, up, down


def _rate(legs: _Legs, elements: int, radio: RadioParams, num_users: int) -> float:
    """A user's rate with `elements` on its surface, prelog 1/num_users."""
    direct, up, down = legs
    return link_rate(direct + elements * up * down, radio) / num_users


def _check_plan(scenario: "Scenario", plan: DeploymentPlan) -> None:
    aerial, terrestrial = _deployment_surfaces(scenario)
    users = {u.id: u for u in scenario.user_nodes()}
    assigned = [uid for uid, _ in plan.assignment]
    for uid in users:
        if assigned.count(uid) != 1:
            raise ConfigurationError(
                f"plan must assign user {uid!r} exactly once, not {assigned.count(uid)} times"
            )
    for uid, sid in plan.assignment:
        if uid not in users:
            raise ConfigurationError(f"plan assigns unknown user {uid!r}")
        if sid is None:
            continue
        if sid == terrestrial.id:
            if not covers(terrestrial, users[uid].position, node_id=uid):
                raise ConfigurationError(
                    f"user {uid!r} is outside the terrestrial surface's coverage"
                )
        elif sid == aerial.id:
            state = resolve_link_state(scenario.link_rules, aerial.id, uid, plan.uirs_altitude)
            if state is not LinkState.LOS:
                raise ConfigurationError(
                    f"user {uid!r} has no LoS to the aerial surface at "
                    f"{plan.uirs_altitude} m"
                )
        else:
            raise ConfigurationError(f"plan references unknown surface {sid!r}")


def user_rate(scenario: "Scenario", plan: DeploymentPlan, user_id: str) -> float:
    """Achievable rate (bps/Hz) of one user under a deployment plan.

    Equal orthogonal time slots give the 1/K prelog; the direct BS link is
    taken from the scenario's link rules (blocked in the relaying scenarios),
    and an unserved user's rate is exactly 0 on top of a blocked direct link.
    The plan is checked, then the legs through the user's serving surface (an
    aerial one at the plan's altitude) are priced as in `_HybridRule`.
    """
    users = scenario.user_nodes()
    by_id = {u.id: u for u in users}
    if user_id not in by_id:
        raise ValueError(f"unknown user {user_id!r}")
    _check_plan(scenario, plan)  # one entry per user, each a known surface or None
    aerial, terrestrial = _deployment_surfaces(scenario)
    surface, elements = {
        None: (None, 0),
        aerial.id: (aerial, plan.aerial_elements),
        terrestrial.id: (terrestrial, plan.terrestrial_elements),
    }[dict(plan.assignment)[user_id]]
    user = by_id[user_id]
    legs = _legs(scenario, surface, plan.uirs_altitude, user, _direct(scenario, user))
    return _rate(legs, elements, scenario.radio, len(users))


class _HybridRule(NamedTuple):
    """The hybrid rule on one scenario, with every leg it prices computed once.

    At each split the rule weighs nobody flying (level 0), then each reachable
    user in turn flying at its own threshold's level with every user at or
    below it on its better surface, ties staying on the ground (`forced`), and
    takes the first plan with the highest min rate: the best plan over every
    assignment, whose altitude is the highest threshold among flyers, or 0.

    The candidate altitudes are the levels {0} and the finite LoS thresholds;
    a user's aerial legs exist only at the levels at or above its own, and
    all of its legs share one `_direct`. The legs come from `_legs` and every
    rate from `_rate`, the path `user_rate` takes, so a rate is bit-identical
    to `user_rate` on the same plan. `result` builds and prices, once, the
    plan of every strategy, the two single-surface baselines included;
    `user_rate` stays the public checked path the tests compare it against.
    """

    n_budget: int
    radio: RadioParams
    user_ids: Tuple[str, ...]
    aerial_id: str
    ground_ids: Tuple[Optional[str], ...]  # the terrestrial id if covered, else None
    altitudes: Tuple[float, ...]  # the levels, ascending
    needed: Tuple[int, ...]  # [user]: the level of its LoS threshold (if it has one)
    ground: Tuple[_Legs, ...]  # [user]: through the terrestrial surface
    air: Tuple[Tuple[Optional[_Legs], ...], ...]  # [level][user]: through the aerial one

    @classmethod
    def of(cls, scenario: "Scenario") -> "_HybridRule":
        aerial, terrestrial = _deployment_surfaces(scenario)
        users = scenario.user_nodes()
        rules = scenario.link_rules
        thresholds = [rules.rule_for(aerial.id, u.id).min_altitude_for_los for u in users]
        altitudes = sorted({0.0, *filter(math.isfinite, thresholds)})
        covered = [covers(terrestrial, u.position, node_id=u.id) for u in users]
        direct = [_direct(scenario, u) for u in users]
        return cls(
            n_budget=scenario.experiment.n_budget,
            radio=scenario.radio,
            user_ids=tuple(u.id for u in users),
            aerial_id=aerial.id,
            ground_ids=tuple(terrestrial.id if c else None for c in covered),
            altitudes=tuple(altitudes),
            needed=tuple(altitudes.index(t) if math.isfinite(t) else -1 for t in thresholds),
            ground=tuple(_legs(scenario, terrestrial, 0.0, u, d) for u, d in zip(users, direct)),
            # Below its LoS threshold a user can never be served by the aerial surface.
            air=tuple(
                tuple(
                    _legs(scenario, aerial, alt, u, d) if alt >= t else None
                    for u, d, t in zip(users, direct, thresholds)
                )
                for alt in altitudes
            ),
        )

    def ground_rate(self, i: int, n_aerial: int) -> float:
        """Without the aerial surface: through the terrestrial one if it covers
        the user, else over the direct link alone (zero elements)."""
        elements = (self.n_budget - n_aerial) * (self.ground_ids[i] is not None)
        return _rate(self.ground[i], elements, self.radio, len(self.user_ids))

    def air_rate(self, i: int, level: int, n_aerial: int) -> float:
        return _rate(self.air[level][i], n_aerial, self.radio, len(self.user_ids))

    def flies(self, i: int, level: int, n_aerial: int) -> bool:
        """Whether user i's aerial rate at level beats its ground rate (ties stay)."""
        return self.air_rate(i, level, n_aerial) > self.ground_rate(i, n_aerial)

    def forced(self, n_aerial: int) -> Iterator[Tuple[int, Tuple[bool, ...]]]:
        """The (level, flyers) plans in which someone flies, at one split: each
        reachable user f in turn forces its own level and flies, and every other
        user at or below that level flies iff that beats its ground rate."""
        for f, level in enumerate(self.needed):
            if level >= 0 and n_aerial > 0:  # no aerial elements, no aerial service
                yield level, tuple(
                    i == f or 0 <= needed <= level and self.flies(i, level, n_aerial)
                    for i, needed in enumerate(self.needed)
                )

    def split(self, n_aerial: int) -> Tuple[int, Tuple[bool, ...]]:
        """The first plan with the highest min rate: nobody flies (level 0), then `forced`."""
        plans = [(0, (False,) * len(self.user_ids)), *self.forced(n_aerial)]
        return max(plans, key=lambda plan: min(self.rates(n_aerial, *plan)))

    def rates(self, n_aerial: int, level: int, on_air: Tuple[bool, ...]) -> Tuple[float, ...]:
        return tuple(
            self.air_rate(i, level, n_aerial) if air else self.ground_rate(i, n_aerial)
            for i, air in enumerate(on_air)
        )

    def result(
        self, n_aerial: int, level: int, on_air: Tuple[bool, ...], strategy: DeploymentStrategy
    ) -> DeploymentResult:
        """The plan at (split, level, flyers), priced once by `rates`."""
        assignment = tuple(
            (uid, self.aerial_id if air else ground)
            for uid, air, ground in zip(self.user_ids, on_air, self.ground_ids)
        )
        plan = DeploymentPlan(n_aerial, self.n_budget - n_aerial, self.altitudes[level], assignment)
        rates = self.rates(n_aerial, level, on_air)
        return DeploymentResult(plan, self.user_ids, rates, min(rates), strategy)


def _first_true(test, lo: int, hi: int) -> int:
    """The first n in [lo, hi] with test(n), else hi + 1; test is false, then true."""
    if lo > hi or test(lo):  # most of the rule's comparisons flip at lo
        return lo
    return lo + 1 + bisect_left(range(lo + 1, hi + 1), True, key=test)


def _best_split(rule: _HybridRule) -> int:
    """The first n_aerial with the highest min rate, found by search.

    For fixed (user, level) the aerial rate does not fall and the ground rate
    does not rise in n_aerial, so each `flies` comparison flips at most once;
    the flips cut [1, n_budget] into pieces on which every plan keeps its
    flyers. Split 0 is a piece of its own, where nobody flying wins (zero
    aerial elements add no rate), and the only split where it can, as ground
    rates only fall. On a piece a `forced` plan's min rate is min(lowest
    aerial rate, lowest ground rate), the first non-decreasing and the second
    non-increasing, so its first maximum lies where they meet; the search
    keeps the first maximum over every plan of every piece.
    """
    cuts = {1, rule.n_budget + 1}
    for i, needed in enumerate(rule.needed):
        for level in range(needed, len(rule.altitudes)) if needed >= 0 else ():
            cuts.add(_first_true(lambda n: rule.flies(i, level, n), 1, rule.n_budget))
    best_n, best = 0, min(rule.ground_rate(i, 0) for i in range(len(rule.user_ids)))
    bounds = sorted(cuts)
    for lo, end in zip(bounds, bounds[1:]):
        for level, on_air in rule.forced(lo):
            fliers = [i for i, air in enumerate(on_air) if air]
            grounded = [i for i, air in enumerate(on_air) if not air]

            def air_min(n):
                return min(rule.air_rate(i, level, n) for i in fliers)

            def ground_min(n):
                return min(rule.ground_rate(i, n) for i in grounded)

            # meet: the first split of the piece where the min rate is a ground rate
            if not grounded:
                meet = end
            else:
                meet = _first_true(lambda n: air_min(n) >= ground_min(n), lo, end - 1)
            value, n = -math.inf, meet
            if meet < end:  # the falling part peaks at its first split
                value = ground_min(meet)
            if meet > lo:  # the rising part peaks at its end, first reached by search
                top = air_min(meet - 1)
                if top >= max(value, best):  # else it beats neither the falling part nor best
                    value, n = top, _first_true(lambda n: air_min(n) >= top, lo, meet - 1)
            if (value, -n) > (best, -best_n):
                best_n, best = n, value
    return best_n


def evaluate_strategy(
    scenario: "Scenario", strategy: DeploymentStrategy, *, _rule: Optional[_HybridRule] = None
) -> DeploymentResult:
    """Evaluate one deployment strategy for the experiment's element budget.

    Every strategy is one plan of the hybrid rule: a split, an altitude level
    and the users who fly. USER_SIDE is the rule's split 0: the whole budget
    on the terrestrial surface, uncovered users on their direct links alone.
    BS_SIDE puts the whole budget on the aerial surface at its top level, the
    lowest altitude with LoS to every user that can ever reach LoS, and flies
    all of those users. HYBRID takes the first split with the highest min
    rate (the first maximum of `allocation_sweep`) and there the best plan
    over every assignment, each user on its better surface, ties on the
    ground. The rule prices each plan once, with the rates the checked
    `user_rate` gives on it (the tests compare the two).

    HYBRID finds that split by binary search, not by pricing every split. It
    rests on the rates being monotone in n_aerial as computed in floating
    point: an aerial rate never falls and a ground rate never rises, because
    every step of `direct + n * up * down`, the squaring, the scaling and
    `math.log2` rounds monotonically (tests/test_deployment.py checks this on
    fig5).

    `uavirs deploy` builds the rule once and passes it to every strategy as _rule.
    """
    if not isinstance(strategy, DeploymentStrategy):
        raise ValueError(f"unknown strategy {strategy!r}")
    rule = _rule if _rule is not None else _HybridRule.of(scenario)
    if strategy is DeploymentStrategy.BS_SIDE:
        n_aerial, level = rule.n_budget, len(rule.altitudes) - 1
        on_air = tuple(needed >= 0 and n_aerial > 0 for needed in rule.needed)
    else:
        n_aerial = 0 if strategy is DeploymentStrategy.USER_SIDE else _best_split(rule)
        level, on_air = rule.split(n_aerial)
    return rule.result(n_aerial, level, on_air, strategy)


def allocation_sweep(scenario: "Scenario"):
    """All element splits in order: hybrid rule applied at each n_aerial.

    Returns one DeploymentResult per n_aerial in 0..experiment.n_budget, so
    its time and memory are linear in n_budget by contract; useful for
    plotting rate-vs-allocation curves. It applies the same rule, split by
    split, that the HYBRID strategy searches.
    """
    rule = _HybridRule.of(scenario)
    return [
        rule.result(n, *rule.split(n), DeploymentStrategy.HYBRID) for n in range(rule.n_budget + 1)
    ]
