"""Hybrid reflecting-surface deployment for relaying from a BS to blocked users.

One UAV-mounted surface near the BS and one terrestrial surface near a user
share a fixed budget of reflecting elements. Users transmit over orthogonal
equal-duration slots (prelog 1/K) and their direct BS links are blocked, so
each user's rate is carried entirely by its serving surface's cascaded path
with per-leg binary LoS/NLoS exponents. The element split, the aerial
altitude (the lowest altitude giving LoS to its assigned users) and the
user-to-surface assignment are chosen to maximize the minimum user rate; the
split is found by exhaustive enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, List, NamedTuple, Optional, Tuple

from .channel import LinkState, Node, leg_amplitude, link_rate, resolve_link_state
from .errors import ConfigurationError
from .irs import IrsSurface, SurfaceKind, covers, min_serving_altitude

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
        for count in (self.aerial_elements, self.terrestrial_elements):
            if not (type(count) is int and count >= 0):  # bool is no count
                raise ValueError(f"element counts must be integers >= 0, got {count!r}")
        if not (math.isfinite(self.uirs_altitude) and self.uirs_altitude >= 0):
            raise ValueError(f"uirs_altitude must be finite and >= 0, got {self.uirs_altitude!r}")
        object.__setattr__(self, "assignment", tuple(self.assignment))

    def serving_surface_id(self, user_id: str) -> Optional[str]:
        for uid, sid in self.assignment:
            if uid == user_id:
                return sid
        raise ValueError(f"unknown user {user_id!r}")


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


def _state_model(scenario: "Scenario", state: LinkState):
    if state is LinkState.LOS:
        return scenario.path_loss("los")
    if state is LinkState.NLOS:
        return scenario.path_loss("nlos")
    raise ValueError("blocked links have no path-loss model")


def _leg_amplitude(
    scenario: "Scenario", a_id: str, a_pos, b_id: str, b_pos, aerial_altitude: float
) -> float:
    """Amplitude gain of the leg between two Position3Ds in its resolved state, 0 if blocked."""
    state = resolve_link_state(scenario.link_rules, a_id, b_id, aerial_altitude)
    if state is LinkState.BLOCKED:
        return 0.0
    return leg_amplitude(a_pos.distance_to(b_pos), _state_model(scenario, state), scenario.radio)


def _direct_amplitude(scenario: "Scenario", user: Node) -> float:
    bs = scenario.bs_node()
    direct_alt = max(bs.position.z, user.position.z)
    return _leg_amplitude(scenario, bs.id, bs.position, user.id, user.position, direct_alt)


def _surface_legs(
    scenario: "Scenario", surface: IrsSurface, altitude: float, user: Node
) -> Tuple[float, float]:
    """Amplitudes of the BS -> surface and surface -> user legs."""
    bs = scenario.bs_node()
    if surface.kind is SurfaceKind.AERIAL_MOUNTED:
        surf_pos = surface.at_altitude(altitude).position
        leg_alt = altitude
    else:
        surf_pos = surface.position
        leg_alt = surface.position.z
    up = _leg_amplitude(scenario, bs.id, bs.position, surface.id, surf_pos, leg_alt)
    down = _leg_amplitude(scenario, surface.id, surf_pos, user.id, user.position, leg_alt)
    return up, down


def _rate_through(
    scenario: "Scenario",
    surface: Optional[IrsSurface],
    elements: int,
    altitude: float,
    user: Node,
    num_users: int,
) -> float:
    """User rate through one serving surface (or none), prelog 1/num_users."""
    amplitude = _direct_amplitude(scenario, user)
    if surface is not None and elements > 0:
        up, down = _surface_legs(scenario, surface, altitude, user)
        amplitude += elements * up * down
    return link_rate(amplitude, scenario.radio) / num_users


def _check_plan(scenario: "Scenario", plan: DeploymentPlan) -> None:
    aerial, terrestrial = _deployment_surfaces(scenario)
    users = {u.id: u for u in scenario.user_nodes()}
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
    """
    users = scenario.user_nodes()
    by_id = {u.id: u for u in users}
    if user_id not in by_id:
        raise ValueError(f"unknown user {user_id!r}")
    _check_plan(scenario, plan)
    aerial, terrestrial = _deployment_surfaces(scenario)
    sid = plan.serving_surface_id(user_id)
    if sid is None:
        surface, elements = None, 0
    elif sid == aerial.id:
        surface, elements = aerial, plan.aerial_elements
    else:
        surface, elements = terrestrial, plan.terrestrial_elements
    return _rate_through(
        scenario, surface, elements, plan.uirs_altitude, by_id[user_id], len(users)
    )


def _aerial_threshold(scenario: "Scenario", aerial: IrsSurface, user_id: str) -> float:
    return scenario.link_rules.rule_for(aerial.id, user_id).min_altitude_for_los


class _HybridSweep(NamedTuple):
    """The hybrid rule at every split n_aerial = 0..n_budget, one column per split."""

    n_budget: int
    user_ids: Tuple[str, ...]
    aerial_id: str
    ground_ids: Tuple[Optional[str], ...]  # the terrestrial id if covered, else None
    on_air: List[List[bool]]  # [user][split]: served by the aerial surface
    altitudes: List[float]  # [split]
    rates: List[List[float]]  # [user][split], bps/Hz

    def plan(self, n_aerial: int) -> DeploymentPlan:
        on_air = [row[n_aerial] for row in self.on_air]
        return DeploymentPlan(
            aerial_elements=n_aerial,
            terrestrial_elements=self.n_budget - n_aerial,
            uirs_altitude=self.altitudes[n_aerial],
            assignment=tuple(
                (uid, self.aerial_id if air else ground)
                for uid, air, ground in zip(self.user_ids, on_air, self.ground_ids)
            ),
        )


def _hybrid_sweep(scenario: "Scenario") -> _HybridSweep:
    """Altitude, assignment and rates of every element split at once.

    Users without terrestrial coverage go to the aerial surface when LoS is
    attainable. Each terrestrially covered user then takes whichever surface
    yields it the higher rate -- the aerial option priced at the altitude
    needed if that user joins -- with ties to the terrestrial surface. The
    final altitude is the lowest giving LoS to all aerially assigned users.

    Leg amplitudes come from the scalar code once per user and candidate
    altitude ({0} and the finite LoS thresholds, for the aerial surface only
    those at or above the user's own); the rule then runs split by split on
    lists. Every rate goes through the scalar branch of `link_rate`, so it is
    bit-identical to `user_rate` on the same plan; numpy's array logarithm and
    `**` need not round as the scalar ones do.
    """
    n_budget = scenario.experiment.n_budget
    aerial, terrestrial = _deployment_surfaces(scenario)
    users = scenario.user_nodes()
    num_users = len(users)
    radio = scenario.radio
    splits = range(n_budget + 1)  # n_aerial, also the index of each split
    thresholds = [_aerial_threshold(scenario, aerial, u.id) for u in users]
    altitudes = sorted({0.0, *(t for t in thresholds if math.isfinite(t))})
    covered = [covers(terrestrial, u.position, node_id=u.id) for u in users]

    def rates(surface, altitude, user, elements):
        up, down = _surface_legs(scenario, surface, altitude, user)
        direct = _direct_amplitude(scenario, user)
        return [link_rate(direct + n * up * down, radio) / num_users for n in elements]

    # Rate without the aerial surface: through the terrestrial one if it
    # covers the user, else over the direct link alone (zero elements).
    ground = [
        rates(terrestrial, 0.0, u, [(n_budget - n) * c for n in splits])
        for u, c in zip(users, covered)
    ]
    # Below its LoS threshold a user can never be served by the aerial surface.
    air = [
        [rates(aerial, alt, u, splits) if alt >= t else None for u, t in zip(users, thresholds)]
        for alt in altitudes
    ]

    level = [0] * len(splits)  # index into altitudes, per split
    on_air = [[False] * len(splits) for _ in users]
    for i in sorted(range(num_users), key=lambda i: covered[i]):  # uncovered first
        if not math.isfinite(thresholds[i]):
            continue
        needed = altitudes.index(thresholds[i])
        for n in splits[1:]:  # no aerial elements, no aerial service
            level_if = level[n] if level[n] > needed else needed
            if not covered[i] or air[level_if][i][n] > ground[i][n]:
                on_air[i][n] = True
                level[n] = level_if
    return _HybridSweep(
        n_budget=n_budget,
        user_ids=tuple(u.id for u in users),
        aerial_id=aerial.id,
        ground_ids=tuple(terrestrial.id if c else None for c in covered),
        on_air=on_air,
        altitudes=[altitudes[k] for k in level],
        rates=[
            [air[level[n]][i][n] if on_air[i][n] else ground[i][n] for n in splits]
            for i in range(num_users)
        ],
    )


def _evaluate_plan(
    scenario: "Scenario", plan: DeploymentPlan, strategy: DeploymentStrategy
) -> DeploymentResult:
    users = scenario.user_nodes()
    rates = tuple(user_rate(scenario, plan, u.id) for u in users)
    return DeploymentResult(
        plan=plan,
        user_ids=tuple(u.id for u in users),
        per_user_rates=rates,
        min_rate=min(rates),
        strategy=strategy,
    )


def evaluate_strategy(scenario: "Scenario", strategy: DeploymentStrategy) -> DeploymentResult:
    """Evaluate one deployment strategy for the experiment's element budget.

    USER_SIDE puts the whole budget on the terrestrial surface (uncovered
    users stay unserved); BS_SIDE puts it on the aerial surface at the lowest
    altitude with LoS to every user that can ever reach LoS; HYBRID enumerates
    every (n_aerial, n_terrestrial) split, applies the hybrid altitude and
    assignment rule to each, and keeps the highest min rate, ties to the
    fewest aerial elements. Its winner is re-evaluated and checked through
    `user_rate`.
    """
    if not isinstance(strategy, DeploymentStrategy):
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy is DeploymentStrategy.HYBRID:
        sweep = _hybrid_sweep(scenario)
        minima = [min(rates) for rates in zip(*sweep.rates)]
        best = minima.index(max(minima))  # first maximum
        return _evaluate_plan(scenario, sweep.plan(best), strategy)

    n_budget = scenario.experiment.n_budget
    aerial, terrestrial = _deployment_surfaces(scenario)
    users = scenario.user_nodes()
    if strategy is DeploymentStrategy.USER_SIDE:
        assignment = tuple(
            (u.id, terrestrial.id if covers(terrestrial, u.position, node_id=u.id) else None)
            for u in users
        )
        plan = DeploymentPlan(0, n_budget, 0.0, assignment)
    else:  # BS_SIDE
        reachable = [
            u.id
            for u in users
            if math.isfinite(_aerial_threshold(scenario, aerial, u.id))
        ]
        altitude = min_serving_altitude(aerial, reachable, scenario.link_rules)
        assignment = tuple(
            (u.id, aerial.id if u.id in reachable and n_budget > 0 else None)
            for u in users
        )
        plan = DeploymentPlan(n_budget, 0, altitude, assignment)
    return _evaluate_plan(scenario, plan, strategy)


def allocation_sweep(scenario: "Scenario"):
    """All element splits in order: hybrid rule applied at each n_aerial.

    Returns one DeploymentResult per n_aerial in 0..experiment.n_budget;
    useful for plotting rate-vs-allocation curves.
    """
    sweep = _hybrid_sweep(scenario)
    return [
        DeploymentResult(
            plan=sweep.plan(n_aerial),
            user_ids=sweep.user_ids,
            per_user_rates=tuple(rates),
            min_rate=min(rates),
            strategy=DeploymentStrategy.HYBRID,
        )
        for n_aerial, rates in enumerate(zip(*sweep.rates))
    ]
