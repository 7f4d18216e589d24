"""Minimum-time UAV data-collection missions under a max-min rate target.

The mission-time problem is solved by an outer bisection on the discretized
mission duration T = M * slot_duration. Each candidate T is scored by an inner
block-coordinate descent that alternates two blocks until the scheduled
min-throughput stalls:

  * schedule block -- one exact max-min TDMA linear program over the per-slot
    rate matrix (scipy/HiGHS); HiGHS returns the same optimum for the same
    input, so the schedule is deterministic without a tie-break;
  * trajectory block -- one projected ascent step on the softmin-smoothed
    objective, using the closed-form gradient of the rates in the horizontal
    waypoint coordinates and the exact Euclidean projection onto the speed
    constraints (a primal-dual interior-point solve with banded Newton
    systems, which projects a line search's candidates as one stack). Any
    step that lowers the true (hard-min) objective is rejected.

The inner objective is non-decreasing across accepted iterations by
construction, and every trajectory ever returned is speed-feasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.optimize import linprog

from .channel import LinkState, Position3D, path_gain, resolve_link_state
from .errors import ConfigurationError
from .scenario import Scenario, TrajectoryConstraints

SPEED_SLACK = 1e-9  # tolerance on ||waypoint step|| <= v_max * slot_duration
# Trajectory step: softmin temperature (bps/Hz), line-search shrink factor and
# backtrack cap. BCD: iteration cap per duration and relative stall tolerance.
_SOFTMIN_TEMPERATURE = 0.05
_BACKTRACK_SHRINK = 0.5
_MAX_BACKTRACKS = 30
_BCD_MAX_ITERATIONS = 200
_BCD_REL_TOL = 1e-4
# Speed-projection interior-point solve: stopping tolerance (per unit of
# max_step), lowest slack the centering aims at (per max_step^2, above the
# rounding in the coordinates), share of the way to the nearest bound a step
# may go (more once the mean gap is below 1% of max_step^2), step cap.
_IPM_TOL = 1e-10
_IPM_SLACK_FLOOR = 1e-13
_IPM_REACH = 0.99
_IPM_MAX_STEPS = 50


@dataclass(eq=False)
class Trajectory:
    """Discretized path: M+1 waypoints flown at one waypoint per slot."""

    waypoints: np.ndarray  # (M+1, 3)
    slot_duration: float

    def __post_init__(self):
        self.waypoints = np.asarray(self.waypoints, dtype=float)
        if self.waypoints.ndim != 2 or self.waypoints.shape[1] != 3:
            raise ValueError("waypoints must have shape (M+1, 3)")
        if self.waypoints.shape[0] < 2:
            raise ValueError("a trajectory needs at least one slot (two waypoints)")

    @property
    def num_slots(self) -> int:
        return self.waypoints.shape[0] - 1

    @property
    def mission_time(self) -> float:
        return self.num_slots * self.slot_duration

    def segment_lengths(self) -> np.ndarray:
        return np.linalg.norm(np.diff(self.waypoints, axis=0), axis=1)

    def max_segment_length(self) -> float:
        return float(self.segment_lengths().max())

    def is_speed_feasible(self, constraints: TrajectoryConstraints) -> bool:
        return self.max_segment_length() <= constraints.max_step + SPEED_SLACK

    def closest_approach(self, position: Position3D) -> float:
        """Smallest waypoint distance to a point (detour diagnostics)."""
        d = np.linalg.norm(self.waypoints - position.as_array(), axis=1)
        return float(d.min())


@dataclass(eq=False)
class Schedule:
    """TDMA time-sharing fractions, K nodes by M slots; column sums <= 1."""

    fractions: np.ndarray

    def __post_init__(self):
        self.fractions = np.asarray(self.fractions, dtype=float)
        if self.fractions.ndim != 2:
            raise ValueError("fractions must be a K x M matrix")
        if np.any(self.fractions < 0) or np.any(self.fractions > 1 + 1e-9):
            raise ValueError("fractions must lie in [0, 1]")
        col = self.fractions.sum(axis=0)
        if np.any(col > 1 + 1e-9):
            raise ValueError("per-slot fractions must sum to <= 1")


@dataclass(eq=False)
class CandidateProbe:
    """One evaluated mission duration during the outer bisection."""

    mission_time: float
    feasible: bool
    achieved_min_rate: float
    # Scheduled min-throughput at the start and after each BCD iteration; an
    # iteration whose step was rejected repeats the last value.
    objective_history: List[float]
    note: str = ""  # "speed" marks durations ruled out by the speed bound alone


@dataclass(eq=False)
class MissionResult:
    """Outcome of a minimum-time mission optimization.

    iterations counts accepted inner BCD iterations summed over every duration
    probed by the bisection. probes records each evaluated duration (including
    the sub-minimum duration ruled out by the speed constraint) so feasibility
    bookkeeping can be audited.
    """

    trajectory: Trajectory
    schedule: Schedule
    mission_time: float
    achieved_min_rate: float
    per_node_rates: np.ndarray
    node_ids: Tuple[str, ...]
    iterations: int
    converged: bool
    rate_target: float
    probes: List[CandidateProbe] = field(default_factory=list)


class _RateEvaluator:
    """Vectorized per-slot rate computation with static geometry precomputed.

    The surface-to-node leg and all link states are independent of the UAV
    position, so only the UAV-to-node and UAV-to-surface distances are
    evaluated per waypoint.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        constraints = scenario.experiment.constraints
        self.radio = scenario.radio
        self.nodes = scenario.sensor_nodes()
        if not self.nodes:
            raise ConfigurationError("trajectory scenario has no sensor nodes")
        self.node_ids = tuple(n.id for n in self.nodes)
        self.node_pos = np.array([n.position.as_array() for n in self.nodes])
        uav = scenario.uav_node()
        model_direct = scenario.path_loss("uav_sn")

        k = len(self.nodes)
        self._direct_blocked = np.zeros(k, dtype=bool)
        self._direct_exp = model_direct.exponent
        # Per node: serving surface index into self._surfaces, or -1.
        self._serving = np.full(k, -1, dtype=int)
        self._dst_amplitude = np.zeros(k)  # static surface->node per-element amplitude
        self._surfaces = []
        surf_index = {}

        for i, node in enumerate(self.nodes):
            rule = scenario.link_rules.rule_for(uav.id, node.id)
            state = resolve_link_state(
                (uav.id, node.id), constraints.fixed_altitude, rule
            )
            self._direct_blocked[i] = state is LinkState.BLOCKED

            surface = scenario.covering_surface(node.id)
            if surface is None or surface.num_elements == 0:
                continue
            leg_up = resolve_link_state(
                (uav.id, surface.id),
                constraints.fixed_altitude,
                scenario.link_rules.rule_for(uav.id, surface.id),
            )
            leg_down = resolve_link_state(
                (surface.id, node.id),
                surface.position.z,
                scenario.link_rules.rule_for(surface.id, node.id),
            )
            if leg_up is LinkState.BLOCKED or leg_down is LinkState.BLOCKED:
                continue
            if surface.id not in surf_index:
                surf_index[surface.id] = len(self._surfaces)
                self._surfaces.append(surface)
            self._serving[i] = surf_index[surface.id]
            d_down = surface.position.distance_to(node.position)
            self._dst_amplitude[i] = surface.num_elements * math.sqrt(
                path_gain(d_down, scenario.path_loss("irs_sn"), self.radio)
            )

        self._surf_pos = (
            np.array([s.position.as_array() for s in self._surfaces])
            if self._surfaces
            else np.zeros((0, 3))
        )
        self._uav_irs_exp = (
            scenario.path_loss("uav_irs").exponent if self._surfaces else None
        )

    def _amp_gain(
        self, offset: np.ndarray, exponent: float, with_slope: bool
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Amplitude gain sqrt(g0) * d^(-exponent/2) of one leg, d = ||offset||.

        With with_slope, also its gradient with respect to the horizontal
        components of offset: -(exponent/2) * gain / d^2 * offset, and zero
        inside the reference-distance clamp, where the gain is constant.
        """
        dist = np.linalg.norm(offset, axis=-1)
        clamped = np.maximum(dist, self.radio.reference_distance)
        gain = math.sqrt(self.radio.ref_path_gain) * clamped ** (-exponent / 2.0)
        if not with_slope:
            return gain, None
        coeff = np.where(
            dist > self.radio.reference_distance, -0.5 * exponent * gain / clamped**2, 0.0
        )
        return gain, coeff[..., None] * offset[..., :2]

    def _amplitude(
        self, wp: np.ndarray, with_slope: bool
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Direct plus reflected amplitude A[k, t] at UAV positions wp[t].

        With with_slope, also dA[k, t] / d(horizontal wp[t]), shape (K, M, 2).
        """
        amp, slope = self._amp_gain(
            wp[None, :, :] - self.node_pos[:, None, :], self._direct_exp, with_slope
        )
        amp[self._direct_blocked] = 0.0
        if with_slope:
            slope[self._direct_blocked] = 0.0
        for j in range(len(self._surfaces)):
            a_up, s_up = self._amp_gain(wp - self._surf_pos[j], self._uav_irs_exp, with_slope)
            served = self._serving == j
            amp[served] += self._dst_amplitude[served, None] * a_up[None, :]
            if with_slope:
                slope[served] += self._dst_amplitude[served, None, None] * s_up[None, :, :]
        return amp, slope

    def rates(self, waypoints: np.ndarray) -> np.ndarray:
        """Rate matrix R[k, t] = log2(1 + SNR) at waypoints[t], t = 0..M-1."""
        amp, _ = self._amplitude(waypoints[:-1], False)
        snr = (self.radio.tx_power / self.radio.noise_power) * amp**2
        return np.log2(1.0 + snr)

    def rate_gradient(self, waypoints: np.ndarray) -> np.ndarray:
        """dR[k, t] / d(horizontal waypoints[t]), shape (K, M, 2); R as in rates."""
        amp, slope = self._amplitude(waypoints[:-1], True)
        gamma = self.radio.tx_power / self.radio.noise_power
        # R = log2(1 + gamma A^2), so dR = 2 gamma A / ((1 + gamma A^2) ln 2) dA.
        factor = 2.0 * gamma * amp / ((1.0 + gamma * amp**2) * math.log(2.0))
        return factor[:, :, None] * slope


def per_slot_rates(scenario: Scenario, trajectory: Trajectory) -> np.ndarray:
    """Per-node, per-slot spectral efficiencies along a trajectory.

    Row order follows the scenario's sensor-node order; slot t is evaluated at
    waypoint t. The reflected path through a covering surface is combined
    coherently with the direct path; nodes colocated with a waypoint are
    handled by the 1 m reference-distance clamp.
    """
    constraints = scenario.experiment.constraints
    if not trajectory.is_speed_feasible(constraints):
        raise ValueError("trajectory violates the speed bound")
    return _RateEvaluator(scenario).rates(trajectory.waypoints)


def optimal_schedule(R: np.ndarray, slot_duration: float) -> Tuple[Schedule, float]:
    """Exact max-min TDMA allocation for a fixed rate matrix.

    Solves max m s.t. sum_t tau[k,t] * slot_duration * R[k,t] >= m for all k,
    sum_k tau[k,t] <= 1 for all t, 0 <= tau <= 1, as one LP; among tied
    optima the schedule is the one HiGHS returns, the same for the same
    input. Returns the schedule, with solver rounding clipped back into the
    bounds, and the min throughput it achieves (bps/Hz * s). A node with
    all-zero rates yields m = 0, not an error.
    """
    R = np.asarray(R, dtype=float)
    if R.ndim != 2:
        raise ValueError("R must be a K x M matrix")
    if R.shape[0] == 0:
        raise ValueError("R needs at least one node row")
    if np.any(R < 0):
        raise ValueError("rates must be >= 0")
    if not (slot_duration > 0):
        raise ValueError("slot_duration must be > 0")
    k, m_slots = R.shape
    n_tau = k * m_slots
    throughput = slot_duration * R  # per-slot contribution of tau[k,t]

    # Columns: tau in row-major (k, t) order, then m. Rows: per node,
    # m - sum_t tau[k,t] * throughput[k,t] <= 0; per slot, sum_k tau[k,t] <= 1.
    # Built as CSC from that fixed pattern: column tau[k,t] holds
    # -throughput[k,t] in node row k and 1 in slot row t, column m a 1 in
    # every node row.
    data = np.ones(2 * n_tau + k)
    data[: 2 * n_tau : 2] = -throughput.ravel()
    rows = np.empty(2 * n_tau + k, dtype=np.int32)
    rows[: 2 * n_tau : 2] = np.repeat(np.arange(k), m_slots)
    rows[1 : 2 * n_tau : 2] = k + np.tile(np.arange(m_slots), k)
    rows[2 * n_tau :] = np.arange(k)
    starts = np.append(np.arange(0, 2 * n_tau + 1, 2), 2 * n_tau + k)
    a_ub = sp.csc_matrix((data, rows, starts), shape=(k + m_slots, n_tau + 1))
    b_ub = np.concatenate([np.zeros(k), np.ones(m_slots)])
    c = np.zeros(n_tau + 1)
    c[-1] = -1.0
    bounds = np.repeat([[0.0, 1.0]], n_tau + 1, axis=0)
    bounds[n_tau, 1] = np.inf  # m >= 0
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:  # pragma: no cover - LP is always feasible/bounded
        raise RuntimeError(f"max-min schedule LP failed: {res.message}")
    tau = np.clip(res.x[:n_tau].reshape(k, m_slots), 0.0, 1.0) + 0.0  # also clears -0.0
    col = tau.sum(axis=0)
    over = col > 1.0
    if np.any(over):
        tau[:, over] /= col[over]
    value = float((tau * throughput).sum(axis=1).min())
    return Schedule(tau), value


def _softmin(values: np.ndarray, temperature: float) -> float:
    v = values / temperature
    low = v.min()
    return -temperature * (math.log(np.exp(-(v - low)).sum()) - low)


def _softmin_weights(values: np.ndarray, temperature: float) -> np.ndarray:
    v = values / temperature
    w = np.exp(-(v - v.min()))
    return w / w.sum()


def _straight_line(start: np.ndarray, end: np.ndarray, num_slots: int) -> np.ndarray:
    """num_slots + 1 evenly spaced points from start to end, both copied exactly."""
    frac = np.linspace(0.0, 1.0, num_slots + 1)[:, None]
    line = start[None, :] + frac * (end - start)[None, :]
    line[0], line[-1] = start, end
    return line


def _lengths(segments: np.ndarray) -> np.ndarray:
    return np.hypot(segments[..., 0], segments[..., 1])


def _slack(seg: np.ndarray, max_step: float) -> np.ndarray:
    length = np.hypot(seg.real, seg.imag)  # seg holds complex x + iy
    return 0.5 * (max_step - length) * (max_step + length)  # no cancellation


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] @ b[i] for each row i, one BLAS dot per row as for a single row.

    A sum over axis 1 would add in another order and round differently.
    """
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _step_to_boundary(slack, b, a, lam, dlam, reach) -> np.ndarray:
    """Per chain, the largest step <= 1 going at most reach of the way to any bound.

    A step alpha lowers a segment's slack u by alpha * b + alpha^2 * a / 2
    (b = s . ds, a = ||ds||^2): the root at reach * u is taken in its
    cancellation-free form for the sign of b. Multipliers move linearly.
    reach is one number or one per chain. The branch np.where drops may
    divide by zero or overflow, so the caller turns floating-point warnings off.
    """
    reach = np.broadcast_to(reach, slack.shape[:1])
    kept = reach[:, None] * slack
    root = np.sqrt(b * b + 2.0 * a * kept)
    primal = np.where(b >= 0.0, 2.0 * kept / (b + root), (root - b) / a).min(axis=1)
    fall = (-dlam / lam).max(axis=1)
    return np.minimum(np.minimum(1.0, primal), np.where(fall > 0.0, reach / fall, 1.0))


def _interior_point_chain(xy: np.ndarray, line: np.ndarray, max_step: float) -> np.ndarray:
    """Interior points of argmin ||w - xy[i]|| s.t. ||w[t+1] - w[t]|| <= max_step, per path i.

    xy stacks B paths of M + 1 points with shared endpoints, shape
    (B, M + 1, 2); the result has shape (B, M - 1, 2). Primal-dual
    interior-point method, Mehrotra's predictor-corrector (Mehrotra 1992),
    on u_t = (L^2 - ||s_t||^2) / 2 >= 0, s_t = w[t+1] - w[t], L = max_step,
    endpoints fixed. Every chain starts from line, the straight path, which
    must be strictly feasible, and every iterate stays so: a step goes at
    most max(_IPM_REACH, 1 - mu / L^2) of the way to any bound and is halved
    while rounding puts a segment outside the ball.

    Eliminating the multipliers lam leaves H dw = -(w - xy) - D^T(s q / u),
    H = I + sum_t D_t^T (lam_t I + (lam_t / u_t) s_t s_t^T) D_t, SPD with three
    upper bands in the order (x1, y1, x2, ...) of a complex array x + iy
    viewed as floats. The predictor has q = 0; the corrector aims at sigma *
    mu (mu = lam . u / M, sigma = (mu_aff / mu)^3), at no slack below
    _IPM_SLACK_FLOOR * L^2, plus the second-order term. A chain stops once
    its stationarity residual is below _IPM_TOL * L and each of its segments
    has slack below _IPM_TOL * L^2 or multiplier below _IPM_TOL, or after
    _IPM_MAX_STEPS.

    The chains are solved together but each on its own: per-chain arrays
    have shape (B, M), one banded matrix holds their Newton systems end to
    end with no coupling between them, each chain takes its own step length,
    halving and stopping test, and a chain that stops leaves the stack.
    Each chain's iterates are bit for bit those of its solve alone: the zero
    coupling changes no rounding in dpbtrf or dpbtrs, mu is one dot per
    chain, and sigma * mu is Python float arithmetic, because numpy's array
    power rounds differently.
    """
    m = xy.shape[1] - 1
    width = 2 * (m - 1)  # unknowns per chain in the band
    target = xy[:, 1:-1, 0] + 1j * xy[:, 1:-1, 1]
    path = np.repeat((line[:, 0] + 1j * line[:, 1])[None, :], xy.shape[0], axis=0)
    seg = path[:, 1:] - path[:, :-1]
    slack = _slack(seg, max_step)
    lam = np.ones(seg.shape)
    live = np.arange(xy.shape[0])  # input index of each chain still in the stack
    out = np.empty(target.shape, dtype=complex)
    area = max_step * max_step
    steps = 0
    with np.errstate(all="ignore"):  # for _step_to_boundary
        while live.size and steps < _IPM_MAX_STEPS:
            fit = path[:, 1:-1] - target
            force = lam * seg
            residual = fit + force[:, :-1] - force[:, 1:]
            gone = (np.abs(residual).max(axis=1) <= _IPM_TOL * max_step) & (
                np.minimum(slack, lam * area).max(axis=1) <= _IPM_TOL * area
            )
            if not gone.any():
                # Per-segment 2x2 blocks lam I + (lam / u) s s^T of H: the xx and
                # yy entries interleaved like the unknowns, and the xy entry.
                ratio = lam / slack
                diag = lam[..., None] + ratio[..., None] * seg.view(float).reshape(-1, m, 2) ** 2
                cross = ratio * seg.real * seg.imag
                band = np.zeros((4, live.size, width))  # chains' first columns stay uncoupled
                band[3] = 1.0 + (diag[:, :-1] + diag[:, 1:]).reshape(-1, width)
                band[1, :, 2:] = -diag[:, 1:-1].reshape(-1, width - 2)
                band[2, :, 1::2] = cross[:, :-1] + cross[:, 1:]
                band[2, :, 2::2] = band[0, :, 3::2] = -cross[:, 1:-1]
                chol, info = dpbtrf(band.reshape(4, -1))
                if info:  # H is SPD; only rounding at a degenerate optimum gets here
                    gone = np.arange(live.size) == (info - 1) // width
            if gone.any():
                out[live[gone]] = path[gone, 1:-1]
                keep = ~gone
                live, target, path, seg, slack, lam = (
                    v[keep] for v in (live, target, path, seg, slack, lam)
                )
                continue
            conj_seg = seg.conj()
            step = np.zeros_like(path)  # endpoints stay zero

            def direction(rhs, q):
                """b = s . ds (the linearized slack falls by b), dlam, a = ||ds||^2."""
                solved = dpbtrs(chol, rhs.view(float).ravel())[0]
                step[:, 1:-1] = solved.view(complex).reshape(rhs.shape)
                dseg = step[:, 1:] - step[:, :-1]
                b = (conj_seg * dseg).real
                return b, (q - lam * (slack - b)) / slack, (dseg * dseg.conj()).real

            mu = _row_dot(lam, slack) / m
            b, dlam, a = direction(-fit, 0.0)  # predictor
            alpha = _step_to_boundary(slack, b, a, lam, dlam, 1.0)
            mu_aff = _row_dot(slack - alpha[:, None] * b, lam + alpha[:, None] * dlam) / m
            aim = np.array([(x / y) ** 3 * y for x, y in zip(mu_aff.tolist(), mu.tolist())])
            q = np.maximum(aim[:, None], _IPM_SLACK_FLOOR * area * lam) + b * dlam
            pull = seg * (q / slack)
            b, dlam, a = direction(pull[:, 1:] - pull[:, :-1] - fit, q)  # corrector
            reach = np.maximum(_IPM_REACH, 1.0 - mu / area)
            alpha = _step_to_boundary(slack, b, a, lam, dlam, reach)
            while True:
                trial = path + alpha[:, None] * step
                trial_seg = trial[:, 1:] - trial[:, :-1]
                trial_slack = _slack(trial_seg, max_step)
                outside = ~(trial_slack.min(axis=1) > 0.0)
                if not outside.any():
                    break
                alpha[outside] *= 0.5
            path, seg, slack = trial, trial_seg, trial_slack
            lam = lam + alpha[:, None] * dlam
            steps += 1
    out[live] = path[:, 1:-1]
    return np.stack([out.real, out.imag], axis=-1)


def _no_slack(line: np.ndarray, max_step: float) -> bool:
    """Whether a straight line of M + 1 horizontal points is the only speed-feasible path.

    True when its step c has ||c|| >= max_step, or when rounding leaves one
    of its segments at least max_step long.
    """
    c = (line[-1] - line[0]) / (line.shape[0] - 1)
    return max_step * max_step - c @ c <= 0.0 or _lengths(np.diff(line, axis=0)).max() >= max_step


def _project_speed(wp: np.ndarray, max_step: float) -> np.ndarray:
    """Euclidean projection of a path, or of each path of a stack, onto the speed-feasible set.

    wp is one path of M + 1 waypoints, shape (M + 1, 3), or B paths that
    share M and the endpoints, shape (B, M + 1, 3); the result has wp's
    shape. Each path is projected on its own: minimize ||w - wp|| subject to
    ||w[t+1] - w[t]|| <= max_step over the horizontal coordinates of the
    interior waypoints, with the endpoints and the altitude column copied
    unchanged. A feasible path is returned as is. With no slack (a
    straight-line step of at least max_step, that is M * max_step at most
    the start-end distance, or a straight line that rounding leaves on the
    boundary) the straight line, the only candidate left, is returned
    without iterating. Otherwise the infeasible paths go through one
    interior-point solve, which starts each from the straight line, keeps
    every iterate strictly inside the speed bound and gives each path the
    bits of its solve alone, so the output is speed-feasible as it stands.
    """
    out = wp.copy()
    paths = out.reshape(-1, *wp.shape[-2:])  # a view: writes land in out
    over = ~(_lengths(np.diff(paths[:, :, :2], axis=1)).max(axis=1) <= max_step)
    if not over.any():
        return out
    line = _straight_line(paths[0, 0, :2], paths[0, -1, :2], wp.shape[-2] - 1)
    if _no_slack(line, max_step):
        paths[over, :, :2] = line
    else:
        paths[over, 1:-1, :2] = _interior_point_chain(paths[over, :, :2], line, max_step)
    return out


def improve_trajectory(
    scenario: Scenario,
    trajectory: Trajectory,
    schedule: Schedule,
    *,
    _evaluator: Optional[_RateEvaluator] = None,
) -> Trajectory:
    """One projected ascent step on the interior waypoints for a fixed schedule.

    Ascends the softmin-smoothed scheduled throughput along its closed-form
    gradient in the horizontal waypoint coordinates, backtracks the step
    size by _BACKTRACK_SHRINK up to _MAX_BACKTRACKS times, projects each
    candidate exactly onto the speed-feasible set, and rejects any candidate
    whose hard-min objective is below the input's. The softmin temperature is
    _SOFTMIN_TEMPERATURE. Endpoints and altitude stay fixed.

    The candidates are projected in two stacked solves: first the long
    steps, which move the fastest waypoint by at least max_step, then, only
    if none of those passes, the rest. The first candidate in backtracking
    order that passes is taken, the same one, bit for bit, that projecting
    and scoring one candidate at a time would take.

    When it accepts no step it returns the input object itself, and
    _solve_fixed_time relies on that identity to end its descent. That
    includes a speed budget with no slack, where the straight line is the
    only feasible path and no line search is made.
    """
    ev = _evaluator if _evaluator is not None else _RateEvaluator(scenario)
    constraints = scenario.experiment.constraints
    wp = trajectory.waypoints
    m = trajectory.num_slots
    tau = schedule.fractions
    if tau.shape != (len(ev.nodes), m):
        raise ValueError("schedule shape does not match scenario/trajectory")
    if m < 2 or _no_slack(_straight_line(wp[0, :2], wp[-1, :2], m), constraints.max_step):
        return trajectory

    # Objective over time-averaged rates (bps/Hz, matching the temperature's
    # unit); dividing by the fixed mission time rescales but never reorders.
    delta = trajectory.slot_duration
    horizon = m * delta
    s0 = (tau * ev.rates(wp)).sum(axis=1) * delta / horizon
    hard0 = float(s0.min())
    soft0 = _softmin(s0, _SOFTMIN_TEMPERATURE)
    weights = _softmin_weights(s0, _SOFTMIN_TEMPERATURE)

    # d(objective)/d(waypoint t): R[:, t] depends on waypoint t only.
    coeff = weights[:, None] * tau * (delta / horizon)
    grad = np.zeros_like(wp)
    grad[1:m, :2] = (coeff[:, 1:, None] * ev.rate_gradient(wp)[:, 1:, :]).sum(axis=0)

    largest = float(np.linalg.norm(grad, axis=1).max())
    if largest <= 0.0:
        return trajectory
    # Open the line search with a deliberately long step (many slots' worth of
    # displacement); projection restores feasibility and backtracking shrinks
    # until the candidate clears the Armijo sufficient-ascent bar without
    # lowering the hard minimum. Line searches that find nothing are common,
    # so the projections are stacked; the long steps come first because most
    # accepted steps on the shipped missions are among them. The split is
    # exact: step rounds to 16 times the rounded max_step / largest, so the
    # fifth scale equals that quotient.
    step = 16.0 * constraints.max_step / largest
    grad_sq = float((grad * grad).sum())
    armijo = 1e-4
    scales = np.array([step * _BACKTRACK_SHRINK**j for j in range(_MAX_BACKTRACKS)])
    long = scales >= constraints.max_step / largest
    for batch in (scales[long], scales[~long]):
        cands = _project_speed(wp + batch[:, None, None] * grad, constraints.max_step)
        for scale, cand in zip(batch, cands):
            s_new = (tau * ev.rates(cand)).sum(axis=1) * delta / horizon
            gain = _softmin(s_new, _SOFTMIN_TEMPERATURE) - soft0
            if float(s_new.min()) >= hard0 and gain >= armijo * scale * grad_sq:
                return Trajectory(cand.copy(), trajectory.slot_duration)  # not a view of the stack
    return trajectory


def straight_line_trajectory(
    constraints: TrajectoryConstraints, num_slots: int
) -> Trajectory:
    """Uniformly spaced straight path from start to end with num_slots slots."""
    return Trajectory(
        _straight_line(constraints.start.as_array(), constraints.end.as_array(), num_slots),
        constraints.slot_duration,
    )


def _resample(trajectory: Trajectory, num_slots: int) -> np.ndarray:
    """Time-linear resampling of a waypoint polyline to a new slot count."""
    old = trajectory.waypoints
    s_old = np.linspace(0.0, 1.0, old.shape[0])
    s_new = np.linspace(0.0, 1.0, num_slots + 1)
    return np.column_stack([np.interp(s_new, s_old, old[:, c]) for c in range(3)])


@dataclass(eq=False)
class _InnerSolution:
    trajectory: Trajectory
    schedule: Schedule
    throughput: float  # scheduled min throughput, bps/Hz * s
    history: List[float]


def _solve_fixed_time(
    scenario: Scenario,
    ev: _RateEvaluator,
    initial: Trajectory,
) -> _InnerSolution:
    """Block-coordinate descent at a fixed mission duration (monotone)."""
    delta = initial.slot_duration
    traj = initial
    sched, value = optimal_schedule(ev.rates(traj.waypoints), delta)
    history = [value]
    for _ in range(_BCD_MAX_ITERATIONS):
        cand = improve_trajectory(scenario, traj, sched, _evaluator=ev)
        if cand is traj:  # no step taken: the LP would return sched and value again
            history.append(value)
            break
        sched_new, value_new = optimal_schedule(ev.rates(cand.waypoints), delta)
        if value_new < value:  # numerical guard; rejected updates end the descent
            break
        stalled = (value_new - value) <= _BCD_REL_TOL * max(1.0, value)
        traj, sched, value = cand, sched_new, value_new
        history.append(value)
        if stalled:
            break
    return _InnerSolution(traj, sched, value, history)


def min_time_mission(
    scenario: Scenario,
    constraints: Optional[TrajectoryConstraints] = None,
    rate_target: Optional[float] = None,
    *,
    max_time: Optional[float] = None,
) -> MissionResult:
    """Shortest discretized mission meeting a per-node average-rate target.

    Bisects the mission duration over multiples of the slot length, scoring
    each candidate with the inner block-coordinate descent (warm-started from
    the previously evaluated duration). The descent at one duration stops
    after _BCD_MAX_ITERATIONS steps, or at the first step that lowers the
    scheduled value or raises it by at most _BCD_REL_TOL * max(1, value).
    A duration is feasible iff its achieved min rate reaches rate_target. If
    even max_time is infeasible the best-rate solution is returned with
    converged=False.
    """
    exp = scenario.experiment
    if constraints is not None or rate_target is not None or max_time is not None:
        exp = replace(
            exp,
            constraints=constraints if constraints is not None else exp.constraints,
            rate_target=rate_target if rate_target is not None else exp.rate_target,
            max_time=max_time if max_time is not None else exp.max_time,
        )
        scenario = scenario.with_experiment(exp)
    constraints = exp.constraints
    rate_target = exp.rate_target
    max_time = exp.max_time
    if not (rate_target > 0):
        raise ValueError("rate_target must be > 0")

    delta = constraints.slot_duration
    m_min, m_max = constraints.slot_range(max_time)

    ev = _RateEvaluator(scenario)
    probes: List[CandidateProbe] = []
    solutions = {}
    iterations = 0
    last: Optional[Trajectory] = None

    def evaluate(m: int) -> bool:
        nonlocal iterations, last
        if last is None:
            initial = straight_line_trajectory(constraints, m)
        else:
            initial = Trajectory(_project_speed(_resample(last, m), constraints.max_step), delta)
        sol = _solve_fixed_time(scenario, ev, initial)
        solutions[m] = sol
        last = sol.trajectory
        iterations += len(sol.history) - 1
        rate = sol.throughput / (m * delta)
        feasible = rate >= rate_target - 1e-9
        probes.append(CandidateProbe(m * delta, feasible, rate, sol.history))
        return feasible

    def result_for(m: int, converged: bool) -> MissionResult:
        sol = solutions[m]
        per_node = (sol.schedule.fractions * ev.rates(sol.trajectory.waypoints)).sum(
            axis=1
        ) * delta / (m * delta)
        return MissionResult(
            trajectory=sol.trajectory,
            schedule=sol.schedule,
            mission_time=m * delta,
            achieved_min_rate=float(per_node.min()),
            per_node_rates=per_node,
            node_ids=ev.node_ids,
            iterations=iterations,
            converged=converged,
            rate_target=rate_target,
            probes=probes,
        )

    if evaluate(m_min):
        # The predecessor duration cannot even reach the end point.
        probes.insert(
            0,
            CandidateProbe((m_min - 1) * delta, False, 0.0, [], note="speed"),
        )
        return result_for(m_min, converged=True)
    if m_max == m_min or not evaluate(m_max):
        best = max(
            (m for m in solutions), key=lambda m: solutions[m].throughput / (m * delta)
        )
        return result_for(best, converged=False)

    lo, hi = m_min, m_max  # invariant: lo infeasible, hi feasible
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if evaluate(mid):
            hi = mid
        else:
            lo = mid
    return result_for(hi, converged=True)
