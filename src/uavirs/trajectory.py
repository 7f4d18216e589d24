"""Minimum-time UAV data-collection missions under a max-min rate target.

The mission-time problem is solved by an outer bisection on the discretized
mission duration T = M * slot_duration. Each candidate T is scored by an inner
block-coordinate descent that alternates two blocks until the scheduled
min-throughput stalls:

  * schedule block -- one exact max-min TDMA linear program over the per-slot
    rate matrix, handed to the HiGHS core that scipy ships and solved by its
    dual simplex without presolve; HiGHS returns the same optimum for the
    same input, so the schedule is deterministic without a tie-break. Only
    a mission's first LP is solved cold. Each later LP restarts from the
    optimal basis of the LP before it, mapped to its slot count when it
    opens a probe: an optimum in far fewer simplex iterations, with values
    equal to within rounding. The basis lives in one mission alone;
  * trajectory block -- one projected ascent step on the softmin-smoothed
    objective, using the closed-form gradient of the rates in the horizontal
    waypoint coordinates and the exact Euclidean projection onto the speed
    constraints (a primal-dual interior-point solve with banded Newton
    systems, which projects a line search's candidates as one stack and
    starts each from the candidate pulled back inside the bound along the
    line to the straight path, so a small overshoot takes few Newton
    steps). With the schedule fixed, rates and slopes are priced only where
    it gives airtime, about one node per slot. Any step that lowers the true
    (hard-min) objective is rejected.

The inner objective is non-decreasing across accepted iterations by
construction, and every trajectory ever returned is speed-feasible.

Of scipy, the solver loads only the HiGHS core and LAPACK's _flapack, from
their files: importing scipy.optimize and scipy.linalg (sparse, special, fft
and more) costs a short mission more time and memory than its solve. They are
the module objects scipy's own imports give, whichever loads first. The HiGHS
core loads with this module. _flapack, which maps scipy's own OpenBLAS, loads
on the first interior-point solve of the speed projection, when dpbtrf or
dpbtrs is first read from this module (__getattr__): a mission whose speed
budget has no slack never makes one.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np
import scipy

from .channel import (
    REFERENCE_DISTANCE,
    LinkState,
    PathLossModel,
    Position3D,
    leg_amplitude,
    link_rate,
    resolve_link_state,
)
from .scenario import SPEED_SLACK, Scenario, TrajectoryConstraints


def _compiled(package, name):
    """scipy's compiled module package.name, loaded without running package's __init__."""
    directory = os.path.join(os.path.dirname(scipy.__file__), *package.split(".")[1:])
    spec = importlib.machinery.PathFinder.find_spec(f"{package}.{name}", [directory])
    if spec is None:
        raise ImportError(f"scipy has no compiled module {package}.{name}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


highs = _compiled("scipy.optimize._highspy", "_core")


def __getattr__(name):
    """Bind LAPACK's dpbtrf and dpbtrs from _flapack on first use (PEP 562)."""
    if name not in ("dpbtrf", "dpbtrs"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    flapack = _compiled("scipy.linalg", "_flapack")
    globals().update(dpbtrf=flapack.dpbtrf, dpbtrs=flapack.dpbtrs)
    return globals()[name]


# Trajectory step: softmin temperature (bps/Hz), line-search shrink factor and
# backtrack cap; the candidates move the fastest waypoint by 16 * max_step
# down to max_step / 2048 (2.4 mm at the shipped 5 m step). BCD: iteration
# cap per duration and relative stall tolerance.
_SOFTMIN_TEMPERATURE = 0.05
_BACKTRACK_SHRINK = 0.5
_MAX_BACKTRACKS = 16
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
# Halvings of a step length in (0, 1] after which it is 0 and keeps the
# strictly feasible path; only a non-finite slack or step gets past them.
_IPM_MAX_HALVINGS = 1075
# The HiGHS options scipy's linprog(method="highs") sets with its defaults,
# except presolve: it finds nothing to reduce in a schedule LP whose rates
# are all positive (HiGHS logs "Not reduced"), and there the dual simplex
# takes the same path and returns the same bits without it. With a zero rate
# HiGHS may return another optimum, with the same value to within rounding.
_HIGHS_OPTIONS = highs.HighsOptions()
_HIGHS_OPTIONS.presolve = "off"
_HIGHS_OPTIONS.output_flag = False
_HIGHS_OPTIONS.log_to_console = False
_HIGHS_OPTIONS.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
_HIGHS_OPTIONS.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone


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
        if not np.isfinite(self.waypoints).all():
            raise ValueError("waypoints must be finite")
        if not (0 < self.slot_duration < math.inf):  # also rejects NaN
            raise ValueError("slot_duration must be finite and > 0")

    @property
    def num_slots(self) -> int:
        return self.waypoints.shape[0] - 1

    @property
    def mission_time(self) -> float:
        return self.num_slots * self.slot_duration

    def is_speed_feasible(self, constraints: TrajectoryConstraints) -> bool:
        """Whether every waypoint step is at most max_step + SPEED_SLACK."""
        steps = np.linalg.norm(np.diff(self.waypoints, axis=0), axis=1)
        return bool(steps.max() <= constraints.max_step + SPEED_SLACK)

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
        if not np.all((self.fractions >= 0) & (self.fractions <= 1 + 1e-9)):  # also rejects NaN
            raise ValueError("fractions must be finite and lie in [0, 1]")
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
        altitude = scenario.experiment.constraints.fixed_altitude
        rules = scenario.link_rules
        self.radio = scenario.radio
        self.nodes = scenario.sensor_nodes()  # at least one: the Scenario checks that
        self.node_ids = tuple(n.id for n in self.nodes)
        self.node_pos = np.array([n.position.as_array() for n in self.nodes])
        uav = scenario.uav_node()

        k = len(self.nodes)
        self._direct_blocked = np.zeros(k, dtype=bool)
        self._direct_model = scenario.path_loss("uav_sn")
        # Per node: serving surface index into self._surf_pos, or -1.
        self._serving = np.full(k, -1, dtype=int)
        self._dst_amplitude = np.zeros(k)  # static surface->node per-element amplitude
        self._surf_pos = []  # positions of the serving surfaces
        surf_index = {}

        for i, node in enumerate(self.nodes):
            state = resolve_link_state(rules, uav.id, node.id, altitude)
            self._direct_blocked[i] = state is LinkState.BLOCKED

            surface = scenario.covering_surface(node.id)
            if surface is None or surface.num_elements == 0:
                continue
            leg_up = resolve_link_state(rules, uav.id, surface.id, altitude)
            leg_down = resolve_link_state(rules, surface.id, node.id, surface.position.z)
            if leg_up is LinkState.BLOCKED or leg_down is LinkState.BLOCKED:
                continue
            if surface.id not in surf_index:
                surf_index[surface.id] = len(self._surf_pos)
                self._surf_pos.append(surface.position.as_array())
            self._serving[i] = surf_index[surface.id]
            d_down = surface.position.distance_to(node.position)
            self._dst_amplitude[i] = surface.num_elements * leg_amplitude(
                d_down, scenario.path_loss("irs_sn"), self.radio
            )

        self._uav_irs_model = scenario.path_loss("uav_irs") if self._surf_pos else None
        self._every = (np.arange(k)[:, None], slice(-1))  # every node at slots 0..M-1

    def _amp_gain(
        self, offset: np.ndarray, model: PathLossModel, with_slope: bool
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Amplitude gain leg_amplitude(d) of one leg, d = ||offset||.

        With with_slope, also its gradient with respect to the horizontal
        components of offset: -(exponent/2) * gain / d^2 * offset, and zero
        inside the reference-distance clamp, where the gain is constant.
        """
        dist = np.linalg.norm(offset, axis=-1)
        gain = leg_amplitude(dist, model, self.radio)
        if not with_slope:
            return gain, None
        clamped = np.maximum(dist, REFERENCE_DISTANCE)
        coeff = np.where(
            dist > REFERENCE_DISTANCE, -0.5 * model.exponent * gain / clamped**2, 0.0
        )
        return gain, coeff[..., None] * offset[..., :2]

    def _amplitude(
        self, wp: np.ndarray, ks: np.ndarray, ts: np.ndarray, with_slope: bool
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Direct plus reflected amplitude of node ks[i] at UAV position wp[ts[i]].

        ks and ts broadcast together: a column of every node and the slots
        0..M-1 give the K x M matrix, two index arrays a list of pairs, with
        the same bits per entry. wp may stack paths on leading axes (B, M + 1,
        3), each priced at the same pairs. With with_slope, also its gradient
        in the horizontal coordinates of wp[ts], on a last axis of 2.
        """
        at = wp[..., ts, :]
        amp, slope = self._amp_gain(at - self.node_pos[ks], self._direct_model, with_slope)
        blocked, dst = self._direct_blocked[ks], self._dst_amplitude[ks]
        np.copyto(amp, 0.0, where=blocked)
        if with_slope:
            np.copyto(slope, 0.0, where=blocked[..., None])
        for j, position in enumerate(self._surf_pos):
            a_up, s_up = self._amp_gain(at - position, self._uav_irs_model, with_slope)
            served = self._serving[ks] == j
            np.add(amp, dst * a_up, out=amp, where=served)
            if with_slope:
                np.add(slope, dst[..., None] * s_up, out=slope, where=served[..., None])
        return amp, slope

    def rates(self, waypoints: np.ndarray, pairs=None) -> np.ndarray:
        """Rate matrix R[k, t] = link_rate of the amplitude at waypoints[t], t = 0..M-1;
        given pairs = (ks, ts), two index arrays, only R[ks, ts], per path of a stack."""
        amp, _ = self._amplitude(waypoints, *(pairs or self._every), False)
        return link_rate(amp, self.radio)

    def rate_gradient(self, waypoints: np.ndarray, pairs=None) -> np.ndarray:
        """dR[k, t] / d(horizontal waypoints[t]), shape (K, M, 2), or at pairs; R as in rates."""
        amp, slope = self._amplitude(waypoints, *(pairs or self._every), True)
        gamma = self.radio.tx_power / self.radio.noise_power
        # R = ln(1 + gamma A^2) / ln 2, so dR = 2 gamma A / ((1 + gamma A^2) ln 2) dA.
        factor = 2.0 * gamma * amp / ((1.0 + gamma * amp**2) * math.log(2.0))
        return factor[..., None] * slope


def per_slot_rates(scenario: Scenario, trajectory: Trajectory) -> np.ndarray:
    """Per-node, per-slot spectral efficiencies along a trajectory.

    Row order follows the scenario's sensor-node order; slot t is evaluated at
    waypoint t. The reflected path through a covering surface is combined
    coherently with the direct path; nodes colocated with a waypoint are
    handled by the 1 m reference-distance clamp. Link states are resolved at
    the fixed altitude, so every waypoint must fly at it.
    """
    constraints = scenario.experiment.constraints
    if not trajectory.is_speed_feasible(constraints):
        raise ValueError("trajectory violates the speed bound")
    if np.abs(trajectory.waypoints[:, 2] - constraints.fixed_altitude).max() > 1e-9:
        raise ValueError(f"trajectory leaves the fixed altitude {constraints.fixed_altitude} m")
    return _RateEvaluator(scenario).rates(trajectory.waypoints)


class _WarmStart:
    """A HiGHS start basis for the next schedule LP, and the size of the LP it fits.

    _solve_fixed_time offers one to each LP of its descent; the next probe
    maps the last basis to its own slot count with for_slots.
    """

    __slots__ = ("basis", "size")

    def __init__(self):
        self.basis = None
        self.size = None  # (columns, rows, nonzeros) of the LP basis is for

    def for_slots(self, k: int, slots: int) -> "_WarmStart":
        """This basis of a k-node schedule LP, mapped to the LP with `slots` slots.

        New slot t takes the statuses of tau[:, s] and of slot row s, old slot
        s = min(((2t + 1) * M_old) // (2 * slots), M_old - 1) at the same
        share of the mission; node rows and m keep theirs. The result is
        alien, for HiGHS to complete; with slots = M_old it is this basis.
        """
        old = self.size[1] - k
        start = _WarmStart()
        if old == slots:
            start.basis, start.size = self.basis, self.size
            return start
        src = np.minimum((2 * np.arange(slots) + 1) * old // (2 * slots), old - 1)
        cols, rows = self.basis.col_status, self.basis.row_status
        basis = highs.HighsBasis()  # alien by default
        col_index = (old * np.arange(k)[:, None] + src).ravel().tolist()
        basis.col_status = [cols[i] for i in col_index] + cols[-1:]
        basis.row_status = rows[:k] + [rows[k + s] for s in src.tolist()]
        start.basis, start.size = basis, (k * slots + 1, k + slots, 2 * k * slots + k)
        return start


def linprog(
    cost: np.ndarray,
    starts: np.ndarray,
    rows: np.ndarray,
    data: np.ndarray,
    col_upper: np.ndarray,
    row_upper: np.ndarray,
    warm: Optional[_WarmStart] = None,
) -> np.ndarray:
    """argmin cost @ x s.t. A x <= row_upper, 0 <= x <= col_upper, by HiGHS.

    A is given in CSC form: column j holds data[starts[j]:starts[j+1]] in
    rows rows[starts[j]:starts[j+1]], with int32 starts and rows. HiGHS
    gets the LP scipy's linprog(method="highs") would hand it, with the
    options in _HIGHS_OPTIONS: scipy's defaults with presolve off. Solved
    cold, a schedule LP whose rates are all positive gets the same x as
    scipy's default linprog. The arrays go through passModel's
    array overload, which reads them in place; building a HighsLp would copy
    them into Python-bound vectors element by element. That overload reads
    num_col integrality entries whenever it is given an array, so it gets
    zeros (all continuous), never an empty one.

    With warm, the dual simplex starts from warm.basis, an optimal basis or
    an alien one HiGHS completes, when it fits an LP with the same column,
    row and nonzero counts (for a schedule LP they fix K and M); warm then
    holds this LP's optimal basis. From a nearby basis it reaches an optimum
    in far fewer iterations, with values equal to within rounding. If HiGHS
    refuses the basis, or the warm run does not end optimal, the LP is
    solved again cold, in a fresh HiGHS.
    Raises ValueError if the array sizes disagree (HiGHS would read past
    one) and RuntimeError unless HiGHS reports an optimum.
    """
    if not (cost.size == col_upper.size == starts.size - 1 and rows.size == data.size):
        raise ValueError("linprog: cost, col_upper, starts, rows and data sizes disagree")
    size = (cost.size, row_upper.size, data.size)
    warm_fits = warm is not None and warm.size == size
    for basis in (warm.basis, None) if warm_fits else (None,):
        solver = highs._Highs()
        solver.passOptions(_HIGHS_OPTIONS)
        solver.passModel(
            cost.size,
            row_upper.size,
            data.size,
            highs.MatrixFormat.kColwise,
            highs.ObjSense.kMinimize,
            0.0,
            cost,
            np.zeros(cost.size),
            col_upper,
            np.full(row_upper.size, -highs.kHighsInf),
            row_upper,
            starts,
            rows,
            data,
            np.zeros(cost.size, np.int32),  # all continuous; HiGHS reads num_col entries
        )
        if basis is not None and solver.setBasis(basis) == highs.HighsStatus.kError:
            continue
        run_status = solver.run()
        status = solver.getModelStatus()
        if run_status != highs.HighsStatus.kError and status == highs.HighsModelStatus.kOptimal:
            if warm is not None:
                warm.basis, warm.size = solver.getBasis(), size
            return np.array(solver.getSolution().col_value)
    raise RuntimeError(f"max-min schedule LP failed: {solver.modelStatusToString(status)}")


def optimal_schedule(
    R: np.ndarray, slot_duration: float, *, _warm: Optional[_WarmStart] = None
) -> Tuple[Schedule, float]:
    """Exact max-min TDMA allocation for a fixed rate matrix.

    Solves max m s.t. sum_t tau[k,t] * slot_duration * R[k,t] >= m for all k,
    sum_k tau[k,t] <= 1 for all t, 0 <= tau <= 1, as one LP that goes to
    HiGHS directly, as CSC arrays, through linprog; among tied optima the
    schedule is the one HiGHS returns, the same for the same input. Returns
    the schedule, with solver rounding clipped back into the bounds, and the
    min throughput it achieves (bps/Hz * s). A node with all-zero rates
    yields m = 0, not an error. Raises ValueError, before HiGHS runs, unless
    R is finite and >= 0, slot_duration finite and > 0 and slot_duration * R
    finite.

    Called as optimal_schedule(R, slot_duration), the LP is solved cold.
    _solve_fixed_time passes its descent's _WarmStart as _warm, so that each
    LP after the mission's first restarts from the basis of the one before
    (see linprog and _WarmStart.for_slots).
    """
    R = np.asarray(R, dtype=float)
    if R.ndim != 2:
        raise ValueError("R must be a K x M matrix")
    if R.shape[0] == 0:
        raise ValueError("R needs at least one node row")
    if not np.all((R >= 0) & np.isfinite(R)):  # also rejects NaN
        raise ValueError("rates must be finite and >= 0")
    if not (0 < slot_duration < math.inf):  # also rejects NaN
        raise ValueError("slot_duration must be finite and > 0")
    # A Python float product overflows to inf without a warning; if the
    # largest rate's is finite, so is every entry of slot_duration * R.
    if not math.isfinite(slot_duration * float(R.max(initial=0.0))):
        raise ValueError("slot_duration * R overflows")
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
    starts = 2 * np.arange(n_tau + 2, dtype=np.int32)
    starts[-1] = 2 * n_tau + k
    cost = np.zeros(n_tau + 1)
    cost[-1] = -1.0
    col_upper = np.ones(n_tau + 1)
    col_upper[-1] = highs.kHighsInf  # m >= 0
    row_upper = np.concatenate([np.zeros(k), np.ones(m_slots)])
    x = linprog(cost, starts, rows, data, col_upper, row_upper, warm=_warm)
    tau = np.clip(x[:n_tau].reshape(k, m_slots), 0.0, 1.0) + 0.0  # also clears -0.0
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


def _reach_to_bound(kept, b, a) -> np.ndarray:
    """Per chain, the smallest alpha > 0 at which some segment's slack has fallen by kept.

    A step alpha lowers a segment's slack by alpha * b + alpha^2 * a / 2
    (b = s . ds, a = ||ds||^2): the root is taken in its cancellation-free
    form for the sign of b. A segment the step leaves as it is (a = b = 0)
    gives inf. The branch np.where drops may divide by zero or overflow, so
    the caller turns floating-point warnings off.
    """
    root = np.sqrt(b * b + 2.0 * a * kept)
    return np.where(b >= 0.0, 2.0 * kept / (b + root), (root - b) / a).min(axis=1)


def _step_to_boundary(slack, b, a, lam, dlam, reach) -> np.ndarray:
    """Per chain, the largest step <= 1 going at most reach of the way to any bound.

    The slack may fall by reach * slack (_reach_to_bound); multipliers move
    linearly. reach is one float or an array of one per chain.
    """
    kept = reach * slack if isinstance(reach, float) else reach[:, None] * slack
    primal = np.minimum(1.0, _reach_to_bound(kept, b, a))
    fall = (-dlam / lam).max(axis=1)
    return np.minimum(primal, np.where(fall > 0.0, reach / fall, 1.0))


def _interior_point_chain(xy: np.ndarray, line: np.ndarray, max_step: float) -> np.ndarray:
    """Interior points of argmin ||w - xy[i]|| s.t. ||w[t+1] - w[t]|| <= max_step, per path i.

    xy stacks B paths of M + 1 points with shared endpoints, shape
    (B, M + 1, 2); the result has shape (B, M - 1, 2). Primal-dual
    interior-point method, Mehrotra's predictor-corrector (Mehrotra 1992),
    on u_t = (L^2 - ||s_t||^2) / 2 >= 0, s_t = w[t+1] - w[t], L = max_step,
    endpoints fixed. line, the straight path, must be strictly feasible.
    Each chain starts at line + _IPM_REACH * theta * (xy[i] - line), theta
    the largest value in [0, 1] that keeps every segment inside the ball
    (the smallest positive root of one quadratic per segment; a segment
    where xy[i] - line does not change is skipped), or at line itself if
    theta is not finite or rounding leaves a start segment outside the ball.
    A candidate that overshoots the bound a little thus starts next to its
    answer. Every iterate stays strictly feasible: a step goes at most
    max(_IPM_REACH, 1 - mu / L^2) of the way to any bound and is halved
    while rounding puts a segment outside the ball. The multipliers start
    at max(_IPM_TOL, (l - L) / L), l the longest segment of xy[i]: the
    candidate's own overshoot, about the size of the optimal multipliers,
    which can fall only a few times per Newton step.

    Eliminating the multipliers lam leaves H dw = -(w - xy) - D^T(s q / u),
    H = I + sum_t D_t^T (lam_t I + (lam_t / u_t) s_t s_t^T) D_t, SPD with three
    off-diagonal bands in the order (x1, y1, x2, ...) of a complex array
    x + iy viewed as floats. dpbtrf factors H in place in LAPACK's lower band
    layout, low[d, i] = H[i + d, i], in a Fortran-ordered buffer: in the
    upper layout OpenBLAS's rank-1 update walks a vector with stride 3 and
    takes more than twice as long. dpbtrs solves with that factor as it
    stands. The predictor has q = 0; the corrector aims at sigma *
    mu (mu = lam . u / M, sigma = (mu_aff / mu)^3), at no slack below
    _IPM_SLACK_FLOOR * L^2, plus the second-order term. A chain stops once
    its stationarity residual is below _IPM_TOL * L and each of its segments
    has slack below _IPM_TOL * L^2 or multiplier below _IPM_TOL, or after
    _IPM_MAX_STEPS. A step that no halving brings inside the bound (a
    non-finite slack) raises RuntimeError.

    The chains are solved together but each on its own: per-chain arrays
    have shape (B, M), one banded matrix holds their Newton systems end to
    end with no coupling between them, each chain takes its own step length,
    halving and stopping test, and a chain that stops leaves the stack.
    Each chain's iterates are bit for bit those of its solve alone: the zero
    coupling changes no rounding in dpbtrf or dpbtrs, mu is one dot per
    chain, and sigma * mu is Python float arithmetic, because numpy's array
    power rounds differently.
    """
    lapack = sys.modules[__name__]  # dpbtrf and dpbtrs bind on first read
    m = xy.shape[1] - 1
    width = 2 * (m - 1)  # unknowns per chain in the band
    cand = xy[..., 0] + 1j * xy[..., 1]
    target = cand[:, 1:-1]
    straight = (line[:, 0] + 1j * line[:, 1])[None, :]
    shift = cand - straight  # zero at the shared endpoints
    line_seg, shift_seg = (v[:, 1:] - v[:, :-1] for v in (straight, shift))
    step = np.zeros_like(cand)  # the Newton step; endpoints stay zero
    live = np.arange(xy.shape[0])  # input index of each chain still in the stack
    out = np.empty(target.shape, dtype=complex)
    area = max_step * max_step
    steps = 0
    with np.errstate(all="ignore"):  # for _reach_to_bound and _step_to_boundary
        theta = np.minimum(1.0, _reach_to_bound(
            _slack(line_seg, max_step),
            (line_seg.conj() * shift_seg).real,
            (shift_seg * shift_seg.conj()).real,
        ))
        path = straight + (_IPM_REACH * theta)[:, None] * shift
        inside = _slack(path[:, 1:] - path[:, :-1], max_step).min(axis=1) > 0.0
        path = np.where((np.isfinite(theta) & inside)[:, None], path, straight)
        seg = path[:, 1:] - path[:, :-1]
        slack = _slack(seg, max_step)
        overshoot = np.abs(cand[:, 1:] - cand[:, :-1]).max(axis=1) - max_step
        lam = np.repeat(np.maximum(_IPM_TOL, overshoot / max_step)[:, None], m, axis=1)
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
                n = live.size * width
                low = np.zeros((n, 4)).T  # Fortran order, so dpbtrf factors it in place
                band = low.reshape(4, live.size, width)  # chains' last columns stay uncoupled
                band[0] = 1.0 + (diag[:, :-1] + diag[:, 1:]).reshape(-1, width)
                band[2, :, : width - 2] = -diag[:, 1:-1].reshape(live.size, width - 2)
                band[1, :, 0::2] = cross[:, :-1] + cross[:, 1:]
                band[1, :, 1 : width - 2 : 2] = band[3, :, 0 : width - 2 : 2] = -cross[:, 1:-1]
                fac, info = lapack.dpbtrf(low, lower=1, overwrite_ab=1)
                if info:  # H is SPD; only rounding at a degenerate optimum gets here
                    gone = np.arange(live.size) == (info - 1) // width
            if gone.any():
                out[live[gone]] = path[gone, 1:-1]
                keep = ~gone
                live, target, path, seg, slack, lam, step = (
                    v[keep] for v in (live, target, path, seg, slack, lam, step)
                )
                continue
            conj_seg = seg.conj()

            def direction(rhs, q):
                """b = s . ds (the linearized slack falls by b), dlam, a = ||ds||^2."""
                solved = lapack.dpbtrs(fac, rhs.view(float).ravel(), lower=1, overwrite_b=1)[0]
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
            for _ in range(_IPM_MAX_HALVINGS + 1):
                trial = path + alpha[:, None] * step
                trial_seg = trial[:, 1:] - trial[:, :-1]
                trial_slack = _slack(trial_seg, max_step)
                outside = ~(trial_slack.min(axis=1) > 0.0)
                if not outside.any():
                    break
                alpha[outside] *= 0.5
            else:
                raise RuntimeError("speed projection: no step keeps the path inside the bound")
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
    interior-point solve, which starts each on the segment from the straight
    line to the path, keeps every iterate strictly inside the speed bound
    and gives each path the bits of its solve alone, so the output is
    speed-feasible as it stands.
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
    gradient in the horizontal waypoint coordinates, tries _MAX_BACKTRACKS
    step sizes, each _BACKTRACK_SHRINK times the last, that move the fastest
    waypoint by 16 * max_step down to max_step / 2048, projects each
    candidate exactly onto the speed-feasible set, and rejects any candidate
    whose hard-min objective is below the input's; the softmin of a candidate
    is computed only once its hard minimum passes. The softmin temperature is
    _SOFTMIN_TEMPERATURE. Endpoints and altitude stay fixed. Rates and slopes
    are priced only where tau > 0, into a zero-filled K x M matrix: elsewhere
    tau * R is +0.0 either way, so every scheduled throughput keeps its bits.

    The candidates are projected in two stacked solves: first the long
    steps, which move the fastest waypoint by at least max_step, then, only
    if none of those passes, the rest. Each stack is priced in one call, with
    the bits of each path priced alone. The first candidate in backtracking
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
    support = np.nonzero(tau)

    def throughputs(paths: np.ndarray) -> np.ndarray:
        """Scheduled throughput per node of a path, or per path of a stack."""
        priced = np.zeros((*paths.shape[:-2], *tau.shape))
        priced[(..., *support)] = ev.rates(paths, support)
        return (tau * priced).sum(axis=-1) * delta / horizon

    s0 = throughputs(wp)
    hard0 = float(s0.min())
    soft0 = _softmin(s0, _SOFTMIN_TEMPERATURE)
    weights = _softmin_weights(s0, _SOFTMIN_TEMPERATURE)

    # d(objective)/d(waypoint t): R[:, t] depends on waypoint t only.
    coeff = weights[:, None] * tau * (delta / horizon)
    slope = np.zeros((*tau.shape, 2))
    slope[support] = ev.rate_gradient(wp, support)
    grad = np.zeros_like(wp)
    grad[1:m, :2] = (coeff[:, 1:, None] * slope[:, 1:, :]).sum(axis=0)

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
        for scale, cand, s_new in zip(batch, cands, throughputs(cands)):
            if float(s_new.min()) >= hard0 and (
                _softmin(s_new, _SOFTMIN_TEMPERATURE) - soft0 >= armijo * scale * grad_sq
            ):
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
    warm: _WarmStart  # the optimal basis of the descent's last LP


def _solve_fixed_time(
    scenario: Scenario,
    ev: _RateEvaluator,
    initial: Trajectory,
    start: Optional[_WarmStart] = None,
) -> _InnerSolution:
    """Block-coordinate descent at one duration (monotone); its first LP starts from start."""
    delta = initial.slot_duration
    traj = initial
    warm = _WarmStart() if start is None else start.for_slots(len(ev.nodes), traj.num_slots)
    sched, value = optimal_schedule(ev.rates(traj.waypoints), delta, _warm=warm)
    history = [value]
    for _ in range(_BCD_MAX_ITERATIONS):
        cand = improve_trajectory(scenario, traj, sched, _evaluator=ev)
        if cand is traj:  # no step taken: the LP would return sched and value again
            history.append(value)
            break
        sched_new, value_new = optimal_schedule(ev.rates(cand.waypoints), delta, _warm=warm)
        if value_new < value:  # numerical guard; rejected updates end the descent
            break
        stalled = (value_new - value) <= _BCD_REL_TOL * max(1.0, value)
        traj, sched, value = cand, sched_new, value_new
        history.append(value)
        if stalled:
            break
    return _InnerSolution(traj, sched, value, history, warm)


def min_time_mission(scenario: Scenario) -> MissionResult:
    """Shortest discretized mission meeting the experiment's per-node rate target.

    Everything comes from scenario.experiment (constraints, rate_target,
    max_time); solve another variant with scenario.with_experiment(replace(...)).
    Bisects the mission duration over multiples of the slot length, scoring
    each candidate with the inner block-coordinate descent, started from the
    previously evaluated duration's path and last LP basis, both mapped to
    the new slot count. The descent at one duration stops
    after _BCD_MAX_ITERATIONS steps, or at the first step that lowers the
    scheduled value or raises it by at most _BCD_REL_TOL * max(1, value).
    A duration is feasible iff its achieved min rate reaches rate_target. If
    even max_time is infeasible the best-rate solution is returned with
    converged=False.
    """
    exp = scenario.experiment
    constraints = exp.constraints
    rate_target = exp.rate_target
    delta = constraints.slot_duration
    m_min, m_max = constraints.slot_range(exp.max_time)

    ev = _RateEvaluator(scenario)
    probes: List[CandidateProbe] = []
    solutions = {}
    iterations = 0
    last: Optional[_InnerSolution] = None

    def evaluate(m: int) -> bool:
        nonlocal iterations, last
        if last is None:
            sol = _solve_fixed_time(scenario, ev, straight_line_trajectory(constraints, m))
        else:
            path = _project_speed(_resample(last.trajectory, m), constraints.max_step)
            sol = _solve_fixed_time(scenario, ev, Trajectory(path, delta), last.warm)
        solutions[m] = sol
        last = sol
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
