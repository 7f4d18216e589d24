"""Independently coded reference evaluators used by the test suite.

Nothing here may import from the optimizer code paths it checks: the grid
scheduler below enumerates airtime splits directly, the deployment
evaluator recomputes rates from raw float math, the schedule LP's matrix
is assembled from blocks and solved through scipy's public linprog, and the
trajectory line search is restated one candidate at a time around the
projection and rates its caller passes in, the speed projection is checked
against its optimality conditions, and the hybrid deployment against a
brute force over every split and every assignment.
"""

import itertools
import math

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog


def grid_maxmin_schedule(R, slot_duration, step=0.05):
    """Brute-force max-min TDMA value on a fraction grid (K <= 2 only).

    For one node the whole airtime is optimal. For two nodes, enumerate row 0
    over the grid; giving row 1 every remaining fraction is optimal because
    rates are nonnegative, and the remainders stay on the grid.
    """
    R = np.asarray(R, dtype=float)
    k, m = R.shape
    levels = np.round(np.arange(0.0, 1.0 + 1e-9, step), 10)
    if k == 1:
        return float(slot_duration * R[0].sum())
    if k != 2:
        raise ValueError("grid oracle supports K <= 2")
    combos = np.array(list(itertools.product(levels, repeat=m)))
    s0 = combos @ (slot_duration * R[0])
    s1 = (1.0 - combos) @ (slot_duration * R[1])
    return float(np.minimum(s0, s1).max())


def schedule_constraint_matrix(R, slot_duration):
    """The max-min schedule LP's inequality matrix, assembled from blocks.

    Columns: tau in row-major (k, t) order, then m. Rows: per node,
    m - sum_t tau[k,t] * slot_duration * R[k,t] <= 0; per slot,
    sum_k tau[k,t] <= 1. The node rows are one CSR block, the slot rows a
    Kronecker product, and sp.bmat joins them; returned as CSC.
    """
    R = np.asarray(R, dtype=float)
    k, m = R.shape
    node_rows = sp.csr_matrix(
        (-(slot_duration * R).ravel(), np.arange(k * m), m * np.arange(k + 1)), shape=(k, k * m)
    )
    slot_rows = sp.kron(np.ones((1, k)), sp.identity(m), "csr")
    return sp.bmat([[node_rows, sp.csr_matrix(np.ones((k, 1)))], [slot_rows, None]], "csc")


def linprog_schedule_solution(R, slot_duration, presolve=False):
    """x = (tau in row-major (k, t) order, m) of the max-min schedule LP, unrounded.

    The LP of schedule_constraint_matrix with b_ub = (0 per node, 1 per
    slot), 0 <= tau <= 1, m >= 0, maximizing m, solved by
    linprog(method="highs") with scipy's default options but presolve, which
    is off unless asked for.
    """
    R = np.asarray(R, dtype=float)
    k, m = R.shape
    n_tau = k * m
    c = np.zeros(n_tau + 1)
    c[-1] = -1.0
    bounds = np.repeat([[0.0, 1.0]], n_tau + 1, axis=0)
    bounds[n_tau, 1] = np.inf
    res = linprog(
        c,
        A_ub=schedule_constraint_matrix(R, slot_duration),
        b_ub=np.concatenate([np.zeros(k), np.ones(m)]),
        bounds=bounds,
        method="highs",
        options={"presolve": presolve},
    )
    assert res.success, res.message
    return res.x


def linprog_max_min_schedule(R, slot_duration):
    """(tau, value) of the max-min schedule LP through scipy's public linprog.

    tau is linprog_schedule_solution's, presolve off, clipped into [0, 1]
    (also clearing -0.0), and any slot whose column sum rounds above 1 is
    renormalized; value is the smallest throughput that tau gives a node.
    """
    R = np.asarray(R, dtype=float)
    k, m = R.shape
    x = linprog_schedule_solution(R, slot_duration)
    tau = np.clip(x[: k * m].reshape(k, m), 0.0, 1.0) + 0.0
    col = tau.sum(axis=0)
    over = col > 1.0
    if np.any(over):
        tau[:, over] /= col[over]
    return tau, float((tau * (slot_duration * R)).sum(axis=1).min())


def leg_amplitude(a_pos, b_pos, exponent, ref_gain_db):
    """Amplitude sqrt(g0 * d**-exponent) of one link, d clamped up to 1 m."""
    g0 = 10.0 ** (ref_gain_db / 10.0)
    return math.sqrt(g0 * max(1.0, math.dist(a_pos, b_pos)) ** -exponent)


def deployment_user_rate(
    bs_pos,
    user_pos,
    surface_pos,
    elements,
    num_users,
    exponent_up,
    exponent_down,
    tx_power,
    noise_power,
    ref_gain_db,
    direct_amplitude=0.0,
):
    """Relayed rate, recomputed from scratch (no package code).

    The direct link adds direct_amplitude (0 when blocked). The float
    operations run in the package's order, so the two compare bit for bit.
    """
    up = leg_amplitude(bs_pos, surface_pos, exponent_up, ref_gain_db)
    down = leg_amplitude(surface_pos, user_pos, exponent_down, ref_gain_db)
    amp = direct_amplitude + elements * up * down
    snr = tx_power * amp**2 / noise_power
    return math.log2(1.0 + snr) / num_users


def dykstra_speed_projection(path, max_step, tol=1e-14, max_sweeps=200_000):
    """Euclidean projection of a 2-D path onto ||p[t+1] - p[t]|| <= max_step.

    Dykstra's alternating projection (Boyle & Dykstra 1986) between two sets
    whose projections are exact: the even-indexed segments and the
    odd-indexed segments, each a product of disjoint two-point balls. The
    first and last points never move. Raises if the iterates have not
    settled to tol * max(max_step, largest |coordinate|) within max_sweeps
    sweeps: far from the origin the spacing of doubles, not max_step, sets
    how still rounding lets the iterates get.
    """
    x = np.array(path, dtype=float)
    m = x.shape[0] - 1
    increments = [np.zeros_like(x), np.zeros_like(x)]

    def project_parity(y, parity):
        y = y.copy()
        for t in range(parity, m, 2):
            d = y[t + 1] - y[t]
            length = math.hypot(d[0], d[1])
            if length <= max_step:
                continue
            excess = (length - max_step) / length * d
            lo_free, hi_free = t != 0, t + 1 != m
            if lo_free and hi_free:
                y[t] += 0.5 * excess
                y[t + 1] -= 0.5 * excess
            elif lo_free:
                y[t] += excess
            elif hi_free:
                y[t + 1] -= excess
        return y

    for _ in range(max_sweeps):
        before = x
        for parity in (0, 1):
            y = project_parity(x + increments[parity], parity)
            increments[parity] = x + increments[parity] - y
            x = y
        if np.abs(x - before).max() <= tol * max(max_step, np.abs(x).max()):
            return x
    raise RuntimeError("Dykstra projection did not settle")


def speed_projection_kkt_violation(path, projected, max_step, active_tol=1e-6):
    """How far projected is from satisfying the speed projection's optimality conditions.

    projected (2-D, endpoints those of path) is the Euclidean projection of
    path onto ||p[t+1] - p[t]|| <= max_step iff it is feasible and there are
    multipliers lam >= 0, zero on segments below the bound, with
    p_t - x_t + lam_{t-1} s_{t-1} - lam_t s_t = 0 at every interior point
    (s_t = p[t+1] - p[t]); the problem is convex, so these conditions
    suffice. The multipliers of the segments within active_tol * max_step of
    the bound are fitted by least squares, the others are 0. Returns the
    largest of: the stationarity residual and the longest segment's excess,
    both per unit of max_step, and the most negative multiplier's size.
    """
    x = np.asarray(path, dtype=float)
    p = np.asarray(projected, dtype=float)
    seg = np.diff(p, axis=0)
    length = np.hypot(seg[:, 0], seg[:, 1])
    active = np.flatnonzero(length >= max_step * (1.0 - active_tol))
    m = seg.shape[0]
    # Column j is lam_j's share of the residual at the interior points 1..m-1.
    basis = np.zeros((m - 1, 2, active.size))
    for j, t in enumerate(active):
        if t >= 1:
            basis[t - 1, :, j] -= seg[t]
        if t + 1 <= m - 1:
            basis[t, :, j] += seg[t]
    basis = basis.reshape(2 * (m - 1), active.size)
    fit = (p - x)[1:-1].reshape(-1)
    lam = np.linalg.lstsq(basis, -fit, rcond=None)[0]
    residual = fit + basis @ lam
    worst_lam = -min(0.0, float(lam.min())) if lam.size else 0.0
    return max(
        float(np.abs(residual).max()) / max_step,
        float(length.max()) / max_step - 1.0,
        worst_lam,
    )


def brute_force_split(users, n_aerial, n_terrestrial, rate):
    """Highest min user rate over every user-to-surface assignment at one element split.

    users: (user id, covered by the terrestrial surface, aerial LoS
    threshold) in scenario order. rate(uid, surface, elements, altitude) is
    the user's rate through "aerial", "terrestrial" or None (direct link
    only). Each user may go to no surface (None), to the terrestrial surface
    if it covers the user, or to the aerial one if its threshold is finite;
    the aerial altitude is the module's rule, the lowest giving LoS to every
    aerial user: the highest of their thresholds, or 0.
    """
    options = [
        [None] + ["terrestrial"] * covered + ["aerial"] * math.isfinite(threshold)
        for _, covered, threshold in users
    ]
    elements = {"aerial": n_aerial, "terrestrial": n_terrestrial, None: 0}
    best = -math.inf
    for choice in itertools.product(*options):
        altitude = max([0.0] + [t for (_, _, t), s in zip(users, choice) if s == "aerial"])
        worst = min(rate(uid, s, elements[s], altitude) for (uid, _, _), s in zip(users, choice))
        best = max(best, worst)
    return best


def brute_force_deployment(users, n_budget, rate):
    """Highest min user rate over every element split and every assignment.

    Every n_aerial = 0..n_budget is tried with n_budget - n_aerial
    terrestrial elements, each by brute_force_split (users and rate as there).
    """
    return max(brute_force_split(users, n, n_budget - n, rate) for n in range(n_budget + 1))


def sequential_line_search(
    wp,
    tau,
    slot_duration,
    max_step,
    rates,
    rate_gradient,
    project,
    temperature=0.05,
    shrink=0.5,
    tries=30,
):
    """The trajectory step's line search, one candidate at a time.

    Ascends the softmin (at temperature) of the per-node time-averaged
    scheduled throughput along its gradient in the horizontal coordinates
    of the interior waypoints. The first step moves the fastest waypoint by
    16 * max_step; each later one is shrink times the last. Each candidate
    is projected alone with project(path, max_step) and taken if its hard
    minimum does not fall. rates(wp) is the K x M rate matrix and
    rate_gradient(wp) its K x M x 2 slope. Returns the taken waypoints, or
    None when no candidate passes or there is nothing to search: one slot,
    or a straight-line step of at least max_step, where the straight line is
    the only feasible path. The float operations run in the package's
    order, so the two compare bit for bit.
    """
    m = wp.shape[0] - 1
    chord = (wp[-1, :2] - wp[0, :2]) / m
    if m < 2 or chord @ chord >= max_step * max_step:
        return None
    horizon = m * slot_duration

    before = (tau * rates(wp)).sum(axis=1) * slot_duration / horizon
    v = before / temperature
    weights = np.exp(-(v - v.min()))
    weights = weights / weights.sum()
    coeff = weights[:, None] * tau * (slot_duration / horizon)
    grad = np.zeros_like(wp)
    grad[1:m, :2] = (coeff[:, 1:, None] * rate_gradient(wp)[:, 1:, :]).sum(axis=0)
    largest = float(np.linalg.norm(grad, axis=1).max())
    if largest <= 0.0:
        return None
    first = 16.0 * max_step / largest
    for j in range(tries):
        cand = project(wp + first * shrink**j * grad, max_step)
        after = (tau * rates(cand)).sum(axis=1) * slot_duration / horizon
        if float(after.min()) >= float(before.min()):
            return cand
    return None
