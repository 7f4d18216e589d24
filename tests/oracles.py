"""Independently coded reference evaluators used by the test suite.

Nothing here may import from the optimizer code paths it checks: the grid
scheduler below enumerates airtime splits directly, the deployment
evaluator recomputes rates from raw float math, the hybrid split rule is
restated one split at a time from its description, the schedule LP's matrix
is assembled from blocks, and the trajectory line search is restated one
candidate at a time around the projection and rates its caller passes in.
"""

import itertools
import math

import numpy as np
import scipy.sparse as sp


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


def hybrid_split(users, n_aerial, n_terrestrial, rate):
    """The hybrid altitude and assignment rule at one element split.

    users: (user id, covered by the terrestrial surface, aerial LoS
    threshold) in scenario order. rate(uid, surface, elements, altitude) is
    the user's rate through "aerial", "terrestrial" or None (direct link
    only). Uncovered users fly when the aerial surface has elements and
    their threshold is finite. Each covered user, in order, then flies only
    if that beats its terrestrial rate at the altitude its joining would
    need; ties stay terrestrial. The altitude is the highest threshold among
    the fliers. Returns (altitude, {uid: surface}, rates in user order).
    """
    serving, flying = {}, []
    for uid, covered, threshold in users:
        if not covered:
            fly = n_aerial > 0 and math.isfinite(threshold)
            serving[uid] = "aerial" if fly else None
            flying += [threshold] if fly else []
    for uid, covered, threshold in users:
        if not covered:
            continue
        serving[uid] = "terrestrial"
        if n_aerial > 0 and math.isfinite(threshold):
            altitude = max([0.0, threshold, *flying])
            terrestrial = rate(uid, "terrestrial", n_terrestrial, 0.0)
            if rate(uid, "aerial", n_aerial, altitude) > terrestrial:
                serving[uid] = "aerial"
                flying.append(threshold)
    altitude = max([0.0, *flying])
    elements = {"aerial": n_aerial, "terrestrial": n_terrestrial, None: 0}
    rates = [rate(uid, serving[uid], elements[serving[uid]], altitude) for uid, _, _ in users]
    return altitude, serving, rates


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
    armijo=1e-4,
):
    """The trajectory step's line search, one candidate at a time.

    Ascends the softmin (at temperature) of the per-node time-averaged
    scheduled throughput along its gradient in the horizontal coordinates
    of the interior waypoints. The first step moves the fastest waypoint by
    16 * max_step; each later one is shrink times the last. Each candidate
    is projected alone with project(path, max_step) and taken if its hard
    minimum does not fall and its softmin gain is at least armijo * step *
    ||gradient||^2. rates(wp) is the K x M rate matrix and rate_gradient(wp)
    its K x M x 2 slope. Returns the taken waypoints, or None when no
    candidate passes. The float operations run in the package's order, so
    the two compare bit for bit.
    """
    m = wp.shape[0] - 1
    horizon = m * slot_duration

    def softmin(values):
        v = values / temperature
        low = v.min()
        return -temperature * (math.log(np.exp(-(v - low)).sum()) - low)

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
    grad_sq = float((grad * grad).sum())
    for j in range(tries):
        step = first * shrink**j
        cand = project(wp + step * grad, max_step)
        after = (tau * rates(cand)).sum(axis=1) * slot_duration / horizon
        gain = softmin(after) - softmin(before)
        if float(after.min()) >= float(before.min()) and gain >= armijo * step * grad_sq:
            return cand
    return None
