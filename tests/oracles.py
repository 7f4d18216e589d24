"""Independently coded reference evaluators used by the test suite.

Nothing here may import from the optimizer code paths it checks: the grid
scheduler below enumerates airtime splits directly, and the deployment
evaluator recomputes rates from raw float math.
"""

import itertools
import math

import numpy as np


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
):
    """Blocked-direct relayed rate, recomputed from scratch (no package code)."""
    g0 = 10.0 ** (ref_gain_db / 10.0)
    d_up = max(1.0, math.dist(bs_pos, surface_pos))
    d_down = max(1.0, math.dist(surface_pos, user_pos))
    amp = elements * math.sqrt(g0 * d_up**-exponent_up) * math.sqrt(
        g0 * d_down**-exponent_down
    )
    snr = tx_power * amp * amp / noise_power
    return math.log2(1.0 + snr) / num_users


def dykstra_speed_projection(path, max_step, tol=1e-14, max_sweeps=200_000):
    """Euclidean projection of a 2-D path onto ||p[t+1] - p[t]|| <= max_step.

    Dykstra's alternating projection (Boyle & Dykstra 1986) between two sets
    whose projections are exact: the even-indexed segments and the
    odd-indexed segments, each a product of disjoint two-point balls. The
    first and last points never move. Raises if the iterates have not
    settled to tol * max_step within max_sweeps sweeps.
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
        if np.abs(x - before).max() <= tol * max_step:
            return x
    raise RuntimeError("Dykstra projection did not settle")
