import math
from unittest import mock

import numpy as np
import pytest

from uavirs import trajectory
from uavirs.trajectory import Schedule, linprog, optimal_schedule

from oracles import (
    grid_maxmin_schedule,
    linprog_max_min_schedule,
    linprog_schedule_solution,
    schedule_constraint_matrix,
)


class TestScheduleExamples:
    def test_single_node_takes_all_slots(self):
        sched, m = optimal_schedule(np.array([[1.0, 2.0]]), 1.0)
        np.testing.assert_allclose(sched.fractions, [[1.0, 1.0]], atol=1e-7)
        assert m == pytest.approx(3.0, abs=1e-7)

    def test_disjoint_support(self):
        sched, m = optimal_schedule(np.array([[2.0, 0.0], [0.0, 2.0]]), 1.0)
        np.testing.assert_allclose(sched.fractions, np.eye(2), atol=1e-7)
        assert m == pytest.approx(2.0, abs=1e-7)

    def test_symmetric_nodes_split_airtime(self):
        sched, m = optimal_schedule(np.full((2, 2), 4.0), 1.0)
        assert m == pytest.approx(4.0, abs=1e-7)
        np.testing.assert_allclose(sched.fractions.sum(axis=1), [1.0, 1.0], atol=1e-7)

    def test_starved_node_gives_zero(self):
        sched, m = optimal_schedule(np.array([[0.0, 0.0], [3.0, 1.0]]), 0.5)
        assert m == 0.0

    def test_slot_duration_scales_value(self):
        _, m1 = optimal_schedule(np.array([[1.0, 2.0]]), 1.0)
        _, m2 = optimal_schedule(np.array([[1.0, 2.0]]), 0.1)
        assert m2 == pytest.approx(0.1 * m1, rel=1e-9)

    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError):
            optimal_schedule(np.array([[-1.0, 2.0]]), 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_rates(self, bad):
        with pytest.raises(ValueError, match="finite"):
            optimal_schedule(np.array([[bad, 1.0]]), 1.0)

    @pytest.mark.parametrize("rate", [0.0, 1.0])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_bad_slot_duration_before_highs(self, bad, rate):
        with mock.patch.object(trajectory.highs, "_Highs", side_effect=AssertionError):
            with pytest.raises(ValueError, match="slot_duration must be finite and > 0"):
                optimal_schedule(np.full((2, 3), rate), bad)

    def test_rejects_overflowing_throughput_before_highs(self):
        with mock.patch.object(trajectory.highs, "_Highs", side_effect=AssertionError):
            with pytest.raises(ValueError, match="overflows"):
                optimal_schedule(np.full((2, 3), 1e308), 10.0)
            with pytest.raises(ValueError, match="overflows"):
                optimal_schedule(np.array([[0.0, 1e300], [1.0, 2.0]]), 1e9)

    def test_rejects_empty_node_set(self):
        with pytest.raises(ValueError, match="node row"):
            optimal_schedule(np.ones((0, 3)), 1.0)

    def test_deterministic(self):
        R = np.array([[1.5, 0.25, 3.0], [2.0, 2.0, 0.5]])
        first = optimal_schedule(R, 0.1)
        second = optimal_schedule(R, 0.1)
        np.testing.assert_array_equal(first[0].fractions, second[0].fractions)
        assert first[1] == second[1]


class TestOneLp:
    """The schedule is the max-min LP's own optimum: one HiGHS solve, no tie-break."""

    def test_one_linprog_call(self):
        R = np.random.default_rng(7).uniform(0.0, 6.0, size=(8, 51))
        with mock.patch("uavirs.trajectory.linprog", wraps=linprog) as lp:
            optimal_schedule(R, 0.1)
        assert lp.call_count == 1

    def test_fully_tied_nodes(self):
        R = np.full((8, 51), 1.3)
        first, value = optimal_schedule(R, 0.1)
        tau = first.fractions
        assert np.all(tau >= 0.0) and np.all(tau <= 1.0)
        assert np.all(tau.sum(axis=0) <= 1.0 + 1e-9)
        assert value == pytest.approx(0.1 * 51 * 1.3 / 8, rel=1e-9)
        second, _ = optimal_schedule(R, 0.1)
        np.testing.assert_array_equal(second.fractions, tau)


class TestConstraintMatrix:
    """The matrix HiGHS gets is the block-assembled one, entry for entry."""

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_block_assembly(self, seed):
        rng = np.random.default_rng(300 + seed)
        k, m = 1 + seed % 8, (30, 51, 97, 300)[seed % 4]
        R = rng.uniform(0.0, 6.0, size=(k, m))
        if seed % 3 == 0:
            R[rng.random((k, m)) < 0.3] = 0.0  # explicit zeros stay in the pattern
        if seed % 5 == 0:
            R[:] = R[0]  # fully tied rows
        with mock.patch("uavirs.trajectory.linprog", wraps=linprog) as lp:
            optimal_schedule(R, 0.1)
        _, starts, rows, data, col_upper, row_upper = lp.call_args.args
        ref = schedule_constraint_matrix(R, 0.1)
        assert (row_upper.size, col_upper.size) == ref.shape
        assert starts.tobytes() == ref.indptr.tobytes()
        assert rows.tobytes() == ref.indices.tobytes()
        assert data.tobytes() == ref.data.tobytes()


class TestAgainstLinprog:
    """The direct HiGHS call gives scipy's linprog(method="highs") answer with
    presolve off, bit for bit, also with zero rates and starved nodes."""

    @pytest.mark.parametrize("seed", range(60))
    def test_same_bits_as_linprog(self, seed):
        rng = np.random.default_rng(500 + seed)
        k, m = 1 + seed % 8, (1, 2, 30, 51, 97, 300)[seed % 6]
        R = rng.uniform(0.0, 6.0, size=(k, m))
        if seed % 3 == 0:
            R[rng.random((k, m)) < 0.3] = 0.0  # explicit zeros stay in the pattern
        if seed % 5 == 0:
            R[:] = R[0]  # fully tied rows
        if seed % 7 == 0:
            R[rng.integers(k)] = 0.0  # a starved node: value 0
        sched, value = optimal_schedule(R, 0.1)
        tau_ref, value_ref = linprog_max_min_schedule(R, 0.1)
        assert sched.fractions.tobytes() == tau_ref.tobytes()
        assert value == value_ref
        if seed % 7 == 0:
            assert value == 0.0


class TestPresolveIsFree:
    """With every rate positive, presolve does not change scipy's linprog answer.

    HiGHS's presolve finds nothing to reduce in such an LP, and the dual
    simplex takes the same path: x has the same bits with and without
    presolve. That is why the schedule LP runs without it; a starved node
    still gives exactly 0."""

    @pytest.mark.parametrize("seed", range(54))
    def test_same_bits_with_and_without_presolve(self, seed):
        rng = np.random.default_rng(800 + seed)
        k, m = 1 + seed % 9, (1, 2, 30, 51, 97, 300)[seed // 9]
        if seed % 2:
            R = 0.5 * rng.integers(1, 9, size=(k, m))  # exact ties within and across rows
        else:
            R = rng.uniform(0.01, 6.0, size=(k, m))
        if seed % 3 == 0:
            R[:] = R[0]  # fully tied rows
        elif k > 2:
            R[1] = R[0]  # one tied pair
        assert np.all(R > 0.0)
        x_off = linprog_schedule_solution(R, 0.1, presolve=False)
        x_on = linprog_schedule_solution(R, 0.1, presolve=True)
        assert x_off.tobytes() == x_on.tobytes()

    @pytest.mark.parametrize("seed", range(12))
    def test_starved_node_gives_exactly_zero(self, seed):
        rng = np.random.default_rng(900 + seed)
        k, m = 2 + seed % 8, (1, 2, 30, 51, 97, 300)[seed % 6]
        R = rng.uniform(0.01, 6.0, size=(k, m))
        R[rng.integers(k)] = 0.0
        _, value = optimal_schedule(R, 0.1)
        assert value == 0.0


REAL_HIGHS = trajectory.highs._Highs


class SpyHighs:
    """A real HiGHS instance that records the start basis calls made on it.

    fail_warm makes it act out a failure once it is given a basis: "refuse"
    has setBasis return kError without passing the basis on, "status" has the
    run end with an infeasible model status.
    """

    made = []  # every instance, in order; reset by the spy_highs fixture
    fail_warm = None

    def __init__(self):
        self._solver = REAL_HIGHS()
        self.basis_calls = 0
        SpyHighs.made.append(self)

    def __getattr__(self, name):
        return getattr(self._solver, name)

    def setBasis(self, basis):
        self.basis_calls += 1
        if self.fail_warm == "refuse":
            return trajectory.highs.HighsStatus.kError
        return self._solver.setBasis(basis)

    def getModelStatus(self):
        if self.fail_warm == "status" and self.basis_calls:
            return trajectory.highs.HighsModelStatus.kInfeasible
        return self._solver.getModelStatus()


@pytest.fixture
def spy_highs():
    SpyHighs.made, SpyHighs.fail_warm = [], None
    with mock.patch.object(trajectory.highs, "_Highs", SpyHighs):
        yield SpyHighs


def positive_rates(rng, k, m):
    return rng.uniform(0.01, 6.0, size=(k, m))


def nudged(rng, R):
    """R with every rate moved by up to 1%, as one trajectory step moves them."""
    return R * rng.uniform(0.99, 1.01, size=R.shape)


class TestWarmStart:
    """A schedule LP restarted from the optimal basis of the LP before it gets
    the cold optimum; a basis from an LP of another shape is never used."""

    @pytest.mark.parametrize("seed", range(36))
    def test_warm_value_is_the_cold_value(self, seed, spy_highs):
        rng = np.random.default_rng(1200 + seed)
        k, m = 1 + seed % 9, (1, 2, 51, 300)[seed // 9]
        R = positive_rates(rng, k, m)
        warm = trajectory._WarmStart()
        optimal_schedule(R, 0.1, _warm=warm)
        R2 = nudged(rng, R)
        sched, value = optimal_schedule(R2, 0.1, _warm=warm)
        assert [h.basis_calls for h in spy_highs.made] == [0, 1]
        _, cold = optimal_schedule(R2, 0.1)
        assert value == pytest.approx(cold, rel=1e-12)
        tau = sched.fractions
        assert np.all(tau >= 0.0) and np.all(tau <= 1.0)
        assert np.all(tau.sum(axis=0) <= 1.0)
        assert value == (tau * (0.1 * R2)).sum(axis=1).min()

    @pytest.mark.parametrize("seed", range(12))
    def test_starved_node_still_gives_exactly_zero(self, seed, spy_highs):
        rng = np.random.default_rng(1300 + seed)
        k, m = 2 + seed % 8, (1, 2, 51, 300)[seed % 4]
        R = positive_rates(rng, k, m)
        warm = trajectory._WarmStart()
        optimal_schedule(R, 0.1, _warm=warm)
        R2 = nudged(rng, R)
        R2[rng.integers(k)] = 0.0
        _, value = optimal_schedule(R2, 0.1, _warm=warm)
        assert spy_highs.made[-1].basis_calls == 1
        assert value == 0.0

    @pytest.mark.parametrize(
        "first, second", [((2, 3), (3, 2)), ((4, 51), (4, 52)), ((4, 51), (5, 51)), ((9, 300), (1, 1))]
    )
    def test_basis_of_another_shape_is_not_used(self, first, second, spy_highs):
        rng = np.random.default_rng(1400)
        warm = trajectory._WarmStart()
        optimal_schedule(positive_rates(rng, *first), 0.1, _warm=warm)
        R = positive_rates(rng, *second)
        sched, value = optimal_schedule(R, 0.1, _warm=warm)
        assert [h.basis_calls for h in spy_highs.made] == [0, 0]
        tau_ref, value_ref = linprog_max_min_schedule(R, 0.1)
        assert sched.fractions.tobytes() == tau_ref.tobytes()
        assert value == value_ref


class TestSolverFailure:
    @pytest.mark.parametrize("fail_warm", ["refuse", "status"])
    def test_failed_warm_run_falls_back_to_a_cold_run(self, fail_warm, spy_highs):
        rng = np.random.default_rng(1500)
        R = positive_rates(rng, 3, 40)
        warm = trajectory._WarmStart()
        optimal_schedule(R, 0.1, _warm=warm)
        basis = warm.basis
        R2 = nudged(rng, R)
        spy_highs.fail_warm = fail_warm
        sched, value = optimal_schedule(R2, 0.1, _warm=warm)
        assert [h.basis_calls for h in spy_highs.made[1:]] == [1, 0]  # warm, then cold
        tau_ref, value_ref = linprog_max_min_schedule(R2, 0.1)
        assert sched.fractions.tobytes() == tau_ref.tobytes()
        assert value == value_ref
        assert warm.basis is not basis  # the cold run's optimal basis, for the next LP

    def test_cold_failure_after_a_failed_warm_run_raises(self, spy_highs):
        rng = np.random.default_rng(1501)
        R = positive_rates(rng, 3, 40)
        warm = trajectory._WarmStart()
        optimal_schedule(R, 0.1, _warm=warm)
        with mock.patch.object(
            spy_highs, "getModelStatus", lambda self: trajectory.highs.HighsModelStatus.kInfeasible
        ):
            with pytest.raises(RuntimeError, match="Infeasible"):
                optimal_schedule(nudged(rng, R), 0.1, _warm=warm)
        assert [h.basis_calls for h in spy_highs.made[1:]] == [1, 0]

    def test_non_optimal_status_raises(self):
        solver_type = trajectory.highs._Highs

        class InfeasibleHighs:
            """A real HiGHS instance that reports the model infeasible after its run."""

            def __init__(self):
                self._solver = solver_type()

            def __getattr__(self, name):
                return getattr(self._solver, name)

            def getModelStatus(self):
                return trajectory.highs.HighsModelStatus.kInfeasible

        with mock.patch.object(trajectory.highs, "_Highs", InfeasibleHighs):
            with pytest.raises(RuntimeError, match="Infeasible"):
                optimal_schedule(np.array([[1.0, 2.0]]), 1.0)


    def test_mismatched_array_sizes_raise_before_highs(self):
        # HiGHS reads as many entries as the sizes it is told; a short array
        # would be read past its end.
        cost, col_upper = np.array([0.0, -1.0]), np.array([1.0, trajectory.highs.kHighsInf])
        starts, rows = np.array([0, 2, 3], dtype=np.int32), np.array([0, 1, 0], dtype=np.int32)
        data, row_upper = np.array([-1.0, 1.0, 1.0]), np.array([0.0, 1.0])
        assert linprog(cost, starts, rows, data, col_upper, row_upper).tolist() == [1.0, 1.0]
        with mock.patch.object(trajectory.highs, "_Highs", side_effect=AssertionError):
            for short in ("col_upper", "starts", "data"):
                args = dict(cost=cost, starts=starts, rows=rows, data=data, col_upper=col_upper)
                args[short] = args[short][:-1]
                with pytest.raises(ValueError, match="sizes disagree"):
                    linprog(row_upper=row_upper, **args)


def mapped_slot(t, m_old, m_new):
    """The old slot at the same share of the mission as new slot t."""
    return min((2 * t + 1) * m_old // (2 * m_new), m_old - 1)


def probe_rates(rng, k, m_old, m_new, kind):
    """Rates of an m_old-slot LP and of the next probe's m_new-slot LP.

    The new rates are the old ones at the mapped slots, nudged as a
    trajectory step moves them. kind "starved" zeroes one node's rates and
    "tied" makes every node's rates equal, in both LPs.
    """
    R = positive_rates(rng, k, m_old)
    if kind == "starved":
        R[rng.integers(k)] = 0.0
    elif kind == "tied":
        R[:] = R[0]
    R2 = nudged(rng, R[:, [mapped_slot(t, m_old, m_new) for t in range(m_new)]])
    if kind == "tied":
        R2[:] = R2[0]
    return R, R2


MAPPINGS = [
    (m_old, m_new)
    for m_old in (1, 2, 30, 300)
    for m_new in sorted({1, 2, m_old - 1, m_old + 1, 10 * m_old} - {0})
]


class TestMappedStart:
    """The optimal basis of one probe's last LP, mapped to the next probe's
    slot count, starts that probe's first LP at the cold optimum."""

    @pytest.mark.parametrize("kind", ["positive", "starved", "tied"])
    @pytest.mark.parametrize("m_old, m_new", MAPPINGS)
    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_mapped_value_is_the_cold_value(self, k, m_old, m_new, kind, spy_highs):
        rng = np.random.default_rng(1600 + 1000 * k + m_old + 7 * m_new)
        R, R2 = probe_rates(rng, k, m_old, m_new, kind)
        warm = trajectory._WarmStart()
        optimal_schedule(R, 0.1, _warm=warm)
        start = warm.for_slots(k, m_new)
        sched, value = optimal_schedule(R2, 0.1, _warm=start)
        assert [h.basis_calls for h in spy_highs.made] == [0, 1]
        if kind == "starved":
            assert value == 0.0
        elif kind == "tied":  # every slot shared equally: the cold optimum in closed form
            assert value == pytest.approx(0.1 * R2[0].sum() / k, rel=1e-12)
        else:
            _, cold = optimal_schedule(R2, 0.1)
            assert value == pytest.approx(cold, rel=1e-12)
        tau = sched.fractions
        assert np.all(tau >= 0.0) and np.all(tau <= 1.0)
        assert np.all(tau.sum(axis=0) <= 1.0 + 1e-9)  # a renormalized column may round up
        assert value == (tau * (0.1 * R2)).sum(axis=1).min()

    @pytest.mark.parametrize("m_old, m_new", MAPPINGS)
    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_statuses_follow_the_mission_share(self, k, m_old, m_new):
        rng = np.random.default_rng(1700 + m_old)
        warm = trajectory._WarmStart()
        optimal_schedule(positive_rates(rng, k, m_old), 0.1, _warm=warm)
        start = warm.for_slots(k, m_new)
        assert start.size == (k * m_new + 1, k + m_new, 2 * k * m_new + k)
        if m_new == m_old:
            assert start.basis is warm.basis
            return
        cols, rows = warm.basis.col_status, warm.basis.row_status
        assert start.basis.alien
        assert start.basis.col_status == [
            cols[node * m_old + mapped_slot(t, m_old, m_new)]
            for node in range(k)
            for t in range(m_new)
        ] + [cols[-1]]
        assert start.basis.row_status == rows[:k] + [
            rows[k + mapped_slot(t, m_old, m_new)] for t in range(m_new)
        ]

    @pytest.mark.parametrize("fail_warm", ["refuse", "status"])
    def test_failed_mapped_start_falls_back_to_a_cold_run(self, fail_warm, spy_highs):
        rng = np.random.default_rng(1800)
        R, R2 = probe_rates(rng, 3, 30, 45, "positive")
        warm = trajectory._WarmStart()
        optimal_schedule(R, 0.1, _warm=warm)
        start = warm.for_slots(3, 45)
        spy_highs.fail_warm = fail_warm
        sched, value = optimal_schedule(R2, 0.1, _warm=start)
        assert [h.basis_calls for h in spy_highs.made[1:]] == [1, 0]  # mapped, then cold
        tau_ref, value_ref = linprog_max_min_schedule(R2, 0.1)
        assert sched.fractions.tobytes() == tau_ref.tobytes()
        assert value == value_ref


class TestScheduleInvariants:
    @pytest.mark.parametrize("seed", range(8))
    def test_feasible_and_consistent(self, seed):
        rng = np.random.default_rng(seed)
        k, m = rng.integers(1, 5), rng.integers(1, 7)
        R = rng.uniform(0.0, 6.0, size=(k, m))
        sched, value = optimal_schedule(R, 0.25)
        tau = sched.fractions
        assert np.all(tau >= 0.0) and np.all(tau <= 1.0)
        assert np.all(tau.sum(axis=0) <= 1.0 + 1e-9)
        throughput = (tau * 0.25 * R).sum(axis=1)
        assert value == pytest.approx(throughput.min(), rel=1e-9, abs=1e-12)

    def test_schedule_type_validates(self):
        with pytest.raises(ValueError):
            Schedule(np.array([[0.7, 0.2], [0.6, 0.2]]))  # slot 0 over-allocated
        with pytest.raises(ValueError):
            Schedule(np.array([[-0.1, 0.0]]))
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                Schedule(np.array([[bad, 0.5]]))


class TestAgainstGridOracle:
    """LP optimum vs exhaustive grid search on small instances."""

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(1000 + seed)
        k = int(rng.integers(1, 3))
        m = int(rng.integers(1, 4))
        grid = np.linspace(0.0, 4.0, 17)
        R = grid[rng.integers(0, grid.size, size=(k, m))]
        delta = 1.0
        _, lp_value = optimal_schedule(R, delta)
        grid_value = grid_maxmin_schedule(R, delta, step=0.05)
        resolution = 0.05 * delta * R.sum(axis=1).max() + 1e-9
        assert grid_value <= lp_value + 1e-9
        assert lp_value - grid_value <= resolution
