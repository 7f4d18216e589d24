from unittest import mock

import numpy as np
import pytest
from scipy.optimize import linprog

from uavirs.trajectory import Schedule, optimal_schedule

from oracles import grid_maxmin_schedule, schedule_constraint_matrix


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
        got = lp.call_args.kwargs["A_ub"]
        ref = schedule_constraint_matrix(R, 0.1)
        assert got.format == "csc" and got.shape == ref.shape
        np.testing.assert_array_equal(got.indptr, ref.indptr)
        np.testing.assert_array_equal(got.indices, ref.indices)
        assert got.data.tobytes() == ref.data.tobytes()


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
