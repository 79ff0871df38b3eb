"""Tests for the vectorized batch neighborhood kernels.

The contract under test: the numpy swap kernel agrees *elementwise*
with the scalar delta path (``eval_swap``), and the vectorized
feasibility mask agrees cell-for-cell with the scalar predicate.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.analysis.constraints import ConstraintSet
from repro.core.batch import (
    NUMPY_MIN_N,
    BatchNeighborhood,
    FlatInstance,
    resolve_kernel,
    swap_feasibility_mask,
)
from repro.core.engine import EvalEngine
from repro.solvers.greedy import greedy_order
from repro.solvers.localsearch.neighborhood import apply_swap, swap_feasible
from repro.workloads.generator import GeneratorConfig, generate_instance

from tests.conftest import tpcds_shaped


def make_instance(seed: int, n: int = 12, **overrides):
    config = GeneratorConfig(
        n_indexes=n,
        n_queries=max(3, n // 2),
        multi_index_fraction=0.6,
        build_interaction_rate=1.5,
        **overrides,
    )
    return generate_instance(seed, config)


def shuffled(n: int, seed: int):
    order = list(range(n))
    random.Random(seed).shuffle(order)
    return order


def constraints_for(instance, extra_consecutive: bool = False):
    cons = ConstraintSet(instance.n_indexes)
    for rule in instance.precedences:
        cons.add_precedence(rule.before, rule.after)
    if extra_consecutive and instance.n_indexes >= 4:
        cons.add_consecutive(0, 1)
    return cons


# ----------------------------------------------------------------------
# FlatInstance lowering
# ----------------------------------------------------------------------
class TestFlatInstance:
    def test_arrays_mirror_instance(self):
        instance = make_instance(3, n=10)
        flat = FlatInstance(instance)
        assert flat.n == instance.n_indexes
        assert flat.n_plans == len(instance.plans)
        for pid, plan in enumerate(instance.plans):
            assert flat.plan_query[pid] == plan.query_id
            assert flat.plan_speedup[pid] == plan.speedup
            members = set(
                int(v) for v in flat.plan_members[pid] if v >= 0
            )
            assert members == set(plan.indexes)
        for i in range(flat.n):
            lo, hi = flat.poi_indptr[i], flat.poi_indptr[i + 1]
            assert list(flat.poi_flat[lo:hi]) == list(
                instance.plans_containing(i)
            )
            assert set(flat.inc_index[lo:hi]) <= {i}
            assert flat.ctime[i] == instance.indexes[i].create_cost
            for helper, saving in instance.build_helpers(i):
                assert flat.cs[i, helper] == pytest.approx(saving)

    def test_queries_of_index_covers_plans(self):
        # The (index, query) pairs, and for each pair the plans of its
        # query that do not contain its index.
        instance = make_instance(4, n=9)
        flat = FlatInstance(instance)
        for i in range(flat.n):
            expected = {
                instance.plans[pid].query_id
                for pid in instance.plans_containing(i)
            }
            lo, hi = flat.qx_indptr[i], flat.qx_indptr[i + 1]
            assert list(flat.pair_q[lo:hi]) == sorted(expected)
            assert set(flat.pair_x[lo:hi]) <= {i}
            for pair in range(lo, hi):
                q = flat.pair_q[pair]
                assert flat.pair_of[i, q] == pair
                others = {
                    pid
                    for pid, plan in enumerate(instance.plans)
                    if plan.query_id == q and i not in plan.indexes
                }
                assert set(flat.xq_plan[flat.xq_pair == pair]) == others


# ----------------------------------------------------------------------
# Kernel selection
# ----------------------------------------------------------------------
class TestKernelSelection:
    def test_auto_splits_on_instance_size(self):
        assert resolve_kernel("auto", NUMPY_MIN_N - 1) == "scalar"
        assert resolve_kernel("auto", NUMPY_MIN_N) == "numpy"

    def test_explicit_kernels_respected(self):
        assert resolve_kernel("scalar", 500) == "scalar"
        assert resolve_kernel("numpy", 3) == "numpy"

    def test_unknown_kernel_rejected(self):
        for name in ("cuda", "numba"):
            with pytest.raises(ValueError):
                resolve_kernel(name, 10)


# ----------------------------------------------------------------------
# Swap kernel parity
# ----------------------------------------------------------------------
class TestSwapParity:
    @pytest.mark.parametrize("seed", range(8))
    def test_matrix_matches_scalar_eval_swap(self, seed):
        n = 5 + (seed % 3) * 4
        instance = make_instance(seed, n=n)
        order = shuffled(n, seed)
        engine = EvalEngine(instance)
        engine.set_base(order)
        neigh = BatchNeighborhood(FlatInstance(instance), order)
        matrix = neigh.score_swap_neighborhood()
        for a in range(n):
            for b in range(n):
                assert matrix[a, b] == pytest.approx(
                    engine.eval_swap(a, b), rel=1e-9, abs=1e-7
                )

    def test_diagonal_is_base_objective(self):
        instance = make_instance(1, n=8)
        order = shuffled(8, 1)
        engine = EvalEngine(instance)
        base = engine.set_base(order)
        neigh = BatchNeighborhood(FlatInstance(instance), order)
        matrix = neigh.score_swap_neighborhood()
        assert np.allclose(np.diag(matrix), base)
        assert neigh.base_objective == pytest.approx(base)

    def test_matrix_is_symmetric(self):
        instance = make_instance(2, n=10)
        neigh = BatchNeighborhood(FlatInstance(instance), shuffled(10, 2))
        matrix = neigh.score_swap_neighborhood()
        assert np.allclose(matrix, matrix.T)


# ----------------------------------------------------------------------
# Swap kernel parity at the sizes where ``auto`` runs it
# ----------------------------------------------------------------------
def greedy_and_variants(instance, variants: int, seed: int):
    """The greedy order, then each order one random swap further."""
    orders = [greedy_order(instance)]
    rng = random.Random(seed)
    for _ in range(variants):
        pos_a, pos_b = rng.sample(range(instance.n_indexes), 2)
        orders.append(apply_swap(orders[-1], pos_a, pos_b))
    return orders


def assert_swap_matrix_matches_scalar(instance, orders):
    numpy_engine = EvalEngine(instance, kernel="numpy")
    scalar_engine = EvalEngine(instance, kernel="scalar")
    for order in orders:
        numpy_engine.set_base(order)
        scalar_engine.set_base(order)
        vector, _ = numpy_engine.eval_all_swaps()
        scalar, _ = scalar_engine.eval_all_swaps()
        np.testing.assert_allclose(vector, scalar, rtol=1e-9, atol=0.0)
    assert numpy_engine.stats.batch_numpy == len(orders)


class TestSwapParityAtScale:
    def test_reduced_tpch_21_mid(self):
        from repro.experiments.instances import reduced_tpch

        instance = reduced_tpch(21, "mid")
        assert NUMPY_MIN_N <= instance.n_indexes
        assert_swap_matrix_matches_scalar(
            instance, greedy_and_variants(instance, 4, seed=4)
        )

    def test_tpch(self, tpch_full):
        assert tpch_full.n_indexes == 32
        assert_swap_matrix_matches_scalar(
            tpch_full, greedy_and_variants(tpch_full, 4, seed=5)
        )

    def test_tpcds_shaped_n64(self):
        instance = tpcds_shaped(64)
        assert (instance.n_queries, len(instance.plans)) == (47, 1154)
        assert NUMPY_MIN_N <= instance.n_indexes
        assert_swap_matrix_matches_scalar(
            instance, greedy_and_variants(instance, 4, seed=1)
        )

    def test_shipped_tpcds(self, tpcds_full):
        assert tpcds_full.n_indexes == 139
        assert_swap_matrix_matches_scalar(
            tpcds_full, greedy_and_variants(tpcds_full, 1, seed=2)
        )

    def test_mask_under_precedence_and_consecutive_pairs(self):
        instance = tpcds_shaped(64)
        n = instance.n_indexes
        # Constraints a random permutation satisfies: precedences along
        # it and a few consecutive pairs of its neighbours.
        rng = random.Random(3)
        perm = list(range(n))
        rng.shuffle(perm)
        cons = ConstraintSet(n)
        for _ in range(40):
            i, j = sorted(rng.sample(range(n), 2))
            cons.add_precedence(perm[i], perm[j])
        for i in (5, 20, 21, 40):
            cons.add_consecutive(perm[i], perm[i + 1])
        order = greedy_order(instance, cons)
        assert cons.check_order(order)
        engine = EvalEngine(instance)
        engine.set_base(order)
        _, mask = engine.eval_all_swaps(cons)
        assert engine.batch_kernel() == "numpy"
        expected = np.array(
            [[swap_feasible(order, a, b, cons) for b in range(n)] for a in range(n)]
        )
        assert np.array_equal(mask, expected)
        assert not expected.all()


# ----------------------------------------------------------------------
# Feasibility masks
# ----------------------------------------------------------------------
class TestFeasibilityMasks:
    @pytest.mark.parametrize("seed", range(6))
    def test_swap_mask_matches_scalar_predicate(self, seed):
        n = 8 + (seed % 2) * 5
        instance = make_instance(seed, n=n, precedence_rate=3.0)
        cons = constraints_for(instance, extra_consecutive=seed % 2 == 0)
        order = cons.topological_order()
        mask = swap_feasibility_mask(order, cons, swap_feasible)
        for a in range(n):
            for b in range(n):
                assert bool(mask[a, b]) == swap_feasible(order, a, b, cons)

    def test_no_constraints_all_feasible(self):
        mask = swap_feasibility_mask(list(range(7)), None)
        assert mask.all()


# ----------------------------------------------------------------------
# Engine batch API
# ----------------------------------------------------------------------
class TestEngineBatchAPI:
    def test_kernels_agree_on_feasible_cells(self):
        instance = make_instance(7, n=11, precedence_rate=2.0)
        cons = constraints_for(instance)
        order = cons.topological_order()
        results = {}
        for kernel in ("scalar", "numpy"):
            engine = EvalEngine(instance, kernel=kernel)
            engine.set_base(order)
            results[kernel] = engine.eval_all_swaps(cons)
        obj_s, feas_s = results["scalar"]
        obj_v, feas_v = results["numpy"]
        assert np.array_equal(np.asarray(feas_s), np.asarray(feas_v))
        n = instance.n_indexes
        for a in range(n):
            for b in range(n):
                if feas_s[a][b]:
                    assert obj_s[a][b] == pytest.approx(
                        obj_v[a][b], rel=1e-9, abs=1e-7
                    )

    def test_stats_count_batch_work(self):
        instance = make_instance(9, n=9)
        n = instance.n_indexes
        engine = EvalEngine(instance, kernel="numpy")
        engine.set_base(shuffled(n, 9))
        engine.eval_all_swaps()
        engine.eval_all_swaps()
        stats = engine.stats
        assert stats.batch_evals == 2
        assert stats.batch_numpy == 2
        assert stats.batch_moves == n * (n - 1)
        assert stats.evaluations >= stats.batch_moves
        as_dict = stats.as_dict()
        for key in ("batch_evals", "batch_moves", "batch_numpy"):
            assert isinstance(as_dict[key], int)

    def test_scalar_kernel_counts_delta_evals_instead(self):
        instance = make_instance(10, n=8)
        engine = EvalEngine(instance, kernel="scalar")
        engine.set_base(shuffled(8, 10))
        engine.eval_all_swaps()
        assert engine.stats.batch_evals == 1
        assert engine.stats.batch_moves == 0
        assert engine.stats.delta_evals == 8 * 7 // 2

    def test_batch_cache_invalidated_on_rebase(self):
        instance = make_instance(11, n=9)
        engine = EvalEngine(instance, kernel="numpy")
        order_a = shuffled(9, 1)
        order_b = shuffled(9, 2)
        engine.set_base(order_a)
        matrix_a, _ = engine.eval_all_swaps()
        engine.set_base(order_b)
        matrix_b, _ = engine.eval_all_swaps()
        check = EvalEngine(instance)
        check.set_base(order_b)
        assert matrix_b[0, 1] == pytest.approx(
            check.eval_swap(0, 1), rel=1e-9
        )
        # and the first matrix still belongs to the first base
        check.set_base(order_a)
        assert matrix_a[0, 1] == pytest.approx(
            check.eval_swap(0, 1), rel=1e-9
        )
