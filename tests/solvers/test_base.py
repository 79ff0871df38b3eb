"""Unit tests for solver infrastructure: Budget, the engine bound, repair."""

from __future__ import annotations

import gc
import itertools
import time
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.constraints import ConstraintSet
from repro.core.engine import EvalEngine
from repro.errors import InfeasibleError
from repro.core.objective import ObjectiveEvaluator
from repro.core.solution import SolveStatus
from repro.solvers.base import (
    CLOCK_STRIDE,
    Budget,
    glue_consecutive,
    repair_order,
)
from repro.solvers.exhaustive import ExhaustiveSolver
from repro.solvers.registry import available_solvers, create

from tests.conftest import make_paper_example, small_synthetic


class TestBudget:
    def test_no_limits_never_exhausted(self):
        budget = Budget()
        budget.tick(10_000)
        assert not budget.exhausted

    def test_node_limit(self):
        budget = Budget(node_limit=5)
        budget.tick(4)
        assert not budget.exhausted
        budget.tick(1)
        assert budget.exhausted

    def test_time_limit(self):
        budget = Budget(time_limit=0.0)
        assert budget.exhausted

    def test_elapsed_increases(self):
        budget = Budget()
        first = budget.elapsed
        time.sleep(0.01)
        assert budget.elapsed > first

    def test_restart_resets(self):
        budget = Budget(node_limit=3)
        budget.tick(3)
        assert budget.exhausted
        budget.restart()
        assert budget.nodes == 0
        assert not budget.exhausted

    def test_tick_returns_exhaustion_at_the_node_limit(self):
        budget = Budget(node_limit=3)
        assert [budget.tick() for _ in range(4)] == [False, False, True, True]

    def test_tick_reads_the_clock_once_per_stride(self):
        budget = Budget(time_limit=0.0)
        assert budget.tick()  # the first tick reads the clock
        assert not any(budget.tick() for _ in range(CLOCK_STRIDE - 1))
        assert budget.tick()
        assert budget.exhausted

    def test_exhaustive_stops_on_a_time_limit(self, tpch_full):
        start = time.perf_counter()
        result = ExhaustiveSolver().solve(
            tpch_full, None, Budget(time_limit=0.05)
        )
        assert time.perf_counter() - start < 0.5
        assert result.status is SolveStatus.TIMEOUT


@pytest.mark.parametrize("name", available_solvers())
def test_engine_is_freed_with_its_solver(name):
    # Neither the engine nor a search over it may sit in a reference
    # cycle: with the collector off, an engine that outlived its solve
    # would keep its memos until a full collection.
    instance = small_synthetic(seed=0, n=7)
    solver = create(name)
    solver.engine = EvalEngine(instance)
    engine = weakref.ref(solver.engine)
    enabled = gc.isenabled()
    gc.disable()
    try:
        result = solver.solve(
            instance, None, Budget(time_limit=0.5, node_limit=2000)
        )
        del solver
        assert engine() is None
    finally:
        if enabled:
            gc.enable()
    assert result.solution is not None


class TestEngineSuffixBound:
    """The engine's density bound is the single bound of the stack."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_admissible_at_root(self, seed):
        import itertools

        instance = small_synthetic(seed=seed, n=6)
        engine = EvalEngine(instance)
        evaluator = ObjectiveEvaluator(instance)
        root_bound = engine.suffix_bound(instance.total_base_runtime, set())
        optimum = min(
            evaluator.evaluate(list(order))
            for order in itertools.permutations(range(6))
        )
        assert root_bound <= optimum + 1e-6

    def test_admissible_mid_search(self):
        import itertools

        instance = small_synthetic(seed=7, n=6)
        engine = EvalEngine(instance)
        evaluator = ObjectiveEvaluator(instance)
        for order in itertools.permutations(range(6)):
            prefix = list(order[:3])
            prefix_obj, runtime, _ = evaluator.evaluate_prefix(prefix)
            suffix_bound = engine.suffix_bound(runtime, set(prefix))
            total = evaluator.evaluate(list(order))
            assert prefix_obj + suffix_bound <= total + 1e-6

    def test_mask_and_set_agree(self):
        instance = small_synthetic(seed=2, n=6)
        engine = EvalEngine(instance)
        built = {0, 3, 4}
        runtime = instance.total_runtime(built)
        assert engine.suffix_bound(runtime, built) == pytest.approx(
            engine.suffix_bound(runtime, engine.mask_of(built))
        )

    def test_bound_positive_when_work_remains(self, paper_example):
        engine = EvalEngine(paper_example)
        assert (
            engine.suffix_bound(paper_example.total_base_runtime, set()) > 0.0
        )


class TestRepairOrder:
    def test_identity_without_constraints(self):
        order = [3, 1, 2, 0]
        assert repair_order(order, None) == order

    def test_moves_predecessors_first(self):
        constraints = ConstraintSet(4)
        constraints.add_precedence(2, 0)
        repaired = repair_order([0, 1, 2, 3], constraints)
        assert constraints.check_order(repaired) or constraints.consecutive_pairs
        assert repaired.index(2) < repaired.index(0)

    def test_result_is_permutation(self):
        constraints = ConstraintSet(5)
        constraints.add_precedence(4, 0)
        constraints.add_precedence(3, 1)
        repaired = repair_order([0, 1, 2, 3, 4], constraints)
        assert sorted(repaired) == list(range(5))

    def test_pair_moves_as_a_block(self):
        # c=2 must precede b=1 of the pair (0, 1): gluing b back after
        # a=0 alone would give [0, 1, 2, 3] and break 2 -> 1.
        constraints = ConstraintSet(4)
        constraints.add_consecutive(0, 1)
        constraints.add_precedence(2, 1)
        repaired = repair_order([0, 2, 1, 3], constraints)
        assert repaired == [2, 0, 1, 3]
        assert constraints.check_order(repaired)

    def test_unsatisfiable_pairs_still_give_a_permutation(self):
        constraints = ConstraintSet(4)
        constraints.add_consecutive(0, 1)
        constraints.add_consecutive(0, 2)
        repaired = repair_order([3, 2, 1, 0], constraints)
        assert sorted(repaired) == [0, 1, 2, 3]
        assert repaired.index(0) < min(repaired.index(1), repaired.index(2))

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=2, max_value=7),
        st.randoms(use_true_random=False),
    )
    def test_feasible_whenever_the_set_is(self, n, rng):
        constraints = ConstraintSet(n)
        for _ in range(rng.randint(0, 5)):
            a, b = rng.sample(range(n), 2)
            add = (
                constraints.add_consecutive
                if rng.random() < 0.4
                else constraints.add_precedence
            )
            try:
                add(a, b)
            except InfeasibleError:
                continue
        order = list(range(n))
        rng.shuffle(order)
        repaired = repair_order(order, constraints)
        assert sorted(repaired) == list(range(n))
        if not constraints.consecutive_pairs:
            assert repaired == _rotate_before_predecessors(order, constraints)
        if any(
            constraints.check_order(candidate)
            for candidate in itertools.permutations(range(n))
        ):
            assert constraints.check_order(repaired), (order, repaired)


def _rotate_before_predecessors(order, constraints):
    """Precedence-only repair: move an index to just after a predecessor
    placed behind it, until none is.  Without consecutive pairs
    ``repair_order`` must return exactly this."""
    result = list(order)
    changed = True
    while changed:
        changed = False
        for b in range(constraints.n):
            for a in constraints.predecessors(b):
                pos_a, pos_b = result.index(a), result.index(b)
                if pos_a > pos_b:
                    result.pop(pos_b)
                    result.insert(pos_a, b)
                    changed = True
    return result


class TestGlueConsecutive:
    def test_glues_pairs_adjacently(self):
        constraints = ConstraintSet(4)
        constraints.add_consecutive(1, 3)
        glued = glue_consecutive([3, 0, 1, 2], constraints)
        assert sorted(glued) == [0, 1, 2, 3]
        assert glued.index(3) == glued.index(1) + 1

    def test_no_pairs_is_identity(self):
        constraints = ConstraintSet(3)
        assert glue_consecutive([2, 0, 1], constraints) == [2, 0, 1]

    def test_full_feasibility_after_glue(self):
        constraints = ConstraintSet(5)
        constraints.add_consecutive(0, 1)
        constraints.add_precedence(2, 0)
        order = repair_order([4, 1, 0, 3, 2], constraints)
        glued = glue_consecutive(order, constraints)
        assert constraints.check_order(glued)
