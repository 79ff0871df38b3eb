"""Unit tests for tail-index analysis (Sections 5.5-5.6, Figure 9)."""

from __future__ import annotations

import pytest

from repro.analysis.constraints import ConstraintSet
from repro.analysis.tails import (
    TailPattern,
    apply_tails,
    enumerate_tail_patterns,
)
from repro.core.engine import EvalEngine
from repro.core.instance import (
    IndexDef,
    PlanDef,
    ProblemInstance,
    QueryDef,
)
from repro.core.objective import ObjectiveEvaluator

from tests.conftest import brute_force_best, small_synthetic


def laggard_instance() -> ProblemInstance:
    """Index 2 is clearly worst (tiny speed-up, huge cost): forced last."""
    return ProblemInstance(
        indexes=[
            IndexDef(0, "good", 10.0),
            IndexDef(1, "fine", 12.0),
            IndexDef(2, "laggard", 60.0),
            IndexDef(3, "okay", 11.0),
        ],
        queries=[QueryDef(q, f"q{q}", 200.0) for q in range(4)],
        plans=[
            PlanDef(0, 0, frozenset({0}), 80.0),
            PlanDef(1, 1, frozenset({1}), 70.0),
            PlanDef(2, 2, frozenset({2}), 1.0),
            PlanDef(3, 3, frozenset({3}), 60.0),
        ],
        name="laggard",
    )


class TestTailPattern:
    def test_tail_set_and_repr(self):
        pattern = TailPattern((3, 1, 2), 12.5)
        assert pattern.tail_set == frozenset({1, 2, 3})
        assert "3->1->2" in repr(pattern)


class TestEnumerateTailPatterns:
    def test_counts_unconstrained(self):
        instance = laggard_instance()
        constraints = ConstraintSet(4)
        patterns = enumerate_tail_patterns(
            instance, constraints, set(range(4)), length=2
        )
        # C(4,2) sets x 2 orders each.
        assert patterns is not None
        assert len(patterns) == 12

    def test_respects_max_patterns(self):
        instance = laggard_instance()
        constraints = ConstraintSet(4)
        assert (
            enumerate_tail_patterns(
                instance, constraints, set(range(4)), length=2, max_patterns=3
            )
            is None
        )

    def test_gives_up_before_scoring(self):
        # C(4,2) = 6 sets x 2 orders = 12 > 11: nothing is scored, so the
        # engine sees no runtime lookup.
        instance = laggard_instance()
        engine = EvalEngine(instance)
        patterns = enumerate_tail_patterns(
            instance, ConstraintSet(4), set(range(4)), 2, 11, engine
        )
        assert patterns is None
        assert engine.stats.memo_hits + engine.stats.memo_misses == 0
        assert enumerate_tail_patterns(
            instance, ConstraintSet(4), set(range(4)), 2, 12, engine
        )

    def test_length_larger_than_active_returns_empty(self):
        instance = laggard_instance()
        constraints = ConstraintSet(4)
        assert (
            enumerate_tail_patterns(
                instance, constraints, {0, 1}, length=3
            )
            == []
        )

    def test_constraints_prune_infeasible_tails(self):
        instance = laggard_instance()
        constraints = ConstraintSet(4)
        constraints.add_precedence(0, 1)  # 1 after 0
        patterns = enumerate_tail_patterns(
            instance, constraints, set(range(4)), length=2
        )
        orders = {p.order for p in patterns}
        assert (1, 0) not in orders  # violates 0 < 1
        # (0, 1) stays feasible: both in the tail and 0 precedes 1.
        assert (0, 1) in orders

    def test_tail_objective_matches_schedule_suffix(self):
        instance = laggard_instance()
        constraints = ConstraintSet(4)
        patterns = enumerate_tail_patterns(
            instance, constraints, set(range(4)), length=2
        )
        evaluator = ObjectiveEvaluator(instance)
        by_order = {p.order: p.objective for p in patterns}
        # Check one pattern against a full-order evaluation decomposition.
        full_order = [0, 1, 3, 2]
        prefix_obj, _, _ = evaluator.evaluate_prefix([0, 1])
        total = evaluator.evaluate(full_order)
        assert by_order[(3, 2)] == pytest.approx(total - prefix_obj)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_objectives_match_total_runtime_enumeration(self, seed):
        instance = small_synthetic(seed=seed, n=6)
        active = set(range(instance.n_indexes))
        patterns = enumerate_tail_patterns(
            instance, ConstraintSet(instance.n_indexes), active, length=3
        )
        assert patterns
        for pattern in patterns:
            built = active - pattern.tail_set
            expected = 0.0
            for index_id in pattern.order:
                runtime = instance.total_runtime(built)
                expected += runtime * instance.build_cost(index_id, built)
                built.add(index_id)
            assert pattern.objective == expected


class TestApplyTails:
    def test_laggard_forced_last_with_seed_constraints(self):
        # Theorem 10 needs every feasible tail group's champion to end in
        # the same index; with no prior constraints, tail groups avoiding
        # the laggard exist and block the conclusion.  Seeding the
        # (dominance-style) knowledge 0 < 2 and 1 < 2 restricts the tail
        # groups exactly like the paper's TPC-H case, and the analysis
        # then derives the *new* fact 3 < 2.
        instance = laggard_instance()
        constraints = ConstraintSet(4)
        constraints.add_precedence(0, 2)
        constraints.add_precedence(1, 2)
        added = apply_tails(instance, constraints)
        assert added >= 1
        for other in (0, 1, 3):
            assert constraints.is_before(other, 2)

    def test_no_forced_last_without_seed_constraints(self):
        # Without restrictions every 2-subset is a candidate tail group,
        # so no single index closes every champion.
        instance = laggard_instance()
        constraints = ConstraintSet(4)
        assert apply_tails(instance, constraints) == 0

    def test_preserves_optimality(self):
        instance = laggard_instance()
        _, unconstrained = brute_force_best(instance)
        constraints = ConstraintSet(4)
        apply_tails(instance, constraints)
        _, constrained = brute_force_best(instance, constraints)
        assert constrained == pytest.approx(unconstrained)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_preserves_optimality_synthetic(self, seed):
        instance = small_synthetic(seed=seed, n=6)
        _, unconstrained = brute_force_best(instance)
        constraints = ConstraintSet(instance.n_indexes)
        apply_tails(instance, constraints)
        _, constrained = brute_force_best(instance, constraints)
        assert constrained == pytest.approx(unconstrained, rel=1e-9)

    def test_recursion_can_pin_multiple_tails(self):
        # Two clearly terrible indexes behind seed constraints (the good
        # indexes precede both): the first round pins the worst index
        # last and deduces 1 < 2; the recursion then re-runs on the
        # remaining three and confirms 1 closes every champion.
        instance = ProblemInstance(
            indexes=[
                IndexDef(0, "good", 10.0),
                IndexDef(1, "bad", 80.0),
                IndexDef(2, "worse", 90.0),
                IndexDef(3, "fine", 11.0),
            ],
            queries=[QueryDef(q, f"q{q}", 300.0) for q in range(4)],
            plans=[
                PlanDef(0, 0, frozenset({0}), 100.0),
                PlanDef(1, 1, frozenset({1}), 2.0),
                PlanDef(2, 2, frozenset({2}), 1.0),
                PlanDef(3, 3, frozenset({3}), 90.0),
            ],
        )
        constraints = ConstraintSet(4)
        for good in (0, 3):
            for bad in (1, 2):
                constraints.add_precedence(good, bad)
        added = apply_tails(instance, constraints)
        # The genuinely new deduction: the bad index precedes the worse.
        assert added >= 1
        assert constraints.is_before(1, 2)

    def test_no_forced_tail_on_symmetric_instance(self):
        instance = ProblemInstance(
            indexes=[IndexDef(i, f"ix{i}", 10.0) for i in range(3)],
            queries=[QueryDef(q, f"q{q}", 100.0) for q in range(3)],
            plans=[
                PlanDef(q, q, frozenset({q}), 50.0) for q in range(3)
            ],
        )
        constraints = ConstraintSet(3)
        # Perfectly symmetric: ties keep any single index from closing
        # every champion... except id-ordered tie-breaks; just require
        # optimality is preserved.
        _, unconstrained = brute_force_best(instance)
        apply_tails(instance, constraints)
        _, constrained = brute_force_best(instance, constraints)
        assert constrained == pytest.approx(unconstrained)
