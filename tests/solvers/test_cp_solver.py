"""Unit tests for the CP solver (Section 6)."""

from __future__ import annotations

import pytest

from repro.analysis.constraints import ConstraintSet
from repro.analysis.fixpoint import analyze
from repro.core.solution import SolveStatus
from repro.solvers.base import Budget
from repro.solvers.cp.search import CPModel, CPSolver

from tests.conftest import (
    brute_force_best,
    make_paper_example,
    make_precedence_example,
    small_synthetic,
)


class TestCPSolverOptimality:
    @pytest.mark.parametrize("seed", range(4))
    def test_finds_and_proves_optimum(self, seed):
        instance = small_synthetic(seed=seed, n=6)
        _, best = brute_force_best(instance)
        result = CPSolver().solve(instance)
        assert result.status is SolveStatus.OPTIMAL
        assert result.solution.objective == pytest.approx(best)
        result.solution.validate_against(instance)

    def test_paper_example(self, paper_example):
        result = CPSolver().solve(paper_example)
        assert result.status is SolveStatus.OPTIMAL
        assert result.solution.order == (1, 0)

    @pytest.mark.parametrize("strategy", ["first_fail", "sequential"])
    def test_both_strategies_agree(self, strategy):
        instance = small_synthetic(seed=2, n=6)
        _, best = brute_force_best(instance)
        result = CPSolver(strategy=strategy).solve(instance)
        assert result.solution.objective == pytest.approx(best)

    def test_without_hall_filtering_still_exact(self):
        instance = small_synthetic(seed=2, n=6)
        _, best = brute_force_best(instance)
        result = CPSolver(hall=False).solve(instance)
        assert result.solution.objective == pytest.approx(best)

    def test_without_greedy_seed_still_exact(self):
        instance = small_synthetic(seed=2, n=6)
        _, best = brute_force_best(instance)
        result = CPSolver(seed_incumbent=False).solve(instance)
        assert result.solution.objective == pytest.approx(best)

    def test_build_interactions(self):
        instance = small_synthetic(seed=5, n=6, build_interaction_rate=2.0)
        _, best = brute_force_best(instance)
        result = CPSolver().solve(instance)
        assert result.solution.objective == pytest.approx(best)


class TestCPWithConstraints:
    def test_respects_added_constraints(self):
        instance = small_synthetic(seed=1, n=6)
        constraints = ConstraintSet(6)
        constraints.add_precedence(5, 0)
        constraints.add_consecutive(1, 2)
        _, best = brute_force_best(instance, constraints)
        result = CPSolver().solve(instance, constraints=constraints)
        assert constraints.check_order(result.solution.order)
        assert result.solution.objective == pytest.approx(best)

    def test_analysis_constraints_preserve_optimum(self):
        instance = small_synthetic(seed=6, n=7)
        _, unconstrained = brute_force_best(instance)
        report = analyze(instance)
        result = CPSolver().solve(instance, constraints=report.constraints)
        assert result.status is SolveStatus.OPTIMAL
        assert result.solution.objective == pytest.approx(unconstrained)

    def test_analysis_constraints_shrink_search(self):
        instance = small_synthetic(seed=6, n=7)
        plain = CPSolver().solve(instance)
        report = analyze(instance)
        pruned = CPSolver().solve(instance, constraints=report.constraints)
        if report.constraints.implied_pair_count() > 0:
            assert pruned.nodes <= plain.nodes

    def test_hard_precedences(self):
        instance = make_precedence_example()
        constraints = ConstraintSet(3)
        for rule in instance.precedences:
            constraints.add_precedence(rule.before, rule.after)
        result = CPSolver().solve(instance, constraints=constraints)
        assert result.solution.order[0] == 0


class TestCPBudget:
    def test_node_budget_times_out(self):
        instance = small_synthetic(seed=0, n=10)
        result = CPSolver().solve(instance, budget=Budget(node_limit=10))
        assert result.status in (SolveStatus.TIMEOUT, SolveStatus.FEASIBLE)
        # The greedy seed guarantees a solution even on immediate timeout.
        assert result.solution is not None

    def test_time_budget_times_out(self):
        instance = small_synthetic(seed=0, n=12)
        result = CPSolver().solve(instance, budget=Budget(time_limit=0.05))
        assert result.solution is not None
        assert result.status is not SolveStatus.OPTIMAL

    def test_trace_recorded(self):
        instance = small_synthetic(seed=3, n=6)
        result = CPSolver().solve(instance)
        assert result.trace  # at least one incumbent event


class TestCPSolverOptions:
    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            CPSolver(strategy="nonsense")

    @pytest.mark.parametrize("strategy", ["first_fail", "sequential"])
    def test_without_greedy_seed_starts_with_no_incumbent(self, strategy):
        instance = small_synthetic(seed=2, n=6)
        solver = CPSolver(strategy=strategy, seed_incumbent=False)
        result = solver.solve(instance, budget=Budget(node_limit=1))
        assert result.status is SolveStatus.TIMEOUT
        assert result.solution is None
        seeded = CPSolver(strategy=strategy).solve(
            instance, budget=Budget(node_limit=1)
        )
        assert seeded.solution is not None


class TestCPModel:
    def test_store_reflects_position_bounds(self):
        instance = small_synthetic(seed=0, n=5)
        constraints = ConstraintSet(5)
        constraints.add_precedence(0, 1)
        model = CPModel(instance, constraints)
        store = model.create_store()
        engine = model.create_engine()
        engine.propagate(store)
        assert store.min_value(1) >= 1
        assert store.max_value(0) <= 3
