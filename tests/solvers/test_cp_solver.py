"""Unit tests for the CP solver (Section 6)."""

from __future__ import annotations

import time

import pytest

from repro.analysis.constraints import ConstraintSet
from repro.analysis.fixpoint import analyze
from repro.core.solution import SolveStatus
from repro.solvers.base import Budget
from repro.solvers.cp.search import CPSolver
from repro.solvers.greedy import greedy_order

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
        # The DFS proves n=12 in ~0.02 s; n=20 runs well past 5 s.
        instance = small_synthetic(seed=0, n=20)
        result = CPSolver().solve(instance, budget=Budget(time_limit=0.05))
        assert result.solution is not None
        assert result.status is not SolveStatus.OPTIMAL

    def test_trace_recorded(self):
        instance = small_synthetic(seed=3, n=6)
        result = CPSolver().solve(instance)
        assert result.trace  # at least one incumbent event


class TestCPSolverOptions:
    def test_rejects_unknown_strategy(self):
        # First-fail is gone: CP is the DFS, filling positions in order.
        for strategy in ("nonsense", "first_fail"):
            with pytest.raises(ValueError, match="unknown strategy"):
                CPSolver(strategy=strategy)

    def test_greedy_seed_is_the_first_incumbent(self):
        instance = small_synthetic(seed=2, n=6)
        result = CPSolver().solve(instance, budget=Budget(node_limit=1))
        assert result.status is SolveStatus.TIMEOUT
        assert result.solution.order == tuple(greedy_order(instance))

    def test_trace_counts_set_up_and_runs_forwards(self, monkeypatch):
        # With a slow greedy start, every trace point is stamped after
        # it: the seed point and the search's improvements share the
        # solve's clock.
        def slow_greedy(*args, **kwargs):
            time.sleep(0.2)
            return greedy_order(*args, **kwargs)

        monkeypatch.setattr("repro.solvers.exhaustive.greedy_order", slow_greedy)
        result = CPSolver().solve(small_synthetic(0, 7))
        times = [stamp for stamp, _ in result.trace]
        assert len(times) > 1
        assert times[0] >= 0.2
        assert times == sorted(times)
