"""Unit tests for the time-indexed MIP formulation (Appendix B).

The MIP is the paper's weakest method; it only handles tiny instances.
Ordering tests keep ``n <= 5`` and use generous discretization so the
model stays exact enough to order correctly.  The budget tests use
instances HiGHS does not close in time: reduced TPC-H at 8 indexes and
full TPC-H.
"""

from __future__ import annotations

import time

import pytest

from repro.analysis.constraints import ConstraintSet
from repro.analysis.fixpoint import analyze
from repro.core.objective import ObjectiveEvaluator
from repro.core.solution import SolveStatus
from repro.experiments.instances import reduced_tpch
from repro.solvers.base import Budget
from repro.solvers.mip.branch_bound import MIPSolver
from repro.solvers.mip.model import build_model

from tests.conftest import brute_force_best, make_paper_example, small_synthetic


class TestMIPModel:
    def test_model_builds(self, paper_example):
        model = build_model(paper_example, steps_per_index=4)
        assert model.n_variables > 0

    def test_variable_count_grows_with_discretization(self, paper_example):
        small = build_model(paper_example, steps_per_index=2)
        large = build_model(paper_example, steps_per_index=8)
        assert large.n_variables > small.n_variables


class TestMIPSolver:
    def test_paper_example_order(self, paper_example):
        result = MIPSolver(steps_per_index=8).solve(
            paper_example, budget=Budget(time_limit=60.0)
        )
        assert result.solution is not None
        assert result.solution.order == (1, 0)
        assert result.trace[-1][1] == result.solution.objective

    def test_tiny_synthetic(self):
        instance = small_synthetic(seed=0, n=3, n_queries=3)
        _, best = brute_force_best(instance)
        result = MIPSolver(steps_per_index=6).solve(
            instance, budget=Budget(time_limit=120.0)
        )
        assert result.solution is not None
        # Discretization error allows small slack; the returned order is
        # re-evaluated exactly, so compare objectives directly.
        assert result.solution.objective <= best * 1.10 + 1e-9

    def test_did_not_finish_on_variable_blowup(self, tpcds_full):
        result = MIPSolver(variable_limit=1000).solve(tpcds_full)
        assert result.status is SolveStatus.DID_NOT_FINISH
        assert result.solution is None
        assert "variable" in result.message.lower() or result.message

    def test_budget_timeout_reported(self):
        instance = small_synthetic(seed=2, n=5)
        result = MIPSolver(steps_per_index=6).solve(
            instance, budget=Budget(time_limit=0.01)
        )
        assert result.status in (
            SolveStatus.TIMEOUT,
            SolveStatus.DID_NOT_FINISH,
            SolveStatus.FEASIBLE,
        )

    def test_closed_model_is_not_a_proof(self):
        # A closed time-indexed model proves only its discretized
        # optimum, so it must not be OPTIMAL.
        instance = small_synthetic(seed=22, n=3, n_queries=3)
        result = MIPSolver(steps_per_index=1).solve(
            instance, budget=Budget(time_limit=60.0)
        )
        assert result.status is SolveStatus.FEASIBLE
        assert "not proved optimal" in result.message
        # At 4 low+ the model's unique optimum is a worse real order
        # than the brute-force optimum over the feasible orders.
        instance = reduced_tpch(4, "low")
        constraints = analyze(instance, time_budget=None).constraints
        _, best = brute_force_best(instance, constraints)
        result = MIPSolver(steps_per_index=3).solve(
            instance, constraints, Budget(time_limit=60.0)
        )
        assert result.status is SolveStatus.FEASIBLE
        assert result.solution.objective > best * (1 + 1e-9)

    def test_node_budget_stops_with_an_order(self):
        instance = reduced_tpch(8, "low")
        budget = Budget(node_limit=20)
        result = MIPSolver(steps_per_index=3).solve(instance, budget=budget)
        assert result.nodes <= 20
        assert budget.nodes == result.nodes
        assert result.status is SolveStatus.TIMEOUT
        assert result.message == "budget exhausted (DF)"
        self._assert_exact_order(instance, result)

    def test_timeout_on_full_tpch_returns_an_order(self, tpch_full):
        # HiGHS may stop here before it has an incumbent; the order then
        # comes from the greedy fallback.
        start = time.perf_counter()
        result = MIPSolver(steps_per_index=1).solve(
            tpch_full, budget=Budget(time_limit=1.0)
        )
        assert time.perf_counter() - start < 1.5
        assert result.status is SolveStatus.TIMEOUT
        assert result.message == "budget exhausted (DF)"
        self._assert_exact_order(tpch_full, result)

    @staticmethod
    def _assert_exact_order(instance, result):
        order = result.solution.order
        assert sorted(order) == list(range(instance.n_indexes))
        exact = ObjectiveEvaluator(instance).evaluate(order)
        assert result.solution.objective == pytest.approx(exact, rel=1e-9)
        assert result.trace[-1][1] == result.solution.objective

    def test_constraints_respected(self, paper_example):
        constraints = ConstraintSet(2)
        constraints.add_precedence(0, 1)  # force the bad order
        result = MIPSolver(steps_per_index=8).solve(
            paper_example,
            constraints=constraints,
            budget=Budget(time_limit=60.0),
        )
        assert result.solution is not None
        assert result.solution.order == (0, 1)
