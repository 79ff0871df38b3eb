"""Unit tests for the exact solvers: exhaustive B&B, subset DP, A*.

``CPSolver`` runs the exhaustive DFS, so it is one more input here.

Every exact solver must find the brute-force optimum and prove
optimality on instances small enough for the oracle.
"""

from __future__ import annotations

import pytest

from repro.analysis.constraints import ConstraintSet
from repro.analysis.fixpoint import analyze
from repro.core.engine import EvalEngine
from repro.core.objective import ObjectiveEvaluator
from repro.core.solution import SolveStatus
from repro.errors import SolverError, ValidationError
from repro.experiments.instances import reduced_tpch
from repro.solvers.astar import AStarSolver, SubsetDPSolver
from repro.solvers.base import Budget
from repro.solvers.cp import CPSolver
from repro.solvers.exhaustive import ExhaustiveSolver
from repro.solvers.greedy import GreedySolver, greedy_order

from tests.conftest import (
    brute_force_best,
    make_paper_example,
    make_precedence_example,
    small_synthetic,
)

EXACT_SOLVERS = [
    pytest.param(ExhaustiveSolver(), id="exhaustive"),
    pytest.param(SubsetDPSolver(), id="subset-dp"),
    pytest.param(AStarSolver(), id="astar"),
    pytest.param(CPSolver(), id="cp"),
]


@pytest.mark.parametrize("solver", EXACT_SOLVERS)
class TestExactOptimality:
    def test_paper_example(self, solver, paper_example):
        best_order, best_objective = brute_force_best(paper_example)
        result = solver.solve(paper_example)
        assert result.status is SolveStatus.OPTIMAL
        assert result.solution.objective == pytest.approx(best_objective)

    @pytest.mark.parametrize("seed", range(5))
    def test_synthetic_optimum(self, solver, seed):
        instance = small_synthetic(seed=seed, n=6)
        _, best_objective = brute_force_best(instance)
        result = solver.solve(instance)
        assert result.status is SolveStatus.OPTIMAL
        assert result.solution.objective == pytest.approx(best_objective)
        result.solution.validate_against(instance)

    def test_build_interactions_handled(self, solver):
        instance = small_synthetic(seed=3, n=6, build_interaction_rate=2.0)
        _, best_objective = brute_force_best(instance)
        result = solver.solve(instance)
        assert result.solution.objective == pytest.approx(best_objective)

    def test_single_index_instance(self, solver):
        instance = small_synthetic(seed=0, n=1)
        result = solver.solve(instance)
        assert result.solution.order == (0,)
        assert result.status is SolveStatus.OPTIMAL


class TestExactWithConstraints:
    @pytest.mark.parametrize(
        "solver",
        [
            pytest.param(ExhaustiveSolver(), id="exhaustive"),
            pytest.param(CPSolver(), id="cp"),
        ],
    )
    def test_constraints_change_feasible_set(self, solver):
        instance = small_synthetic(seed=8, n=6)
        constraints = ConstraintSet(6)
        constraints.add_precedence(5, 0)
        _, best_constrained = brute_force_best(instance, constraints)
        result = solver.solve(instance, constraints=constraints)
        assert result.solution.objective == pytest.approx(best_constrained)
        assert constraints.check_order(result.solution.order)

    def test_analysis_constraints_preserve_exhaustive_optimum(self):
        instance = small_synthetic(seed=4, n=7)
        _, unconstrained = brute_force_best(instance)
        report = analyze(instance)
        result = ExhaustiveSolver().solve(
            instance, constraints=report.constraints
        )
        assert result.solution.objective == pytest.approx(unconstrained)

    def test_precedence_example(self):
        instance = make_precedence_example()
        constraints = ConstraintSet(3)
        for rule in instance.precedences:
            constraints.add_precedence(rule.before, rule.after)
        result = ExhaustiveSolver().solve(instance, constraints=constraints)
        assert result.solution.order[0] == 0  # clustered index first
        _, best = brute_force_best(instance, constraints)
        assert result.solution.objective == pytest.approx(best)


def _pair_conflict(constraints):
    constraints.add_consecutive(0, 1)
    constraints.add_consecutive(0, 2)


def _pair_straddled(constraints):
    constraints.add_consecutive(0, 1)
    constraints.add_precedence(0, 2)
    constraints.add_precedence(2, 1)


@pytest.mark.parametrize(
    "solver",
    EXACT_SOLVERS
    # The explicit strategy perfbench's exact-tpch cell passes.
    + [pytest.param(CPSolver(strategy="sequential"), id="cp-sequential")],
)
@pytest.mark.parametrize("add", [_pair_conflict, _pair_straddled])
def test_unsatisfiable_pairs_are_infeasible(solver, add):
    # No order satisfies either set, and the greedy order breaks both:
    # an exact solver must say INFEASIBLE rather than prove that order.
    instance = small_synthetic(seed=0, n=5)
    constraints = ConstraintSet(5)
    add(constraints)
    result = solver.solve(instance, constraints=constraints)
    assert result.status is SolveStatus.INFEASIBLE
    assert result.solution is None


@pytest.mark.parametrize("add", [_pair_conflict, _pair_straddled])
def test_greedy_returns_no_order_it_breaks(add):
    # Greedy cannot prove a set unsatisfiable, but it must not label the
    # order it builds FEASIBLE when that order breaks the set.
    instance = small_synthetic(seed=0, n=5)
    constraints = ConstraintSet(5)
    add(constraints)
    assert not constraints.check_order(greedy_order(instance, constraints))
    result = GreedySolver().solve(instance, constraints=constraints)
    assert result.status is SolveStatus.DID_NOT_FINISH
    assert result.solution is None


class TestOneDFS:
    """CP is the exhaustive DFS, seeded by greedy."""

    @pytest.mark.parametrize("size, density", [(9, "low"), (13, "mid")])
    def test_cp_sequential_is_the_exhaustive_dfs(self, size, density):
        instance = reduced_tpch(size, density)
        constraints = analyze(instance).constraints
        exhaustive = ExhaustiveSolver().solve(instance, constraints)
        cp = CPSolver().solve(instance, constraints)
        assert exhaustive.status is SolveStatus.OPTIMAL
        assert cp.status is SolveStatus.OPTIMAL
        assert cp.solution.order == exhaustive.solution.order
        assert cp.solution.objective == exhaustive.solution.objective
        assert cp.nodes == exhaustive.nodes
        greedy = EvalEngine(instance).evaluate(greedy_order(instance, constraints))
        assert exhaustive.trace[0][1] == greedy
        assert cp.trace[0][1] == greedy


class TestBudgets:
    def test_exhaustive_times_out_gracefully(self):
        instance = small_synthetic(seed=1, n=9)
        result = ExhaustiveSolver().solve(
            instance, budget=Budget(node_limit=5)
        )
        assert result.status in (SolveStatus.TIMEOUT, SolveStatus.FEASIBLE)
        if result.solution is not None:
            result.solution.validate_against(instance)

    def test_astar_node_budget(self):
        instance = small_synthetic(seed=1, n=9)
        result = AStarSolver().solve(instance, budget=Budget(node_limit=3))
        assert result.status is not SolveStatus.OPTIMAL

    @pytest.mark.parametrize("solver_cls", [AStarSolver, SubsetDPSolver])
    def test_lattice_timeout_returns_the_greedy_order(self, solver_cls):
        instance = small_synthetic(seed=1, n=9)
        result = solver_cls().solve(instance, budget=Budget(node_limit=3))
        assert result.status is SolveStatus.TIMEOUT
        assert result.nodes == 3
        assert result.solution.order == tuple(greedy_order(instance))
        result.solution.validate_against(instance)
        assert result.solution.objective == pytest.approx(
            ObjectiveEvaluator(instance).evaluate(result.solution.order),
            rel=1e-9,
        )
        assert result.trace == [(result.runtime, result.solution.objective)]

    @pytest.mark.parametrize("solver_cls", [AStarSolver, SubsetDPSolver])
    def test_lattice_timeout_without_a_feasible_greedy_order(self, solver_cls):
        instance = small_synthetic(seed=1, n=9)
        constraints = ConstraintSet(9)
        _pair_conflict(constraints)
        result = solver_cls().solve(
            instance, constraints, budget=Budget(node_limit=3)
        )
        assert result.status in (SolveStatus.TIMEOUT, SolveStatus.INFEASIBLE)
        assert result.solution is None


class TestSubsetDPGuard:
    def test_refuses_large_instances(self):
        instance = small_synthetic(seed=0, n=6)
        solver = SubsetDPSolver(max_indexes=5)
        with pytest.raises(ValidationError, match="limited to"):
            solver.solve(instance)

    def test_nodes_counted(self):
        instance = small_synthetic(seed=0, n=6)
        result = SubsetDPSolver().solve(instance)
        assert result.nodes > 0


class TestSolversAgreeOnDegenerateShapes:
    def test_no_plans_at_all(self):
        from repro.core.instance import IndexDef, ProblemInstance, QueryDef

        instance = ProblemInstance(
            indexes=[IndexDef(i, f"ix{i}", 10.0 + i) for i in range(4)],
            queries=[QueryDef(0, "q", 100.0)],
            plans=[],
        )
        # Runtime never changes; any order has the same objective.
        _, best = brute_force_best(instance)
        for solver in (ExhaustiveSolver(), SubsetDPSolver(), AStarSolver()):
            result = solver.solve(instance)
            assert result.solution.objective == pytest.approx(best)

    def test_zero_runtime_queries(self):
        from repro.core.instance import IndexDef, ProblemInstance, QueryDef

        instance = ProblemInstance(
            indexes=[IndexDef(0, "a", 5.0), IndexDef(1, "b", 3.0)],
            queries=[QueryDef(0, "q", 0.0)],
            plans=[],
        )
        result = ExhaustiveSolver().solve(instance)
        assert result.solution.objective == pytest.approx(0.0)
