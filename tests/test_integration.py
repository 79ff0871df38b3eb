"""End-to-end integration tests across the whole pipeline.

These mirror the paper's Figure-3 flow: workload -> design tool ->
what-if extraction -> matrix file -> pre-analysis -> solver ->
deployment schedule.
"""

from __future__ import annotations

import pytest

from repro.analysis.fixpoint import analyze
from repro.core.objective import ObjectiveEvaluator
from repro.core.serialization import load_instance, save_instance
from repro.core.solution import SolveStatus
from repro.core.validation import (
    check_order_feasible,
    check_precedence_feasibility,
)
from repro.dbms.advisor import AdvisorConfig, IndexAdvisor
from repro.dbms.catalog import Catalog
from repro.dbms.extract import InstanceExtractor
from repro.dbms.query import JoinEdge, Predicate, PredicateOp, Query, Workload
from repro.dbms.schema import Column, IndexSpec, Table
from repro.solvers.astar import AStarSolver
from repro.solvers.base import Budget
from repro.solvers.cp.search import CPSolver
from repro.solvers.exhaustive import ExhaustiveSolver
from repro.solvers.greedy import GreedySolver
from repro.solvers.localsearch.vns import VNSSolver


def izunes_catalog() -> Catalog:
    """The introduction's iZunes store, post schema evolution."""
    catalog = Catalog()
    catalog.add_table(
        Table(
            "customer",
            [
                Column("custid", width=8, distinct=2_000_000),
                Column("name", width=32, distinct=1_500_000),
                Column("plan_tier", width=4, distinct=4),
                Column("signup_date", width=8, distinct=3_000),
            ],
            row_count=2_000_000,
        )
    )
    catalog.add_table(
        Table(
            "cust_countries",
            [
                Column("custid", width=8, distinct=2_000_000),
                Column("country", width=4, distinct=150),
            ],
            row_count=3_000_000,
        )
    )
    catalog.add_table(
        Table(
            "purchases",
            [
                Column("purchase_id", width=8, distinct=20_000_000),
                Column("custid", width=8, distinct=2_000_000),
                Column("track_id", width=8, distinct=500_000),
                Column("price", width=8, distinct=200),
                Column("purchase_date", width=8, distinct=3_000),
            ],
            row_count=20_000_000,
        )
    )
    return catalog


def izunes_workload() -> Workload:
    return Workload(
        "izunes",
        [
            Query(
                "rollup_by_country",
                tables=["customer", "cust_countries"],
                predicates=[
                    Predicate(
                        "cust_countries", "country", PredicateOp.EQ
                    )
                ],
                joins=[
                    JoinEdge(
                        "customer", "custid", "cust_countries", "custid"
                    )
                ],
                select=[("customer", "plan_tier")],
            ),
            Query(
                "revenue_by_country",
                tables=["cust_countries", "purchases"],
                predicates=[
                    Predicate(
                        "purchases",
                        "purchase_date",
                        PredicateOp.RANGE,
                        selectivity=0.1,
                    )
                ],
                joins=[
                    JoinEdge(
                        "cust_countries", "custid", "purchases", "custid"
                    )
                ],
                group_by=[("cust_countries", "country")],
                select=[("purchases", "price")],
            ),
            Query(
                "recent_signups",
                tables=["customer"],
                predicates=[
                    Predicate(
                        "customer",
                        "signup_date",
                        PredicateOp.RANGE,
                        selectivity=0.02,
                    )
                ],
                select=[("customer", "plan_tier")],
            ),
        ],
    )


@pytest.fixture(scope="module")
def izunes_instance():
    catalog = izunes_catalog()
    workload = izunes_workload()
    advisor = IndexAdvisor(catalog, workload, AdvisorConfig(max_indexes=8))
    suggested = advisor.select()
    extractor = InstanceExtractor(catalog, workload)
    return extractor.extract(suggested, name="izunes")


class TestFullPipeline:
    def test_extraction_produces_solvable_instance(self, izunes_instance):
        assert 2 <= izunes_instance.n_indexes <= 8
        assert izunes_instance.n_plans >= izunes_instance.n_queries - 1
        check_precedence_feasibility(izunes_instance)

    def test_matrix_file_roundtrip_through_disk(
        self, izunes_instance, tmp_path
    ):
        path = tmp_path / "izunes.json"
        save_instance(izunes_instance, path)
        again = load_instance(path)
        order = list(range(again.n_indexes))
        assert ObjectiveEvaluator(again).evaluate(order) == pytest.approx(
            ObjectiveEvaluator(izunes_instance).evaluate(order)
        )

    def test_analysis_then_exact_solve(self, izunes_instance):
        report = analyze(izunes_instance)
        if izunes_instance.n_indexes <= 8:
            result = ExhaustiveSolver().solve(
                izunes_instance, constraints=report.constraints
            )
            assert result.status is SolveStatus.OPTIMAL
            check_order_feasible(izunes_instance, result.solution.order)

    def test_greedy_vns_improvement_chain(self, izunes_instance):
        greedy = GreedySolver().solve(izunes_instance)
        vns = VNSSolver(seed=0).solve(
            izunes_instance, budget=Budget(time_limit=1.0)
        )
        assert vns.solution.objective <= greedy.solution.objective + 1e-9

    def test_schedule_narrates_deployment(self, izunes_instance):
        result = GreedySolver().solve(izunes_instance)
        schedule = ObjectiveEvaluator(izunes_instance).schedule(
            result.solution.order
        )
        assert len(schedule.steps) == izunes_instance.n_indexes
        assert schedule.total_deploy_time > 0
        # The improvement curve ends at the fully-tuned runtime.
        final = izunes_instance.total_runtime(
            range(izunes_instance.n_indexes)
        )
        assert schedule.final_runtime == pytest.approx(final)


class TestCrossSolverAgreement:
    """CP and exhaustive must agree on extracted (not just synthetic) data."""

    def test_cp_matches_exhaustive(self, izunes_instance):
        if izunes_instance.n_indexes > 7:
            pytest.skip("CP would be slow; covered by reduced instance")
        exhaustive = ExhaustiveSolver().solve(izunes_instance)
        cp = CPSolver().solve(izunes_instance)
        assert cp.solution.objective == pytest.approx(
            exhaustive.solution.objective
        )

    def test_reduced_tpch_cross_check(self, reduced_tpch_13):
        # 13-index low-density TPC-H with the pre-analysis constraints:
        # exhaustive+, CP+ and A*+ prove it in well under a second.  CP
        # is the exhaustive DFS; A* sums the same terms in a different
        # order, hence the tolerance.
        constraints = analyze(reduced_tpch_13).constraints
        exhaustive = ExhaustiveSolver().solve(
            reduced_tpch_13, constraints, Budget(time_limit=30.0)
        )
        astar = AStarSolver().solve(
            reduced_tpch_13, constraints, Budget(time_limit=30.0)
        )
        cp = CPSolver().solve(
            reduced_tpch_13, constraints, Budget(time_limit=30.0)
        )
        assert exhaustive.status is SolveStatus.OPTIMAL
        assert astar.status is SolveStatus.OPTIMAL
        assert cp.status is SolveStatus.OPTIMAL
        assert constraints.check_order(cp.solution.order)
        optimum = exhaustive.solution.objective
        assert astar.solution.objective == pytest.approx(optimum, rel=1e-9)
        assert cp.solution.objective == pytest.approx(optimum, rel=1e-9)
