"""Unit tests for the cost-based what-if optimizer."""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dbms.advisor import generate_candidates
from repro.dbms.catalog import Catalog
from repro.dbms.optimizer import CostModel, Optimizer
from repro.dbms.query import JoinEdge, Predicate, PredicateOp, Query
from repro.dbms.schema import Column, IndexSpec, Table
from repro.dbms.whatif import WhatIfOptimizer
from repro.workloads.tpcds import tpcds_catalog, tpcds_workload
from repro.workloads.tpch import tpch_catalog, tpch_workload


@pytest.fixture
def catalog() -> Catalog:
    cat = Catalog()
    cat.add_table(
        Table(
            "people",
            [
                Column("id", width=8, distinct=200_000),
                Column("city", width=16, distinct=500),
                Column("salary", width=8, distinct=10_000),
                Column("report_to", width=8, distinct=20_000),
            ],
            row_count=200_000,
        )
    )
    cat.add_table(
        Table(
            "orders",
            [
                Column("order_id", width=8, distinct=1_000_000),
                Column("person_id", width=8, distinct=200_000),
                Column("total", width=8, distinct=50_000),
            ],
            row_count=1_000_000,
        )
    )
    return cat


def city_query() -> Query:
    return Query(
        "avg_salary_by_city",
        tables=["people"],
        predicates=[Predicate("people", "city", PredicateOp.EQ)],
        select=[("people", "salary")],
    )


def join_query() -> Query:
    return Query(
        "orders_of_city",
        tables=["people", "orders"],
        predicates=[Predicate("people", "city", PredicateOp.EQ)],
        joins=[JoinEdge("people", "id", "orders", "person_id")],
        select=[("orders", "total")],
    )


class TestAccessPaths:
    def test_heap_scan_always_available(self, catalog):
        optimizer = Optimizer(catalog)
        paths = optimizer.access_paths(city_query(), "people", set())
        assert len(paths) == 1
        assert paths[0].index_name is None

    def test_index_seek_beats_heap_on_selective_filter(self, catalog):
        catalog.add_index(IndexSpec("ix_city", "people", ("city",)))
        optimizer = Optimizer(catalog)
        best = optimizer.best_access_path(
            city_query(), "people", {"ix_city"}
        )
        assert best.index_name == "ix_city"
        heap = optimizer.access_paths(city_query(), "people", set())[0]
        assert best.cost < heap.cost

    def test_unavailable_index_ignored(self, catalog):
        catalog.add_index(IndexSpec("ix_city", "people", ("city",)))
        optimizer = Optimizer(catalog)
        best = optimizer.best_access_path(city_query(), "people", set())
        assert best.index_name is None

    def test_covering_index_cheaper_than_noncovering(self, catalog):
        catalog.add_index(IndexSpec("ix_city", "people", ("city",)))
        catalog.add_index(
            IndexSpec(
                "ix_city_cov",
                "people",
                ("city",),
                include_columns=("salary",),
            )
        )
        optimizer = Optimizer(catalog)
        paths = {
            p.index_name: p
            for p in optimizer.access_paths(
                city_query(), "people", {"ix_city", "ix_city_cov"}
            )
        }
        assert paths["ix_city_cov"].index_only
        assert not paths["ix_city"].index_only
        assert paths["ix_city_cov"].cost < paths["ix_city"].cost

    def test_unmatched_noncovering_index_skipped(self, catalog):
        catalog.add_index(IndexSpec("ix_sal", "people", ("salary",)))
        optimizer = Optimizer(catalog)
        paths = optimizer.access_paths(city_query(), "people", {"ix_sal"})
        # ix_sal neither matches the filter nor covers the query.
        assert all(p.index_name != "ix_sal" for p in paths)

    def test_covering_scan_without_key_match(self, catalog):
        catalog.add_index(
            IndexSpec(
                "ix_sal_cov",
                "people",
                ("salary",),
                include_columns=("city",),
            )
        )
        optimizer = Optimizer(catalog)
        paths = {
            p.index_name
            for p in optimizer.access_paths(
                city_query(), "people", {"ix_sal_cov"}
            )
        }
        assert "ix_sal_cov" in paths  # usable as an index-only scan


class TestPlans:
    def test_single_table_plan(self, catalog):
        optimizer = Optimizer(catalog)
        plan = optimizer.optimize(city_query(), set())
        assert plan.used_indexes == frozenset()
        assert plan.join_order == ("people",)
        assert plan.cost > 0

    def test_join_plan_covers_all_tables(self, catalog):
        optimizer = Optimizer(catalog)
        plan = optimizer.optimize(join_query(), set())
        assert set(plan.join_order) == {"people", "orders"}

    def test_more_indexes_never_hurt(self, catalog):
        catalog.add_index(IndexSpec("ix_city", "people", ("city",)))
        catalog.add_index(
            IndexSpec("ix_person", "orders", ("person_id",))
        )
        optimizer = Optimizer(catalog)
        empty = optimizer.optimize(join_query(), set())
        partial = optimizer.optimize(join_query(), {"ix_city"})
        full = optimizer.optimize(join_query(), {"ix_city", "ix_person"})
        assert partial.cost <= empty.cost + 1e-9
        assert full.cost <= partial.cost + 1e-9

    def test_join_interaction_both_indexes_used(self, catalog):
        # The Section-4.2 pattern: index on the filter + index on the
        # join column of the big inner table combine multiplicatively.
        catalog.add_index(IndexSpec("ix_city", "people", ("city",)))
        catalog.add_index(IndexSpec("ix_person", "orders", ("person_id",)))
        optimizer = Optimizer(catalog)
        full = optimizer.optimize(join_query(), {"ix_city", "ix_person"})
        assert full.used_indexes == frozenset({"ix_city", "ix_person"})

    def test_deterministic(self, catalog):
        catalog.add_index(IndexSpec("ix_city", "people", ("city",)))
        optimizer = Optimizer(catalog)
        first = optimizer.optimize(join_query(), {"ix_city"})
        second = optimizer.optimize(join_query(), {"ix_city"})
        assert first.cost == second.cost
        assert first.join_order == second.join_order

    def test_group_by_sort_cost(self, catalog):
        grouped = Query(
            "grouped",
            tables=["people"],
            predicates=[Predicate("people", "city", PredicateOp.EQ)],
            group_by=[("people", "salary")],
        )
        flat = city_query()
        optimizer = Optimizer(catalog)
        assert (
            optimizer.optimize(grouped, set()).cost
            > optimizer.optimize(flat, set()).cost
        )

    def test_sort_avoided_by_matching_index_order(self, catalog):
        catalog.add_index(
            IndexSpec(
                "ix_sal_cov",
                "people",
                ("salary",),
                include_columns=("city",),
            )
        )
        grouped = Query(
            "grouped",
            tables=["people"],
            group_by=[("people", "salary")],
            select=[("people", "city")],
        )
        optimizer = Optimizer(catalog)
        without = optimizer.optimize(grouped, set())
        with_ix = optimizer.optimize(grouped, {"ix_sal_cov"})
        assert with_ix.cost < without.cost


def _with_candidates(catalog, workload):
    """The advisor's candidates, registered as hypothetical indexes."""
    names = []
    for spec in generate_candidates(catalog, workload):
        catalog.add_index(spec, hypothetical=True)
        names.append(spec.name)
    return catalog, workload, names


#: TPC-H and the pipeline benchmark's TPC-DS subset (10 queries, seed
#: 2012), each with its candidates registered.
WORKLOADS = {
    "tpch": lambda: _with_candidates(tpch_catalog(), tpch_workload()),
    "tpcds-subset": lambda: _with_candidates(
        tpcds_catalog(), tpcds_workload(n_queries=10, seed=2012)
    ),
}


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def candidate_workload(request):
    """One candidate catalog per workload, for tests that never change it."""
    return WORKLOADS[request.param]()


def _same_plan(plan, other):
    assert other.cost == plan.cost
    assert other.used_indexes == plan.used_indexes
    assert other.join_order == plan.join_order


class TestMemoizedPlanning:
    """The access-path and plan memos key on the usable configuration."""

    @pytest.mark.parametrize(
        "workload, seed",
        [pytest.param("tpch", seed, id=str(seed)) for seed in range(3)]
        + [
            pytest.param("tpcds-subset", seed, id=f"tpcds-subset-{seed}")
            for seed in range(3)
        ],
    )
    def test_memoized_plans_match_fresh_optimizers(self, workload, seed):
        catalog, queries, names = WORKLOADS[workload]()
        rng = random.Random(seed)
        optimizer = Optimizer(catalog)
        whatif = WhatIfOptimizer(catalog)
        for _ in range(6):
            hypothetical = rng.sample(names, rng.randint(1, len(names) // 3))
            configuration = catalog.configuration(extra=hypothetical)
            for query in queries:
                fresh = Optimizer(catalog).optimize(query, configuration)
                _same_plan(fresh, optimizer.optimize(query, configuration))
                _same_plan(fresh, whatif.plan(query, hypothetical))

    def test_replaced_index_is_replanned(self, catalog):
        catalog.add_index(
            IndexSpec("hx", "people", ("city",)), hypothetical=True
        )
        optimizer = Optimizer(catalog)
        whatif = WhatIfOptimizer(catalog)
        query = city_query()
        assert optimizer.optimize(query, {"hx"}).used_indexes == {"hx"}
        assert whatif.plan(query, ["hx"]).used_indexes == {"hx"}
        # Same name, now an index the query cannot use.
        catalog.drop_index("hx")
        catalog.add_index(
            IndexSpec("hx", "people", ("report_to",)), hypothetical=True
        )
        fresh = Optimizer(catalog).optimize(query, {"hx"})
        assert fresh.used_indexes == frozenset()
        assert optimizer.optimize(query, {"hx"}) == fresh
        assert whatif.plan(query, ["hx"]) == fresh

    def test_replaced_unusable_index_is_replanned(self, catalog):
        catalog.add_index(
            IndexSpec("hx", "people", ("report_to",)), hypothetical=True
        )
        optimizer = Optimizer(catalog)
        whatif = WhatIfOptimizer(catalog)
        query = city_query()
        assert optimizer.usable(query) == frozenset()
        assert optimizer.optimize(query, {"hx"}).used_indexes == frozenset()
        assert whatif.plan(query, ["hx"]).used_indexes == frozenset()
        # Same name, now an index the query can use.
        catalog.drop_index("hx")
        catalog.add_index(
            IndexSpec("hx", "people", ("city",)), hypothetical=True
        )
        fresh = Optimizer(catalog).optimize(query, {"hx"})
        assert fresh.used_indexes == {"hx"}
        assert optimizer.optimize(query, {"hx"}) == fresh
        assert whatif.plan(query, ["hx"]) == fresh

    def test_queries_sharing_a_name_get_their_own_plans(self):
        catalog = tpch_catalog()
        catalog.add_index(
            IndexSpec("hx", "lineitem", ("l_shipdate",)), hypothetical=True
        )
        workload = tpch_workload()
        first = workload.query("tpch_q1")
        q6 = workload.query("tpch_q6")
        second = Query(
            first.name, q6.tables, q6.predicates, q6.joins, q6.group_by,
            q6.select, q6.weight,
        )
        whatif = WhatIfOptimizer(catalog)
        # Both can use hx, so only the query itself tells their plans apart.
        assert "hx" in whatif.optimizer.usable(first)
        assert "hx" in whatif.optimizer.usable(second)
        configuration = catalog.configuration(extra=["hx"])
        for query in (first, second):
            fresh = Optimizer(catalog).optimize(query, configuration)
            assert whatif.plan(query, ["hx"]) == fresh
        assert whatif.plan(first, ["hx"]).used_indexes == frozenset()
        assert whatif.plan(second, ["hx"]).used_indexes == {"hx"}


class TestUsabilityRule:
    """Indexes the usability rule rejects can never change a plan."""

    def test_rejected_indexes_get_no_access_path(self, candidate_workload):
        catalog, queries, _ = candidate_workload
        optimizer = Optimizer(catalog)
        rejections = 0
        for query in queries:
            for table_name in query.tables:
                inputs = optimizer._table_inputs(query, table_name)
                columns = [None] + [
                    edge.column_of(table_name)
                    for edge in query.joins_of(table_name)
                ]
                for column in columns:
                    usable = optimizer.usable(query, table_name, column)
                    for spec in catalog.indexes_on(table_name):
                        if spec.name in usable:
                            continue
                        rejections += 1
                        assert optimizer._index_path(
                            inputs, spec, column
                        ) is None, (query.name, spec.name, column)
        assert rejections > 0

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_rejected_indexes_change_no_plan(self, candidate_workload, data):
        catalog, queries, names = candidate_workload
        configuration = data.draw(st.sets(st.sampled_from(names)))
        optimizer = Optimizer(catalog)
        for query in queries:
            rejected = set(names) - optimizer.usable(query)
            plan = optimizer.optimize(query, configuration)
            _same_plan(plan, optimizer.optimize(query, configuration | rejected))
            _same_plan(plan, Optimizer(catalog).optimize(query, configuration))


class TestCostModel:
    def test_custom_cost_model_changes_costs(self, catalog):
        query = city_query()
        cheap_cpu = Optimizer(catalog, CostModel(cpu_row=0.0001))
        pricey_cpu = Optimizer(catalog, CostModel(cpu_row=0.1))
        assert (
            cheap_cpu.optimize(query, set()).cost
            < pricey_cpu.optimize(query, set()).cost
        )
