"""Unit tests for the cost-based what-if optimizer."""

from __future__ import annotations

import random

import pytest

from repro.dbms.advisor import generate_candidates
from repro.dbms.catalog import Catalog
from repro.dbms.optimizer import CostModel, Optimizer
from repro.dbms.query import JoinEdge, Predicate, PredicateOp, Query
from repro.dbms.schema import Column, IndexSpec, Table
from repro.dbms.whatif import WhatIfOptimizer
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


class TestMemoizedPlanning:
    """The access-path and plan memos key on the relevant configuration."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_memoized_plans_match_fresh_optimizers(self, seed):
        catalog = tpch_catalog()
        workload = tpch_workload()
        names = []
        for spec in generate_candidates(catalog, workload):
            catalog.add_index(spec, hypothetical=True)
            names.append(spec.name)
        rng = random.Random(seed)
        optimizer = Optimizer(catalog)
        whatif = WhatIfOptimizer(catalog)
        for _ in range(6):
            hypothetical = rng.sample(names, rng.randint(1, len(names) // 3))
            configuration = catalog.configuration(extra=hypothetical)
            for query in workload:
                fresh = Optimizer(catalog).optimize(query, configuration)
                for memoized in (
                    optimizer.optimize(query, configuration),
                    whatif.plan(query, hypothetical),
                ):
                    assert memoized.cost == fresh.cost
                    assert memoized.used_indexes == fresh.used_indexes
                    assert memoized.join_order == fresh.join_order

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


class TestCostModel:
    def test_custom_cost_model_changes_costs(self, catalog):
        query = city_query()
        cheap_cpu = Optimizer(catalog, CostModel(cpu_row=0.0001))
        pricey_cpu = Optimizer(catalog, CostModel(cpu_row=0.1))
        assert (
            cheap_cpu.optimize(query, set()).cost
            < pricey_cpu.optimize(query, set()).cost
        )
