"""Unit tests for the what-if interface and the build-cost model."""

from __future__ import annotations

import pytest

from repro.dbms.build_cost import BuildCostModel
from repro.dbms.catalog import Catalog
from repro.dbms.query import JoinEdge, Predicate, PredicateOp, Query
from repro.dbms.schema import Column, IndexSpec, Table
from repro.dbms.whatif import WhatIfOptimizer


@pytest.fixture
def catalog() -> Catalog:
    cat = Catalog()
    cat.add_table(
        Table(
            "people",
            [
                Column("id", width=8, distinct=500_000),
                Column("city", width=16, distinct=1_000),
                Column("salary", width=8, distinct=20_000),
                Column("age", width=4, distinct=80),
                Column("name", width=40, distinct=400_000),
            ],
            row_count=500_000,
        )
    )
    return cat


def city_salary_query() -> Query:
    return Query(
        "avg_salary_by_city",
        tables=["people"],
        predicates=[Predicate("people", "city", PredicateOp.EQ)],
        select=[("people", "salary")],
    )


class TestWhatIf:
    def test_base_cost_uses_materialized_only(self, catalog):
        whatif = WhatIfOptimizer(catalog)
        base = whatif.base_cost(city_salary_query())
        catalog.add_index(
            IndexSpec("hx_city", "people", ("city",)), hypothetical=True
        )
        assert whatif.base_cost(city_salary_query()) == pytest.approx(base)

    def test_hypothetical_index_reduces_plan_cost(self, catalog):
        catalog.add_index(
            IndexSpec("hx_city", "people", ("city",)), hypothetical=True
        )
        whatif = WhatIfOptimizer(catalog)
        query = city_salary_query()
        base = whatif.base_cost(query)
        plan = whatif.plan(query, ["hx_city"])
        assert plan.cost < base
        assert "hx_city" in plan.used_indexes

    def test_plan_caching(self, catalog):
        whatif = WhatIfOptimizer(catalog)
        query = city_salary_query()
        first = whatif.plan(query)
        second = whatif.plan(query)
        assert first is second

    def test_atomic_configurations_competing_plans(self, catalog):
        # Non-covering seek and covering variants compete for the query.
        catalog.add_index(
            IndexSpec("hx_city", "people", ("city",)), hypothetical=True
        )
        catalog.add_index(
            IndexSpec(
                "hx_city_cov",
                "people",
                ("city",),
                include_columns=("salary",),
            ),
            hypothetical=True,
        )
        whatif = WhatIfOptimizer(catalog)
        configs = whatif.atomic_configurations(
            city_salary_query(), ["hx_city", "hx_city_cov"]
        )
        index_sets = {tuple(sorted(c.indexes)) for c in configs}
        assert ("hx_city_cov",) in index_sets
        assert ("hx_city",) in index_sets  # surfaced by the removal loop
        best = configs[0]
        assert best.indexes == frozenset({"hx_city_cov"})

    def test_atomic_configurations_sorted_by_speedup(self, catalog):
        catalog.add_index(
            IndexSpec("hx_city", "people", ("city",)), hypothetical=True
        )
        catalog.add_index(
            IndexSpec(
                "hx_city_cov",
                "people",
                ("city",),
                include_columns=("salary",),
            ),
            hypothetical=True,
        )
        whatif = WhatIfOptimizer(catalog)
        configs = whatif.atomic_configurations(
            city_salary_query(), ["hx_city", "hx_city_cov"]
        )
        speedups = [c.speedup for c in configs]
        assert speedups == sorted(speedups, reverse=True)

    def test_no_useful_index_yields_empty(self, catalog):
        catalog.add_index(
            IndexSpec("hx_name", "people", ("name",)), hypothetical=True
        )
        whatif = WhatIfOptimizer(catalog)
        configs = whatif.atomic_configurations(
            city_salary_query(), ["hx_name"]
        )
        assert configs == []


class TestBuildCostModel:
    def test_base_cost_positive_and_monotone_in_width(self, catalog):
        model = BuildCostModel(catalog)
        narrow = IndexSpec("ix_a", "people", ("city",))
        wide = IndexSpec(
            "ix_b", "people", ("city",), include_columns=("name", "salary")
        )
        assert 0 < model.base_cost(narrow) < model.base_cost(wide)

    def test_covering_helper_cheapens_build(self, catalog):
        # The paper's example: i1(City) built from i2(City, Salary).
        model = BuildCostModel(catalog)
        narrow = IndexSpec("i1", "people", ("city",))
        wide = IndexSpec(
            "i2", "people", ("city", "salary")
        )
        assert model.cost_with_helper(narrow, wide) < model.base_cost(narrow)

    def test_prefix_helper_skips_sort_entirely(self, catalog):
        model = BuildCostModel(catalog)
        narrow = IndexSpec("i1", "people", ("city",))
        wide = IndexSpec("i2", "people", ("city", "salary"))
        unrelated = IndexSpec(
            "i3", "people", ("salary",), include_columns=("city",)
        )
        # Prefix match (no sort) must beat covering-only (partial sort).
        assert model.cost_with_helper(narrow, wide) < model.cost_with_helper(
            narrow, unrelated
        )

    def test_helper_on_other_table_ignored(self, catalog):
        catalog.add_table(
            Table("other", [Column("x", distinct=10)], row_count=100)
        )
        model = BuildCostModel(catalog)
        spec = IndexSpec("ix", "people", ("city",))
        helper = IndexSpec("hx", "other", ("x",))
        assert model.cost_with_helper(spec, helper) == pytest.approx(
            model.base_cost(spec)
        )

    def test_saving_nonnegative_and_bounded(self, catalog):
        model = BuildCostModel(catalog)
        narrow = IndexSpec("i1", "people", ("city",))
        wide = IndexSpec("i2", "people", ("city", "salary"))
        saving = model.saving(narrow, wide)
        assert 0 <= saving < model.base_cost(narrow)

    def test_negligible_saving_dropped(self, catalog):
        model = BuildCostModel(catalog)
        a = IndexSpec("ia", "people", ("salary",))
        b = IndexSpec("ib", "people", ("age",))
        # Unrelated single-column indexes: no covering, no sort help.
        assert model.saving(a, b) == 0.0

    def test_large_saving_range_matches_paper(self, catalog):
        # The paper reports up to ~80% single-index build savings; a
        # narrow index built from a covering prefix helper on a wide
        # table should fall in that range.
        model = BuildCostModel(catalog)
        narrow = IndexSpec("i1", "people", ("city",))
        wide = IndexSpec("i2", "people", ("city", "salary"))
        fraction = model.saving(narrow, wide) / model.base_cost(narrow)
        assert 0.3 <= fraction <= 0.95

    def test_cost_with_helpers_takes_best(self, catalog):
        model = BuildCostModel(catalog)
        target = IndexSpec("i1", "people", ("city",))
        good = IndexSpec("i2", "people", ("city", "salary"))
        useless = IndexSpec("i3", "people", ("age",))
        best = model.cost_with_helpers(target, [useless, good])
        assert best == pytest.approx(model.cost_with_helper(target, good))
