"""Unit tests for the catalog and statistics estimators."""

from __future__ import annotations

import pytest

from repro.dbms.catalog import Catalog
from repro.dbms.query import Predicate, PredicateOp
from repro.dbms.schema import Column, IndexSpec, Table
from repro.dbms.stats import (
    DEFAULT_RANGE_SELECTIVITY,
    combined_selectivity,
    filtered_rows,
    join_cardinality,
    predicate_selectivity,
)
from repro.errors import CatalogError


@pytest.fixture
def catalog() -> Catalog:
    cat = Catalog()
    cat.add_table(
        Table(
            "people",
            [
                Column("id", distinct=10_000),
                Column("city", distinct=100),
                Column("salary", distinct=1_000),
            ],
            row_count=10_000,
        )
    )
    return cat


class TestCatalogTables:
    def test_add_and_lookup(self, catalog):
        assert catalog.table("people").row_count == 10_000
        assert len(catalog.tables) == 1

    def test_unknown_table_raises(self, catalog):
        with pytest.raises(CatalogError):
            catalog.table("ghost")

    def test_duplicate_table_rejected(self, catalog):
        with pytest.raises(CatalogError):
            catalog.add_table(Table("people", [Column("x")], row_count=1))


class TestCatalogIndexes:
    def test_add_real_and_hypothetical(self, catalog):
        catalog.add_index(IndexSpec("ix_city", "people", ("city",)))
        catalog.add_index(
            IndexSpec("ix_sal", "people", ("salary",)), hypothetical=True
        )
        assert catalog.has_index("ix_city")
        assert not catalog.is_hypothetical("ix_city")
        assert catalog.is_hypothetical("ix_sal")
        assert catalog.materialized_indexes == ["ix_city"]

    def test_duplicate_index_rejected(self, catalog):
        catalog.add_index(IndexSpec("ix", "people", ("city",)))
        with pytest.raises(CatalogError, match="already exists"):
            catalog.add_index(IndexSpec("ix", "people", ("salary",)))

    def test_unknown_table_rejected(self, catalog):
        with pytest.raises(CatalogError):
            catalog.add_index(IndexSpec("ix", "ghost", ("x",)))

    def test_unknown_column_rejected(self, catalog):
        with pytest.raises(CatalogError, match="no column"):
            catalog.add_index(IndexSpec("ix", "people", ("bonus",)))

    def test_second_clustered_rejected(self, catalog):
        catalog.add_index(
            IndexSpec("cx1", "people", ("id",), clustered=True)
        )
        with pytest.raises(CatalogError, match="clustered"):
            catalog.add_index(
                IndexSpec("cx2", "people", ("city",), clustered=True)
            )

    def test_drop_index(self, catalog):
        catalog.add_index(
            IndexSpec("ix", "people", ("city",)), hypothetical=True
        )
        catalog.drop_index("ix")
        assert not catalog.has_index("ix")
        with pytest.raises(CatalogError):
            catalog.drop_index("ix")

    def test_indexes_on(self, catalog):
        catalog.add_index(IndexSpec("ix1", "people", ("city",)))
        catalog.add_index(IndexSpec("ix2", "people", ("salary",)))
        assert {s.name for s in catalog.indexes_on("people")} == {"ix1", "ix2"}
        assert catalog.indexes_on("ghost") == []

    def test_indexes_on_after_drop_and_re_add(self, catalog):
        catalog.add_index(IndexSpec("ix1", "people", ("city",)))
        catalog.add_index(IndexSpec("ix2", "people", ("salary",)))
        catalog.drop_index("ix1")
        assert [s.name for s in catalog.indexes_on("people")] == ["ix2"]
        replacement = IndexSpec("ix1", "people", ("id",))
        catalog.add_index(replacement)
        assert catalog.indexes_on("people") == [
            catalog.index("ix2"),
            replacement,
        ]

    def test_configuration(self, catalog):
        catalog.add_index(IndexSpec("real", "people", ("city",)))
        catalog.add_index(
            IndexSpec("hypo", "people", ("salary",)), hypothetical=True
        )
        assert catalog.configuration() == {"real"}
        assert catalog.configuration(extra=["hypo"]) == {"real", "hypo"}
        assert catalog.configuration(
            extra=["hypo"], include_materialized=False
        ) == {"hypo"}

    def test_materialized_names_follow_drops_and_re_adds(self, catalog):
        catalog.add_index(IndexSpec("a", "people", ("city",)))
        catalog.add_index(
            IndexSpec("b", "people", ("salary",)), hypothetical=True
        )
        catalog.add_index(IndexSpec("c", "people", ("id",)))
        assert catalog.materialized_indexes == ["a", "c"]
        catalog.drop_index("a")
        catalog.drop_index("b")
        catalog.add_index(IndexSpec("b", "people", ("salary",)))
        catalog.add_index(
            IndexSpec("a", "people", ("city",)), hypothetical=True
        )
        assert catalog.materialized_indexes == ["c", "b"]
        assert catalog.configuration() == {"b", "c"}


class TestSelectivity:
    def test_eq_uses_distinct(self, catalog):
        table = catalog.table("people")
        predicate = Predicate("people", "city", PredicateOp.EQ)
        assert predicate_selectivity(predicate, table) == pytest.approx(0.01)

    def test_explicit_selectivity_wins(self, catalog):
        table = catalog.table("people")
        predicate = Predicate(
            "people", "city", PredicateOp.EQ, selectivity=0.25
        )
        assert predicate_selectivity(predicate, table) == 0.25

    def test_range_default(self, catalog):
        table = catalog.table("people")
        predicate = Predicate("people", "salary", PredicateOp.RANGE)
        assert predicate_selectivity(predicate, table) == pytest.approx(
            DEFAULT_RANGE_SELECTIVITY
        )

    def test_in_scales_with_values(self, catalog):
        table = catalog.table("people")
        predicate = Predicate("people", "city", PredicateOp.IN, values=5)
        assert predicate_selectivity(predicate, table) == pytest.approx(0.05)

    def test_in_caps_at_one(self, catalog):
        table = catalog.table("people")
        predicate = Predicate("people", "city", PredicateOp.IN, values=500)
        assert predicate_selectivity(predicate, table) == 1.0

    def test_combined_multiplies(self, catalog):
        table = catalog.table("people")
        predicates = [
            Predicate("people", "city", PredicateOp.EQ),
            Predicate("people", "salary", PredicateOp.EQ),
        ]
        assert combined_selectivity(predicates, table) == pytest.approx(
            0.01 * 0.001
        )

    def test_combined_empty_is_one(self, catalog):
        assert combined_selectivity([], catalog.table("people")) == 1.0

    def test_filtered_rows(self, catalog):
        table = catalog.table("people")
        predicates = [Predicate("people", "city", PredicateOp.EQ)]
        assert filtered_rows(table, predicates) == pytest.approx(100.0)


class TestJoinCardinality:
    def test_standard_rule(self):
        assert join_cardinality(1000, 500, 100, 50) == pytest.approx(5000.0)

    def test_floor_of_one(self):
        assert join_cardinality(1, 1, 1000, 1000) == 1.0

    def test_zero_distinct_guard(self):
        assert join_cardinality(10, 10, 0, 0) == pytest.approx(100.0)
