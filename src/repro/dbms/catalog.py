"""System catalog: tables plus real and hypothetical indexes.

The catalog distinguishes *materialized* indexes (part of the physical
design) from *hypothetical* ones (registered for what-if analysis, per
the AutoAdmin what-if interface the paper builds on).  The optimizer is
always costed against an explicit *configuration* — a set of index names
it may use — so what-if evaluation never mutates the catalog.  The
optimizer's memos drop their entries whenever :attr:`Catalog.version`
moves.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

from repro.dbms.schema import IndexSpec, Table
from repro.errors import CatalogError

__all__ = ["Catalog"]


class Catalog:
    """A named collection of tables and indexes.

    Attributes:
        version: Bumped by every table or index change, so memos of
            plans costed against this catalog know when to drop them.
    """

    def __init__(self) -> None:
        self._tables: Dict[str, Table] = {}
        self._indexes: Dict[str, IndexSpec] = {}
        self._by_table: Dict[str, Dict[str, IndexSpec]] = {}
        self._hypothetical: Set[str] = set()
        # The non-hypothetical names in registration order, kept as the
        # catalog changes so a what-if configuration need not rescan
        # every registered candidate.
        self._materialized: Dict[str, None] = {}
        self.version = 0

    # ------------------------------------------------------------------
    # Tables
    # ------------------------------------------------------------------
    def add_table(self, table: Table) -> None:
        """Register a table.

        Raises:
            CatalogError: On duplicate table names.
        """
        if table.name in self._tables:
            raise CatalogError(f"table {table.name!r} already exists")
        self._tables[table.name] = table
        self._by_table[table.name] = {}
        self.version += 1

    def table(self, name: str) -> Table:
        """Look up a table by name."""
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    @property
    def tables(self) -> List[Table]:
        """All registered tables."""
        return list(self._tables.values())

    # ------------------------------------------------------------------
    # Indexes
    # ------------------------------------------------------------------
    def add_index(self, spec: IndexSpec, hypothetical: bool = False) -> None:
        """Register an index (optionally as what-if hypothetical).

        Raises:
            CatalogError: On duplicate names, unknown tables/columns, or
                a second clustered index on the same table.
        """
        if spec.name in self._indexes:
            raise CatalogError(f"index {spec.name!r} already exists")
        table = self.table(spec.table)
        for column_name in spec.all_columns:
            if not table.has_column(column_name):
                raise CatalogError(
                    f"index {spec.name!r}: table {spec.table!r} has no "
                    f"column {column_name!r}"
                )
        if spec.clustered:
            for other in self.indexes_on(spec.table):
                if other.clustered and other.name != spec.name:
                    raise CatalogError(
                        f"table {spec.table!r} already has clustered index "
                        f"{other.name!r}"
                    )
        self._indexes[spec.name] = spec
        self._by_table[spec.table][spec.name] = spec
        if hypothetical:
            self._hypothetical.add(spec.name)
        else:
            self._materialized[spec.name] = None
        self.version += 1

    def drop_index(self, name: str) -> None:
        """Remove an index from the catalog."""
        if name not in self._indexes:
            raise CatalogError(f"unknown index {name!r}")
        spec = self._indexes.pop(name)
        del self._by_table[spec.table][name]
        self._hypothetical.discard(name)
        self._materialized.pop(name, None)
        self.version += 1

    def index(self, name: str) -> IndexSpec:
        """Look up an index by name."""
        try:
            return self._indexes[name]
        except KeyError:
            raise CatalogError(f"unknown index {name!r}") from None

    def has_index(self, name: str) -> bool:
        """True when the catalog defines ``name``."""
        return name in self._indexes

    def is_hypothetical(self, name: str) -> bool:
        """True when ``name`` was registered as a what-if index."""
        return name in self._hypothetical

    def indexes_on(self, table_name: str) -> List[IndexSpec]:
        """All indexes (real and hypothetical) on a table."""
        return list(self._by_table.get(table_name, {}).values())

    @property
    def indexes(self) -> List[IndexSpec]:
        """All registered indexes."""
        return list(self._indexes.values())

    @property
    def materialized_indexes(self) -> List[str]:
        """Names of non-hypothetical indexes (the current design)."""
        return list(self._materialized)

    def configuration(
        self, extra: Iterable[str] = (), include_materialized: bool = True
    ) -> Set[str]:
        """An index-name set for what-if costing.

        Args:
            extra: Hypothetical indexes to enable.
            include_materialized: Include the real physical design.
        """
        config = set(extra)
        unknown = config.difference(self._indexes)
        if unknown:
            raise CatalogError(f"unknown index {min(unknown)!r}")
        if include_materialized:
            config.update(self._materialized)
        return config
