"""Cost-based query optimizer with configuration-relative costing.

The optimizer estimates the cost of a query *given a configuration* —
an explicit set of index names it may use — which is exactly the what-if
interface (Chaudhuri & Narasayya) the paper's extraction pipeline calls.
It models:

* access paths: heap scan, index seek (eq-prefix plus one range key),
  covering index-only scan, with residual-filter CPU,
* left-deep join ordering (greedy from every start table), with hash
  join and index-nested-loop join methods,
* sort avoidance for group-by when the driving access path already
  delivers the grouping order.

Costs are abstract seconds: sequential page reads cost 1 unit, random
page reads 4, per-row CPU 0.002.  Only ratios matter for the ordering
problem; these constants produce multi-index plans and competing plans
with the same qualitative structure the paper reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.dbms.catalog import Catalog
from repro.dbms.query import JoinEdge, Predicate, PredicateOp, Query
from repro.dbms.schema import IndexSpec, Table
from repro.dbms.stats import (
    combined_selectivity,
    join_cardinality,
    predicate_selectivity,
)
from repro.errors import QueryError

__all__ = ["CostModel", "AccessPath", "QueryPlan", "Optimizer"]


@dataclass(frozen=True)
class CostModel:
    """Tunable cost constants (defaults follow common optimizer lore)."""

    seq_page: float = 1.0
    random_page: float = 4.0
    cpu_row: float = 0.002
    cpu_sort_row: float = 0.004
    index_seek: float = 0.05


@dataclass(frozen=True)
class AccessPath:
    """A costed way to read one table's qualifying rows."""

    table: str
    index_name: Optional[str]
    cost: float
    out_rows: float
    index_only: bool
    sorted_by: Tuple[str, ...]

    @property
    def is_index(self) -> bool:
        """True for index paths, False for heap scans."""
        return self.index_name is not None


@dataclass(frozen=True)
class QueryPlan:
    """A fully costed query plan."""

    query: str
    cost: float
    used_indexes: FrozenSet[str]
    join_order: Tuple[str, ...]
    description: str


class Optimizer:
    """Configuration-relative cost-based optimizer.

    ``best_access_path`` is memoized on the part of the configuration
    that indexes the probed table, because a join-order search asks for
    the same table's path under many configurations that differ only
    elsewhere.  The memo empties itself whenever the catalog changes.
    """

    def __init__(
        self, catalog: Catalog, cost_model: Optional[CostModel] = None
    ) -> None:
        self.catalog = catalog
        self.cost = cost_model or CostModel()
        self._paths: Dict[
            Tuple[Query, str, Optional[str], FrozenSet[str]], AccessPath
        ] = {}
        self._paths_version = catalog.version

    # ------------------------------------------------------------------
    # Access-path selection
    # ------------------------------------------------------------------
    def access_paths(
        self,
        query: Query,
        table_name: str,
        configuration: Set[str],
        join_column: Optional[str] = None,
    ) -> List[AccessPath]:
        """All costed access paths for one table under a configuration.

        ``join_column`` adds an equality probe on that column (the inner
        side of an index-nested-loop join).
        """
        table = self.catalog.table(table_name)
        predicates = query.predicates_on(table_name)
        needed = query.columns_needed(table_name)
        paths = [self._heap_scan(table, predicates)]
        for spec in self.catalog.indexes_on(table_name):
            if spec.name not in configuration:
                continue
            path = self._index_path(
                table, spec, predicates, needed, join_column
            )
            if path is not None:
                paths.append(path)
        return paths

    def best_access_path(
        self,
        query: Query,
        table_name: str,
        configuration: Set[str],
        join_column: Optional[str] = None,
    ) -> AccessPath:
        """Cheapest access path for one table."""
        if self._paths_version != self.catalog.version:
            self._paths.clear()
            self._paths_version = self.catalog.version
        relevant = self.catalog.relevant(configuration, (table_name,))
        key = (query, table_name, join_column, relevant)
        best = self._paths.get(key)
        if best is None:
            paths = self.access_paths(query, table_name, relevant, join_column)
            best = min(paths, key=lambda p: (p.cost, p.index_name or ""))
            self._paths[key] = best
        return best

    def _heap_scan(
        self, table: Table, predicates: Sequence[Predicate]
    ) -> AccessPath:
        selectivity = combined_selectivity(predicates, table)
        cost = (
            table.pages * self.cost.seq_page
            + table.row_count * self.cost.cpu_row
        )
        return AccessPath(
            table=table.name,
            index_name=None,
            cost=cost,
            out_rows=max(1.0, table.row_count * selectivity),
            index_only=False,
            sorted_by=(),
        )

    def _index_path(
        self,
        table: Table,
        spec: IndexSpec,
        predicates: Sequence[Predicate],
        needed: Sequence[str],
        join_column: Optional[str],
    ) -> Optional[AccessPath]:
        eq_columns: Dict[str, Predicate] = {}
        range_columns: Dict[str, Predicate] = {}
        for predicate in predicates:
            if predicate.op in (PredicateOp.EQ, PredicateOp.IN):
                eq_columns.setdefault(predicate.column, predicate)
            else:
                range_columns.setdefault(predicate.column, predicate)
        join_selectivity = 1.0
        if join_column is not None:
            join_selectivity = 1.0 / max(
                1, table.column(join_column).distinct
            )
        # Match the key prefix: equality (or join-probe) columns first,
        # then at most one range column.
        key_selectivity = 1.0
        matched = 0
        used_join_probe = False
        for key_column in spec.key_columns:
            if key_column in eq_columns:
                key_selectivity *= predicate_selectivity(
                    eq_columns[key_column], table
                )
                matched += 1
                continue
            if join_column is not None and key_column == join_column:
                key_selectivity *= join_selectivity
                matched += 1
                used_join_probe = True
                continue
            if key_column in range_columns:
                key_selectivity *= predicate_selectivity(
                    range_columns[key_column], table
                )
                matched += 1
            break  # range (or unmatched) key ends the sargable prefix
        if matched == 0:
            covering = spec.covers(needed)
            if not covering:
                return None
            # Covering index scan: cheaper than the heap when narrower.
            selectivity = combined_selectivity(predicates, table)
            cost = (
                spec.leaf_pages(table) * self.cost.seq_page
                + table.row_count * self.cost.cpu_row
            )
            return AccessPath(
                table=table.name,
                index_name=spec.name,
                cost=cost,
                out_rows=max(1.0, table.row_count * selectivity),
                index_only=True,
                sorted_by=spec.key_columns,
            )
        matched_rows = max(1.0, table.row_count * key_selectivity)
        residual = [
            p
            for p in predicates
            if p.column not in spec.key_columns[:matched]
        ]
        residual_selectivity = combined_selectivity(residual, table)
        out_rows = max(1.0, matched_rows * residual_selectivity)
        needed_all = set(needed)
        if join_column is not None:
            needed_all.add(join_column)
        covering = spec.covers(sorted(needed_all))
        cost = (
            self.cost.index_seek
            + spec.leaf_pages(table) * key_selectivity * self.cost.seq_page
            + matched_rows * self.cost.cpu_row
        )
        if not covering:
            fetch = min(
                matched_rows * self.cost.random_page,
                table.pages * self.cost.seq_page,
            )
            cost += fetch
        # Rows arrive ordered by the key columns after the eq prefix.
        sorted_by = spec.key_columns
        if used_join_probe:
            out_rows = max(
                1.0, out_rows / max(matched_rows, 1.0) * matched_rows
            )
        return AccessPath(
            table=table.name,
            index_name=spec.name,
            cost=cost,
            out_rows=out_rows,
            index_only=covering,
            sorted_by=sorted_by,
        )

    # ------------------------------------------------------------------
    # Plan costing
    # ------------------------------------------------------------------
    def optimize(self, query: Query, configuration: Set[str]) -> QueryPlan:
        """Cheapest left-deep plan for ``query`` under ``configuration``.

        Greedy join ordering is attempted from every start table and the
        cheapest complete plan wins, which keeps the optimizer
        deterministic and cheap while still letting different
        configurations flip the join order (the source of the paper's
        multi-index query interactions).
        """
        best: Optional[QueryPlan] = None
        for start in query.tables:
            plan = self._greedy_plan(query, configuration, start)
            if best is None or plan.cost < best.cost - 1e-12:
                best = plan
        if best is None:
            raise QueryError(f"query {query.name!r}: no plan found")
        return best

    def _greedy_plan(
        self, query: Query, configuration: Set[str], start: str
    ) -> QueryPlan:
        used: Set[str] = set()
        start_path = self.best_access_path(query, start, configuration)
        if start_path.index_name is not None:
            used.add(start_path.index_name)
        total_cost = start_path.cost
        current_rows = start_path.out_rows
        joined: List[str] = [start]
        joined_set = {start}
        remaining = [t for t in query.tables if t != start]
        driving_sorted_by = start_path.sorted_by
        while remaining:
            best_choice: Optional[Tuple[float, float, str, Optional[str]]] = None
            for candidate in remaining:
                edge = self._edge_between(query, joined_set, candidate)
                if edge is None and len(remaining) > 1:
                    continue  # defer cartesian products while joins exist
                step = self._join_step(
                    query, configuration, candidate, edge, current_rows
                )
                if step is None:
                    continue
                step_cost, out_rows, used_index = step
                key = (step_cost, out_rows, candidate, used_index)
                if best_choice is None or key < best_choice:
                    best_choice = key
            if best_choice is None:
                # Only cartesian products remain: take the cheapest scan.
                candidate = remaining[0]
                path = self.best_access_path(query, candidate, configuration)
                best_choice = (
                    path.cost + current_rows * path.out_rows * self.cost.cpu_row,
                    current_rows * path.out_rows,
                    candidate,
                    path.index_name,
                )
            step_cost, out_rows, candidate, used_index = best_choice
            total_cost += step_cost
            current_rows = out_rows
            joined.append(candidate)
            joined_set.add(candidate)
            remaining.remove(candidate)
            if used_index is not None:
                used.add(used_index)
        total_cost += self._sort_cost(query, current_rows, driving_sorted_by)
        return QueryPlan(
            query=query.name,
            cost=total_cost,
            used_indexes=frozenset(used),
            join_order=tuple(joined),
            description=" -> ".join(joined),
        )

    def _edge_between(
        self, query: Query, joined: Set[str], candidate: str
    ) -> Optional[JoinEdge]:
        for edge in query.joins:
            if edge.involves(candidate) and edge.other(candidate) in joined:
                return edge
        return None

    def _join_step(
        self,
        query: Query,
        configuration: Set[str],
        candidate: str,
        edge: Optional[JoinEdge],
        outer_rows: float,
    ) -> Optional[Tuple[float, float, Optional[str]]]:
        """Cost of joining ``candidate`` next; returns (cost, rows, index)."""
        if edge is None:
            return None
        table = self.catalog.table(candidate)
        join_column = edge.column_of(candidate)
        # Hash join: scan the inner once, probe per outer row.
        inner_scan = self.best_access_path(query, candidate, configuration)
        hash_cost = (
            inner_scan.cost
            + inner_scan.out_rows * self.cost.cpu_row
            + outer_rows * 2.0 * self.cost.cpu_row
        )
        out_rows = join_cardinality(
            outer_rows,
            inner_scan.out_rows,
            table.column(join_column).distinct,
            table.column(join_column).distinct,
        )
        best_cost = hash_cost
        best_index = inner_scan.index_name
        # Index nested loop: one probe per outer row.
        probe = self.best_access_path(
            query, candidate, configuration, join_column=join_column
        )
        if probe.index_name is not None:
            inl_cost = outer_rows * probe.cost
            if inl_cost < best_cost:
                best_cost = inl_cost
                best_index = probe.index_name
        return best_cost, out_rows, best_index

    def _sort_cost(
        self,
        query: Query,
        rows: float,
        driving_sorted_by: Tuple[str, ...],
    ) -> float:
        if not query.group_by:
            return 0.0
        group_tables = {table for table, _ in query.group_by}
        if len(group_tables) == 1:
            group_columns = [column for _, column in query.group_by]
            prefix = driving_sorted_by[: len(group_columns)]
            if list(prefix) == group_columns:
                return 0.0  # the driving index already delivers the order
        if rows <= 1:
            return 0.0
        return rows * math.log2(rows + 1) * self.cost.cpu_sort_row
