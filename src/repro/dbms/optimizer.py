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
from typing import (
    Dict,
    FrozenSet,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.dbms.catalog import Catalog
from repro.dbms.query import Predicate, PredicateOp, Query
from repro.dbms.schema import IndexSpec, Table
from repro.dbms.stats import combined_selectivity, predicate_selectivity
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


def _usable(
    spec: IndexSpec,
    predicates: Sequence[Predicate],
    needed: Sequence[str],
    join_column: Optional[str],
) -> bool:
    """The usability rule: can ``spec`` give a table an access path?

    Only when its first key column is filtered by one of ``predicates``
    or is the probed ``join_column`` (an index seek), or when it stores
    every ``needed`` column (an index-only scan).
    """
    first = spec.key_columns[0]
    return (
        first == join_column
        or any(predicate.column == first for predicate in predicates)
        or spec.covers(needed)
    )


#: The constants of joining a table over one of its join edges: the
#: table on the edge's other side, the hash join's inner cost (scan plus
#: per-row build CPU), the inner's rows, the join-cardinality
#: denominator, the scan's index, and the index-nested-loop probe's cost
#: and index (both ``None`` when no index serves the probe).
_Step = Tuple[
    str, float, float, int, Optional[str], Optional[float], Optional[str]
]


class _TableInputs(NamedTuple):
    """What costing one table's access paths for one query reads that
    no configuration changes: the table, the query's filters on it, the
    columns an index must store to cover it, its heap scan and its heap
    page count."""

    table: Table
    predicates: List[Predicate]
    needed: List[str]
    heap: AccessPath
    pages: int


class Optimizer:
    """Configuration-relative cost-based optimizer.

    An index outside :meth:`usable` gets no access path, so
    ``best_access_path`` memoizes each path on the part of the
    configuration usable for that table and join column: a join-order
    search asks for the same table's path under many configurations
    that differ only in indexes the path cannot use.  ``optimize`` looks
    each path up once and then searches join orders on plain numbers.
    The memos empty themselves whenever the catalog changes.
    """

    def __init__(
        self, catalog: Catalog, cost_model: Optional[CostModel] = None
    ) -> None:
        self.catalog = catalog
        self.cost = cost_model or CostModel()
        self._paths: Dict[
            Tuple[Query, str, Optional[str], FrozenSet[str]], AccessPath
        ] = {}
        self._usable: Dict[
            Tuple[Query, Optional[str], Optional[str]], FrozenSet[str]
        ] = {}
        self._joins: Dict[Query, Dict[str, List[Tuple[str, str, int]]]] = {}
        self._inputs: Dict[Tuple[Query, str], _TableInputs] = {}
        self._version = catalog.version

    def _sync(self) -> None:
        """Empty the memos if the catalog changed since they were filled."""
        if self._version != self.catalog.version:
            self._paths.clear()
            self._usable.clear()
            self._joins.clear()
            self._inputs.clear()
            self._version = self.catalog.version

    def _table_inputs(self, query: Query, table_name: str) -> _TableInputs:
        """The configuration-free inputs of ``table_name``'s access
        paths for ``query``, computed once per catalog version."""
        self._sync()
        key = (query, table_name)
        inputs = self._inputs.get(key)
        if inputs is None:
            table = self.catalog.table(table_name)
            predicates = query.predicates_on(table_name)
            inputs = _TableInputs(
                table,
                predicates,
                query.columns_needed(table_name),
                self._heap_scan(table, predicates),
                table.pages,
            )
            self._inputs[key] = inputs
        return inputs

    def usable(
        self,
        query: Query,
        table_name: Optional[str] = None,
        join_column: Optional[str] = None,
    ) -> FrozenSet[str]:
        """Names of the catalog's indexes that ``query`` can use.

        With ``table_name``, the indexes on that table that pass
        :func:`_usable` when it is scanned, or probed on ``join_column``.
        Without, the indexes usable on any of the query's tables under
        any of its join columns: only these can change its plan.
        """
        self._sync()
        key = (query, table_name, join_column)
        usable = self._usable.get(key)
        if usable is None:
            if table_name is None:
                usable = frozenset().union(
                    *(
                        self.usable(query, table, column)
                        for table, edges in self._join_edges(query).items()
                        for column in [None] + [edge[1] for edge in edges]
                    )
                )
            else:
                inputs = self._table_inputs(query, table_name)
                usable = frozenset(
                    spec.name
                    for spec in self.catalog.indexes_on(table_name)
                    if _usable(
                        spec, inputs.predicates, inputs.needed, join_column
                    )
                )
            self._usable[key] = usable
        return usable

    def _join_edges(
        self, query: Query
    ) -> Dict[str, List[Tuple[str, str, int]]]:
        """Each table's join edges in ``query.joins`` order, as (table
        on the other side, join column, join-cardinality denominator)."""
        edges = self._joins.get(query)
        if edges is None:
            edges = {table: [] for table in query.tables}
            for edge in query.joins:
                for table, other in (
                    (edge.left, edge.right),
                    (edge.right, edge.left),
                ):
                    column = edge.column_of(table)
                    column_stats = self.catalog.table(table).column(column)
                    edges[table].append(
                        (other, column, max(column_stats.distinct, 1))
                    )
            self._joins[query] = edges
        return edges

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
        inputs = self._table_inputs(query, table_name)
        paths = [inputs.heap]
        for spec in self.catalog.indexes_on(table_name):
            if spec.name not in configuration:
                continue
            path = self._index_path(inputs, spec, join_column)
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
        usable = self.usable(query, table_name, join_column).intersection(
            configuration
        )
        key = (query, table_name, join_column, usable)
        best = self._paths.get(key)
        if best is None:
            paths = self.access_paths(query, table_name, usable, join_column)
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
        inputs: _TableInputs,
        spec: IndexSpec,
        join_column: Optional[str],
    ) -> Optional[AccessPath]:
        table = inputs.table
        predicates = inputs.predicates
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
            # No key column matched, so the index serves only as a
            # covering scan (cheaper than the heap when narrower), and
            # only where the usability rule admits it.
            if not _usable(spec, predicates, inputs.needed, join_column):
                return None
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
        needed_all = set(inputs.needed)
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
                inputs.pages * self.cost.seq_page,
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
        multi-index query interactions).  A step joins the remaining
        table whose hash or index-nested-loop join is cheapest, each
        table joining over its first edge (in ``query.joins`` order) to
        the tables joined so far; only when no remaining table has such
        an edge does the first of them join as a cartesian product.
        Every access path and every edge's step constants are looked up
        once per call, before the search.
        """
        cpu_row = self.cost.cpu_row
        scans = {
            table: self.best_access_path(query, table, configuration)
            for table in query.tables
        }
        steps: Dict[str, List[_Step]] = {}
        for table, edges in self._join_edges(query).items():
            scan = scans[table]
            hash_inner = scan.cost + scan.out_rows * cpu_row
            steps[table] = []
            probes: Dict[str, AccessPath] = {}
            for other, column, denominator in edges:
                if column not in probes:
                    probes[column] = self.best_access_path(
                        query, table, configuration, join_column=column
                    )
                probe = probes[column]
                steps[table].append((
                    other,
                    hash_inner,
                    scan.out_rows,
                    denominator,
                    scan.index_name,
                    None if probe.index_name is None else probe.cost,
                    probe.index_name,
                ))
        best: Optional[Tuple[float, Set[str], List[str]]] = None
        for start in query.tables:
            total_cost = scans[start].cost
            rows = scans[start].out_rows
            used = {scans[start].index_name} - {None}
            joined = [start]
            joined_set = {start}
            remaining = [table for table in query.tables if table != start]
            while remaining:
                choice = None  # (step cost, rows, table, index)
                for candidate in remaining:
                    for step in steps[candidate]:
                        if step[0] in joined_set:
                            break
                    else:
                        continue  # defer cartesian products while joins exist
                    (_, hash_inner, inner_rows, denominator, index,
                     probe_cost, probe_index) = step
                    # Hash join: scan the inner once, probe per outer row.
                    step_cost = hash_inner + rows * 2.0 * cpu_row
                    # Index nested loop: one probe per outer row.
                    if probe_cost is not None:
                        loop_cost = rows * probe_cost
                        if loop_cost < step_cost:
                            step_cost = loop_cost
                            index = probe_index
                    out_rows = max(1.0, rows * inner_rows / denominator)
                    key = (step_cost, out_rows, candidate, index)
                    if choice is None or key < choice:
                        choice = key
                if choice is None:
                    # Only cartesian products remain: take the first scan.
                    path = scans[remaining[0]]
                    choice = (
                        path.cost + rows * path.out_rows * cpu_row,
                        rows * path.out_rows,
                        remaining[0],
                        path.index_name,
                    )
                step_cost, rows, candidate, index = choice
                total_cost += step_cost
                joined.append(candidate)
                joined_set.add(candidate)
                remaining.remove(candidate)
                if index is not None:
                    used.add(index)
            total_cost += self._sort_cost(query, rows, scans[start].sorted_by)
            if best is None or total_cost < best[0] - 1e-12:
                best = (total_cost, used, joined)
        if best is None:
            raise QueryError(f"query {query.name!r}: no plan found")
        cost, used, joined = best
        return QueryPlan(
            query=query.name,
            cost=cost,
            used_indexes=frozenset(used),
            join_order=tuple(joined),
            description=" -> ".join(joined),
        )

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
