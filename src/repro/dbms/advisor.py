"""Index advisor: candidate generation and greedy design selection.

Stands in for the commercial "database designer" of the paper's pipeline
(Figure 3): given a workload it proposes candidate indexes from query
shapes, then greedily selects a design under a storage budget by benefit
density (what-if benefit divided by index size), using the classic
lazy-greedy refinement to avoid re-evaluating every candidate each round.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.dbms.catalog import Catalog
from repro.dbms.query import PredicateOp, Query, Workload
from repro.dbms.schema import IndexSpec
from repro.dbms.whatif import WhatIfOptimizer
from repro.errors import CatalogError

__all__ = ["AdvisorConfig", "IndexAdvisor", "generate_candidates"]


@dataclass
class AdvisorConfig:
    """Knobs for candidate generation and selection."""

    max_key_columns: int = 3
    max_include_columns: int = 6
    storage_budget_bytes: Optional[int] = None
    max_indexes: Optional[int] = None
    min_benefit_fraction: float = 0.0005


def _candidate_name(spec_table: str, keys: Sequence[str], tag: str) -> str:
    return f"ix_{spec_table}_{'_'.join(keys)}_{tag}"


def generate_candidates(
    catalog: Catalog,
    workload: Workload,
    config: Optional[AdvisorConfig] = None,
) -> List[IndexSpec]:
    """Propose candidate indexes from the workload's query shapes.

    Per query and referenced table, up to three candidates:

    * a *key-only* index on the sargable columns (equality columns by
      ascending selectivity, then one range column),
    * a *covering* variant that adds the query's remaining columns as
      includes,
    * a *join-probe* index keyed on the join column (with the sargable
      columns appended), for index-nested-loop inners.

    Duplicates (same table, keys, includes) are merged.
    """
    config = config or AdvisorConfig()
    seen: Dict[Tuple[str, Tuple[str, ...], Tuple[str, ...]], IndexSpec] = {}
    names: Set[str] = set()

    def register(table: str, keys: Sequence[str], includes: Sequence[str], tag: str) -> None:
        keys = tuple(keys)[: config.max_key_columns]
        includes = tuple(
            column for column in includes if column not in keys
        )[: config.max_include_columns]
        if not keys:
            return
        signature = (table, keys, tuple(sorted(includes)))
        if signature in seen:
            return
        name = _candidate_name(table, keys, tag)
        suffix = 0
        while name in names:
            suffix += 1
            name = _candidate_name(table, keys, f"{tag}{suffix}")
        names.add(name)
        seen[signature] = IndexSpec(
            name=name,
            table=table,
            key_columns=keys,
            include_columns=tuple(sorted(includes)),
        )

    for query in workload:
        for table_name in query.tables:
            table = catalog.table(table_name)
            predicates = query.predicates_on(table_name)
            eq_columns = [
                p.column
                for p in sorted(
                    (p for p in predicates if p.op is not PredicateOp.RANGE),
                    key=lambda p: (
                        1.0 / max(1, table.column(p.column).distinct),
                        p.column,
                    ),
                )
            ]
            range_columns = [
                p.column for p in predicates if p.op is PredicateOp.RANGE
            ]
            needed = query.columns_needed(table_name)
            keys = list(dict.fromkeys(eq_columns + range_columns[:1]))
            if keys:
                register(table_name, keys, (), "key")
                includes = [c for c in needed if c not in keys]
                if includes:
                    register(table_name, keys, includes, "cov")
            # Single-column candidates for each sargable predicate.
            for column in eq_columns + range_columns:
                register(table_name, [column], (), "col")
            for join in query.joins_of(table_name):
                join_column = join.column_of(table_name)
                join_keys = list(dict.fromkeys([join_column] + eq_columns))
                register(
                    table_name,
                    join_keys,
                    [c for c in needed if c not in join_keys],
                    "join",
                )
                register(table_name, [join_column], (), "col")
            # Group-by-ordered covering candidate (sort avoidance).
            group_columns = [
                column for owner, column in query.group_by if owner == table_name
            ]
            if group_columns:
                register(
                    table_name,
                    group_columns,
                    [c for c in needed if c not in group_columns],
                    "gb",
                )
    return sorted(seen.values(), key=lambda spec: spec.name)


class IndexAdvisor:
    """Greedy what-if design selection (the paper's "DB design tool")."""

    def __init__(
        self,
        catalog: Catalog,
        workload: Workload,
        config: Optional[AdvisorConfig] = None,
    ) -> None:
        self.catalog = catalog
        self.workload = workload
        self.config = config or AdvisorConfig()
        self.whatif = WhatIfOptimizer(catalog)
        self._queries_on: Dict[str, List[Query]] = {}
        for query in workload:
            for table in query.tables:
                self._queries_on.setdefault(table, []).append(query)

    # ------------------------------------------------------------------
    def register_candidates(
        self, candidates: Optional[Sequence[IndexSpec]] = None
    ) -> List[IndexSpec]:
        """Add candidates to the catalog as hypothetical indexes."""
        if candidates is None:
            candidates = generate_candidates(
                self.catalog, self.workload, self.config
            )
        registered: List[IndexSpec] = []
        for spec in candidates:
            if not self.catalog.has_index(spec.name):
                self.catalog.add_index(spec, hypothetical=True)
            registered.append(spec)
        return registered

    def _workload_cost(self, selected: Sequence[str]) -> float:
        total = 0.0
        for query in self.workload:
            total += self.whatif.plan(query, selected).cost * query.weight
        return total

    def _marginal_benefit(
        self, selected: List[str], candidate: str
    ) -> float:
        related_queries = self._queries_touching(candidate)
        before = sum(
            self.whatif.plan(q, selected).cost * q.weight
            for q in related_queries
        )
        after = sum(
            self.whatif.plan(q, selected + [candidate]).cost * q.weight
            for q in related_queries
        )
        return before - after

    def _queries_touching(self, candidate: str) -> List[Query]:
        return self._queries_on.get(self.catalog.index(candidate).table, [])

    def select(
        self, candidates: Optional[Sequence[IndexSpec]] = None
    ) -> List[IndexSpec]:
        """Greedily pick a design by benefit density under the budget.

        Uses lazy greedy: candidates sit in a max-heap keyed by their
        last-known density; the top is re-evaluated against the current
        selection and accepted only if it still beats the runner-up.
        """
        specs = self.register_candidates(candidates)
        base_total = self._workload_cost([])
        min_benefit = base_total * self.config.min_benefit_fraction
        sizes = {
            spec.name: spec.size_bytes(self.catalog.table(spec.table))
            for spec in specs
        }
        selected: List[str] = []
        used_bytes = 0
        heap: List[Tuple[float, str]] = []
        for spec in specs:
            benefit = self._marginal_benefit(selected, spec.name)
            if benefit > min_benefit:
                heapq.heappush(
                    heap, (-benefit / max(1, sizes[spec.name]), spec.name)
                )
        while heap:
            if (
                self.config.max_indexes is not None
                and len(selected) >= self.config.max_indexes
            ):
                break
            _, name = heapq.heappop(heap)
            if (
                self.config.storage_budget_bytes is not None
                and used_bytes + sizes[name]
                > self.config.storage_budget_bytes
            ):
                continue
            # Lazy greedy: re-evaluate the popped candidate against the
            # current selection; accept only if it still beats the
            # runner-up's (stale, hence optimistic) density.
            benefit = self._marginal_benefit(selected, name)
            if benefit <= min_benefit:
                continue
            density = benefit / max(1, sizes[name])
            if heap and density < -heap[0][0] - 1e-15:
                heapq.heappush(heap, (-density, name))
                continue
            selected.append(name)
            used_bytes += sizes[name]
        return [self.catalog.index(name) for name in selected]
