"""What-if analysis: hypothetical-index costing and atomic configurations.

Implements the extraction protocol of Section 8: call the optimizer with
all hypothetical indexes enabled, record the *atomic configuration* (the
hypothetical indexes the best plan actually uses), remove them, and
re-optimize — each round surfaces the next-best (suboptimal) plan and
its competing interactions.  Drop-one probing of each atomic
configuration additionally surfaces partial-availability plans, which is
what gives extracted instances their dense query-interaction structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.dbms.catalog import Catalog
from repro.dbms.optimizer import Optimizer, QueryPlan
from repro.dbms.query import Query

__all__ = ["WhatIfOptimizer", "AtomicConfiguration"]


@dataclass(frozen=True)
class AtomicConfiguration:
    """A plan's hypothetical-index set and the speed-up it unlocks."""

    query: str
    indexes: FrozenSet[str]
    cost: float
    speedup: float


class WhatIfOptimizer:
    """Optimizer facade for hypothetical-index analysis.

    Plans are memoized per query on the part of the configuration the
    query can use (:meth:`Optimizer.usable`): the advisor and the
    removal loop re-plan a query under many configurations that differ
    only in indexes it cannot use.  The memo keys on the query object,
    not its name, and empties itself whenever the catalog changes.
    """

    def __init__(self, catalog: Catalog, optimizer: Optional[Optimizer] = None) -> None:
        self.catalog = catalog
        self.optimizer = optimizer or Optimizer(catalog)
        self._cache: Dict[Tuple[Query, FrozenSet[str]], QueryPlan] = {}
        self._cache_version = catalog.version

    # ------------------------------------------------------------------
    def plan(self, query: Query, hypothetical: Sequence[str] = ()) -> QueryPlan:
        """Best plan using the real design plus ``hypothetical`` indexes."""
        if self._cache_version != self.catalog.version:
            self._cache.clear()
            self._cache_version = self.catalog.version
        configuration = self.catalog.configuration(extra=hypothetical)
        usable = self.optimizer.usable(query).intersection(configuration)
        key = (query, usable)
        cached = self._cache.get(key)
        if cached is None:
            cached = self.optimizer.optimize(query, usable)
            self._cache[key] = cached
        return cached

    def base_cost(self, query: Query) -> float:
        """Query cost with only the materialized design (``qtime``)."""
        return self.plan(query).cost

    # ------------------------------------------------------------------
    def atomic_configurations(
        self,
        query: Query,
        candidates: Sequence[str],
        max_rounds: int = 8,
        probe_subsets: bool = True,
        min_speedup_fraction: float = 0.01,
    ) -> List[AtomicConfiguration]:
        """Enumerate this query's plans over the candidate indexes.

        Args:
            query: The query to analyze.
            candidates: Hypothetical index names under consideration.
            max_rounds: Removal-loop iterations (the paper repeats "several
                times").
            probe_subsets: Also evaluate each atomic configuration with
                one member dropped, surfacing partial-availability plans.
            min_speedup_fraction: Plans speeding the query up by less
                than this fraction of its base cost are discarded.

        Returns:
            Deduplicated configurations, best speed-up per index set.
        """
        base = self.base_cost(query)
        threshold = base * min_speedup_fraction
        found: Dict[FrozenSet[str], AtomicConfiguration] = {}
        available = list(candidates)
        probe_queue: List[FrozenSet[str]] = []
        for _ in range(max_rounds):
            plan = self.plan(query, available)
            available_set = set(available)
            used = frozenset(
                name
                for name in plan.used_indexes
                if self.catalog.is_hypothetical(name) and name in available_set
            )
            if not used:
                break
            speedup = base - plan.cost
            if speedup > threshold:
                self._record(found, query, used, plan.cost, speedup)
                probe_queue.append(used)
            available = [name for name in available if name not in used]
            if not available:
                break
        if probe_subsets:
            seen_probes: Set[FrozenSet[str]] = set()
            while probe_queue:
                config = probe_queue.pop()
                if len(config) < 2:
                    continue
                for dropped in sorted(config):
                    reduced = config - {dropped}
                    if reduced in seen_probes:
                        continue
                    seen_probes.add(reduced)
                    plan = self.plan(query, sorted(reduced))
                    used = frozenset(
                        name
                        for name in plan.used_indexes
                        if self.catalog.is_hypothetical(name)
                        and name in reduced
                    )
                    speedup = base - plan.cost
                    if used and speedup > threshold:
                        self._record(found, query, used, plan.cost, speedup)
                        if used not in seen_probes and len(used) >= 2:
                            probe_queue.append(used)
        return sorted(
            found.values(), key=lambda c: (-c.speedup, sorted(c.indexes))
        )

    @staticmethod
    def _record(
        found: Dict[FrozenSet[str], AtomicConfiguration],
        query: Query,
        used: FrozenSet[str],
        cost: float,
        speedup: float,
    ) -> None:
        incumbent = found.get(used)
        if incumbent is None or speedup > incumbent.speedup:
            found[used] = AtomicConfiguration(
                query=query.name, indexes=used, cost=cost, speedup=speedup
            )
