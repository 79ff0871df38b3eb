"""Disjoint indexes and clusters (Section 5.4, Appendix D.5).

Two indexes *interact* when they appear together in a query plan, serve
the same query through competing plans, or share a build interaction.
Connected components of this interaction graph are *disjoint clusters*.

For a fully disjoint index (a singleton cluster), Theorems 4–6 show that
in an optimal solution the index sits at the unique *dip* of the density
curve: every prefix before it is denser, every suffix after it is less
dense.  For a pair of disjoint indexes this pins their relative order by
density (speed-up divided by build cost).

The *backward/forward-disjoint* generalization (Theorems 7–8) extends
the density argument to indexes in different clusters whose interacting
partners are already pinned to one side by existing constraints; this is
re-run each fixpoint iteration because constraints added by other
analyses keep unlocking new backward/forward-disjoint pairs.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.analysis.constraints import ConstraintSet
from repro.core.instance import ProblemInstance
from repro.errors import InfeasibleError

__all__ = [
    "interaction_graph",
    "disjoint_clusters",
    "index_density",
    "apply_disjoint",
]

_EPS = 1e-12


def interaction_graph(instance: ProblemInstance) -> List[Set[int]]:
    """Adjacency sets of the index-interaction graph."""
    n = instance.n_indexes
    adjacency: List[Set[int]] = [set() for _ in range(n)]

    def connect(a: int, b: int) -> None:
        if a != b:
            adjacency[a].add(b)
            adjacency[b].add(a)

    # Plan co-membership (query interactions).
    for plan in instance.plans:
        members = sorted(plan.indexes)
        for pos, a in enumerate(members):
            for b in members[pos + 1 :]:
                connect(a, b)
    # Competing interactions: different plans of the same query.
    for query in instance.queries:
        serving: Set[int] = set()
        for plan_id in instance.plans_of_query(query.query_id):
            serving |= instance.plans[plan_id].indexes
        serving_sorted = sorted(serving)
        for pos, a in enumerate(serving_sorted):
            for b in serving_sorted[pos + 1 :]:
                connect(a, b)
    # Build interactions.
    for bi in instance.build_interactions:
        connect(bi.target, bi.helper)
    return adjacency


def disjoint_clusters(adjacency: Sequence[Set[int]]) -> List[Set[int]]:
    """Connected components of an :func:`interaction_graph`."""
    n = len(adjacency)
    seen = [False] * n
    clusters: List[Set[int]] = []
    for start in range(n):
        if seen[start]:
            continue
        component = {start}
        seen[start] = True
        stack = [start]
        while stack:
            node = stack.pop()
            for neighbor in adjacency[node]:
                if not seen[neighbor]:
                    seen[neighbor] = True
                    component.add(neighbor)
                    stack.append(neighbor)
        clusters.append(component)
    return clusters


def index_density(
    instance: ProblemInstance, index_id: int, context: Set[int]
) -> float:
    """``den_i = S(i, context) / C(i, context)``.

    ``context`` is the set of indexes assumed already built when
    ``index_id`` is deployed.
    """
    speedup = instance.total_runtime(context) - instance.total_runtime(
        context | {index_id}
    )
    cost = instance.build_cost(index_id, context)
    if cost <= _EPS:
        return float("inf")
    return speedup / cost


def _pinned_context(
    adjacency: Sequence[Set[int]],
    constraints: ConstraintSet,
    i: int,
    j: int,
) -> Tuple[bool, Set[int]]:
    """Check backward-disjointness of ``i`` regarding ``j``.

    ``i`` is backward-disjoint regarding ``j`` when every index
    interacting with ``i`` or ``j`` is already constrained after ``i`` or
    before ``j``.  When that holds, the context in which both densities
    are evaluated is exactly the set of indexes known to precede ``j``
    (those are built before ``j`` and hence before ``i`` in any
    ``j -> X -> i`` subsequence).

    Returns ``(holds, context)``.
    """
    interacting = (adjacency[i] | adjacency[j]) - {i, j}
    context: Set[int] = set(constraints.predecessors(j))
    for x in interacting:
        after_i = constraints.is_before(i, x)
        before_j = constraints.is_before(x, j)
        if not (after_i or before_j):
            return False, set()
    return True, context - {i, j}


def apply_disjoint(
    instance: ProblemInstance, constraints: ConstraintSet
) -> int:
    """Add density-based precedences between disjoint(-ish) indexes.

    Two tiers:

    1. Pure disjoint indexes (singleton clusters): totally ordered by
       density, descending — denser indexes first (Theorems 4–6).
    2. Backward/forward-disjoint pairs in *different* clusters under the
       current constraints (Theorems 7–8).

    Returns the number of new constraints added.
    """
    added = 0
    adjacency = interaction_graph(instance)
    clusters = disjoint_clusters(adjacency)
    cluster_of: Dict[int, int] = {}
    for cluster_id, members in enumerate(clusters):
        for member in members:
            cluster_of[member] = cluster_id

    # Tier 1: totally order the pure disjoint indexes by density.
    singletons = sorted(
        member for cluster in clusters if len(cluster) == 1 for member in cluster
    )
    useful_singletons = [
        s for s in singletons if instance.plans_containing(s)
    ]
    ranked = sorted(
        useful_singletons,
        key=lambda s: (-index_density(instance, s, set()), s),
    )
    for first, second in zip(ranked, ranked[1:]):
        try:
            if constraints.add_precedence(first, second, reason="disjoint"):
                added += 1
        except InfeasibleError:
            continue

    # Tier 2: backward/forward-disjoint pairs across clusters.
    n = instance.n_indexes
    for i in range(n):
        for j in range(n):
            if i == j or cluster_of[i] == cluster_of[j]:
                continue
            if constraints.is_before(i, j) or constraints.is_before(j, i):
                continue
            holds, context = _pinned_context(adjacency, constraints, i, j)
            if not holds:
                continue
            den_i = index_density(instance, i, context)
            den_j = index_density(instance, j, context)
            if den_i > den_j + _EPS:
                # i backward-disjoint regarding j and denser: i precedes j.
                try:
                    if constraints.add_precedence(
                        i, j, reason="backward-disjoint"
                    ):
                        added += 1
                except InfeasibleError:
                    continue
    return added
