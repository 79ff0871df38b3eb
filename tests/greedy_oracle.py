"""Reference Algorithm 1: the greedy density loop by full recomputation.

Every candidate's density is computed from scratch with
``ProblemInstance.total_runtime`` and ``query_speedup``, which is
O(n² · |P|) per greedy but transparently follows the paper's
definition.  ``repro.solvers.greedy.greedy_order`` computes the same
densities incrementally; the parity tests and the throughput ledger
compare the two.

Eligibility under constraints is written independently with plain sets
(an index waits for its predecessors and, along the consecutive chain
it heads, for every follower's predecessors outside the chain), so the
oracle checks that rule too.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set

from repro.analysis.constraints import ConstraintSet
from repro.core.instance import ProblemInstance

__all__ = ["oracle_density", "oracle_greedy_order"]


def oracle_density(
    instance: ProblemInstance, candidate: int, built: Set[int]
) -> float:
    """Algorithm 1's density of ``candidate`` once ``built`` is deployed."""
    with_candidate = built | {candidate}
    benefit = instance.total_runtime(built) - instance.total_runtime(
        with_candidate
    )
    # Future-opportunity credit: plans containing the candidate that
    # are still locked contribute their *additional* speed-up split
    # across the missing indexes.
    for plan_id in instance.plans_containing(candidate):
        plan = instance.plans[plan_id]
        missing = plan.indexes - with_candidate
        if not missing:
            continue
        query = instance.queries[plan.query_id]
        current_speedup = instance.query_speedup(plan.query_id, with_candidate)
        interaction = (plan.speedup - current_speedup) * query.weight
        if interaction > 0:
            benefit += interaction / len(missing)
    cost = instance.build_cost(candidate, built)
    return benefit / cost if cost > 0 else float("inf")


def _best_by_density(
    instance: ProblemInstance, eligible: Iterable[int], built: Set[int]
) -> int:
    best_index = -1
    best_density = float("-inf")
    for candidate in sorted(eligible):
        density = oracle_density(instance, candidate, built)
        if density > best_density:
            best_density = density
            best_index = candidate
    return best_index


def _eligible(
    index_id: int, built: Set[int], constraints: ConstraintSet, follower
) -> bool:
    if not constraints.predecessors(index_id) <= built:
        return False
    chain = {index_id}
    member = follower.get(index_id)
    while member is not None:
        if not constraints.predecessors(member) - chain <= built:
            return False
        chain.add(member)
        member = follower.get(member)
    return True


def oracle_greedy_order(
    instance: ProblemInstance, constraints: Optional[ConstraintSet] = None
) -> List[int]:
    """Algorithm 1 by full recomputation; same contract as ``greedy_order``."""
    follower = dict(constraints.consecutive_pairs) if constraints else {}
    built: Set[int] = set()
    order: List[int] = []
    remaining = set(range(instance.n_indexes))
    forced_next: Optional[int] = None
    while remaining:
        if forced_next is not None and forced_next in remaining:
            choice = forced_next
        else:
            eligible = [
                i
                for i in remaining
                if constraints is None
                or _eligible(i, built, constraints, follower)
            ]
            choice = _best_by_density(instance, eligible or remaining, built)
        order.append(choice)
        built.add(choice)
        remaining.discard(choice)
        forced_next = follower.get(choice)
    return order
