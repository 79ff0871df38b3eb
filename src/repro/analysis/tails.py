"""Tail-index analysis (Sections 5.5–5.6, Appendix D.6).

For a fixed *set* of tail indexes, the preceding indexes — and therefore
every interaction they send into the tail — are determined, so the tail
contribution to the objective can be computed exactly for each feasible
internal order.  The cheapest order is the group's *champion* (Theorem
9), and any rule that holds in **every** champion holds in the optimal
solution (Theorem 10).

This module implements the rule the paper exploits in its TPC-H study:
when one index is the last element of every champion, it must be the
last deployed index.  The surrounding loop then fixes that index,
shrinks the active problem, and repeats (Section 5.6, iterate and
recurse).

The permutations of one tail set revisit the same few built-sets, and
successive tail lengths and rounds revisit them again, so every step's
runtime comes from the built-set memo of an :class:`EvalEngine`.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.constraints import ConstraintSet
from repro.core.engine import EvalEngine
from repro.core.instance import ProblemInstance
from repro.errors import InfeasibleError

__all__ = ["TailPattern", "enumerate_tail_patterns", "apply_tails"]

DEFAULT_MAX_PATTERNS = 20000


class TailPattern:
    """One feasible ordered tail with its exact tail objective."""

    __slots__ = ("order", "objective")

    def __init__(self, order: Tuple[int, ...], objective: float) -> None:
        self.order = order
        self.objective = objective

    @property
    def tail_set(self) -> frozenset:
        """The unordered set of tail indexes (the comparison group)."""
        return frozenset(self.order)

    def __repr__(self) -> str:
        arrow = "->".join(str(i) for i in self.order)
        return f"TailPattern({arrow}, obj={self.objective:.4f})"


def _tail_objective(
    engine: EvalEngine, preceding: int, order: Sequence[int]
) -> float:
    """Exact objective contribution of the tail steps.

    ``preceding`` is the bitmask of indexes built before the tail
    begins; all their interactions into the tail are therefore
    determined.
    """
    built = preceding
    objective = 0.0
    for index_id in order:
        runtime = engine.runtime_of(built)
        cost = engine.build_cost_in(index_id, built)
        objective += runtime * cost
        built |= 1 << index_id
    return objective


def _order_feasible(
    constraints: ConstraintSet,
    active: Set[int],
    tail_order: Sequence[int],
) -> bool:
    """Check a tail order against precedence and consecutive constraints."""
    position = {index_id: pos for pos, index_id in enumerate(tail_order)}
    members = set(tail_order)
    for pos, b in enumerate(tail_order):
        for a in constraints.predecessors(b):
            if a in position and position[a] >= pos:
                return False
    for first, second in constraints.consecutive_pairs:
        if first in members and second in members:
            if position[second] != position[first] + 1:
                return False
        elif second in members and first in active:
            # first precedes the whole tail, so second must open it.
            if position[second] != 0:
                return False
        elif first in members and second in active:
            # second must immediately follow first but is not in the tail.
            return False
    return True


def enumerate_tail_patterns(
    instance: ProblemInstance,
    constraints: ConstraintSet,
    active: Set[int],
    length: int,
    max_patterns: int = DEFAULT_MAX_PATTERNS,
    engine: Optional[EvalEngine] = None,
) -> Optional[List[TailPattern]]:
    """Enumerate all feasible ordered tails of ``length`` within ``active``.

    Returns ``None``, before scoring any pattern, when the enumeration
    would exceed ``max_patterns`` (the analysis then gives up rather
    than pay unbounded pre-analysis cost, mirroring the paper's
    threshold ``k``).  ``engine`` supplies
    the built-set runtime memo; pass one to share it across calls.
    """
    if length > len(active):
        return []
    if engine is None:
        engine = EvalEngine(instance)
    candidates = [
        t
        for t in sorted(active)
        if len(constraints.successors(t) & active) < length
    ]
    # Every combo that passes the successor closure contributes all its
    # ``length!`` orders to the count, feasible or not; give up before
    # scoring any once the count exceeds ``max_patterns``.
    orders_per_combo = math.factorial(length)
    combos = []
    for combo in itertools.combinations(candidates, length):
        member_set = set(combo)
        # Successor closure: nothing outside the tail may be forced after
        # a tail member.
        if any(
            not (constraints.successors(t) & active) <= member_set
            for t in combo
        ):
            continue
        combos.append(combo)
        if len(combos) * orders_per_combo > max_patterns:
            return None
    active_mask = EvalEngine.mask_of(active)
    patterns: List[TailPattern] = []
    for combo in combos:
        preceding = active_mask & ~EvalEngine.mask_of(combo)
        for perm in itertools.permutations(combo):
            if not _order_feasible(constraints, active, perm):
                continue
            objective = _tail_objective(engine, preceding, perm)
            patterns.append(TailPattern(tuple(perm), objective))
    return patterns


def _champions(patterns: List[TailPattern]) -> Dict[frozenset, TailPattern]:
    """Best pattern per tail set (Theorem 9)."""
    best: Dict[frozenset, TailPattern] = {}
    for pattern in patterns:
        key = pattern.tail_set
        incumbent = best.get(key)
        if incumbent is None or pattern.objective < incumbent.objective - 1e-12:
            best[key] = pattern
    return best


def _find_forced_last(
    instance: ProblemInstance,
    constraints: ConstraintSet,
    active: Set[int],
    max_patterns: int,
    max_length: int,
    engine: EvalEngine,
) -> Optional[int]:
    """Index that is last in every champion, or ``None``."""
    for length in range(2, max_length + 1):
        if length > len(active) - 1:
            break
        patterns = enumerate_tail_patterns(
            instance, constraints, active, length, max_patterns, engine
        )
        if patterns is None:
            break  # enumeration threshold exceeded; stop growing
        if not patterns:
            continue
        champions = _champions(patterns)
        last_elements = {pattern.order[-1] for pattern in champions.values()}
        if len(last_elements) == 1:
            return next(iter(last_elements))
    return None


def apply_tails(
    instance: ProblemInstance,
    constraints: ConstraintSet,
    max_patterns: int = DEFAULT_MAX_PATTERNS,
    max_length: int = 4,
    engine: Optional[EvalEngine] = None,
) -> int:
    """Iteratively pin forced-last indexes (Sections 5.5–5.6).

    Each round enumerates tail patterns over the still-active indexes; if
    one index closes every champion it is fixed to the end (precedences
    from every other active index) and the analysis recurses on the rest.
    ``engine`` supplies the built-set runtime memo, as in
    :func:`enumerate_tail_patterns`.

    Returns the number of new precedence constraints added.
    """
    if engine is None:
        engine = EvalEngine(instance)
    added = 0
    active = set(range(instance.n_indexes))
    while len(active) >= 3:
        forced = _find_forced_last(
            instance, constraints, active, max_patterns, max_length, engine
        )
        if forced is None:
            break
        for other in sorted(active - {forced}):
            try:
                if constraints.add_precedence(other, forced, reason="tail"):
                    added += 1
            except InfeasibleError:
                # Contradicts existing knowledge; abandon this round.
                return added
        active.discard(forced)
    return added
