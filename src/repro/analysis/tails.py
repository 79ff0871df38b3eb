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

The search for that index visits tail sets one at a time, in
``itertools.combinations`` order, and leaves a tail length as soon as
two champions end in different indexes: no index closes every champion
at that length, whatever the unscored sets hold.  A length is given up
before any order is scored when its sets times ``length!`` orders
exceed ``max_patterns``; when no candidate has a successor inside the
active set, every set passes the successor closure and that count is a
binomial coefficient, so the sets are not listed to count them.

The permutations of one tail set revisit the same few built-sets, and
successive tail lengths and rounds revisit them again, so every step's
runtime comes from the built-set memo of an :class:`EvalEngine`.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.constraints import ConstraintSet, _popcount
from repro.core.engine import EvalEngine
from repro.core.instance import ProblemInstance
from repro.errors import InfeasibleError

__all__ = [
    "TailPattern",
    "enumerate_tail_patterns",
    "tail_champion",
    "apply_tails",
]

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


def _tail_sets(
    constraints: ConstraintSet,
    active: Set[int],
    length: int,
    max_patterns: int,
) -> Optional[Iterable[Tuple[int, ...]]]:
    """The tail sets of ``length`` within ``active``, in combinations order.

    A set qualifies when nothing active outside it is forced after one
    of its members (the successor closure).  Returns ``None`` when the
    qualifying sets times their ``length!`` orders, feasible or not,
    exceed ``max_patterns`` (the analysis then gives up rather than pay
    unbounded pre-analysis cost, mirroring the paper's threshold ``k``).
    """
    active_mask = EvalEngine.mask_of(active)
    later = {t: constraints.successor_mask(t) & active_mask for t in active}
    candidates = [t for t in sorted(active) if _popcount(later[t]) < length]
    orders_per_set = math.factorial(length)
    if not any(later[t] for t in candidates):
        # Every set passes the closure: count them without listing them.
        if math.comb(len(candidates), length) * orders_per_set > max_patterns:
            return None
        return itertools.combinations(candidates, length)
    sets = []
    for combo in itertools.combinations(candidates, length):
        members = EvalEngine.mask_of(combo)
        if any(later[t] & ~members for t in combo):
            continue
        sets.append(combo)
        if len(sets) * orders_per_set > max_patterns:
            return None
    return sets


def _set_patterns(
    engine: EvalEngine,
    constraints: ConstraintSet,
    active: Set[int],
    active_mask: int,
    tail_set: Tuple[int, ...],
) -> Iterator[TailPattern]:
    """The feasible orders of one tail set, in permutations order."""
    preceding = active_mask & ~EvalEngine.mask_of(tail_set)
    for perm in itertools.permutations(tail_set):
        if _order_feasible(constraints, active, perm):
            yield TailPattern(perm, _tail_objective(engine, preceding, perm))


def tail_champion(patterns: Iterable[TailPattern]) -> Optional[TailPattern]:
    """The champion of one tail set's patterns (Theorem 9).

    The first pattern whose objective beats every earlier one by more
    than 1e-12, so an exact or near tie keeps the earlier order;
    ``None`` when the set has no feasible order.
    """
    best = None
    for pattern in patterns:
        if best is None or pattern.objective < best.objective - 1e-12:
            best = pattern
    return best


def enumerate_tail_patterns(
    instance: ProblemInstance,
    constraints: ConstraintSet,
    active: Set[int],
    length: int,
    max_patterns: int = DEFAULT_MAX_PATTERNS,
    engine: Optional[EvalEngine] = None,
) -> Optional[List[TailPattern]]:
    """Enumerate all feasible ordered tails of ``length`` within ``active``.

    Patterns come grouped by tail set, sets in combinations order and
    each set's orders in permutations order.  Returns ``None``, before
    scoring any pattern, when the enumeration would exceed
    ``max_patterns`` (see :func:`_tail_sets`).  ``engine`` supplies the
    built-set runtime memo; pass one to share it across calls.
    """
    if length > len(active):
        return []
    tail_sets = _tail_sets(constraints, active, length, max_patterns)
    if tail_sets is None:
        return None
    if engine is None:
        engine = EvalEngine(instance)
    active_mask = EvalEngine.mask_of(active)
    return [
        pattern
        for tail_set in tail_sets
        for pattern in _set_patterns(
            engine, constraints, active, active_mask, tail_set
        )
    ]


def _find_forced_last(
    constraints: ConstraintSet,
    active: Set[int],
    max_patterns: int,
    max_length: int,
    engine: EvalEngine,
) -> Optional[int]:
    """Index that is last in every champion of some length, or ``None``.

    A length is left at the first champion that ends in a different
    index from an earlier one.
    """
    active_mask = EvalEngine.mask_of(active)
    for length in range(2, max_length + 1):
        if length > len(active) - 1:
            break
        tail_sets = _tail_sets(constraints, active, length, max_patterns)
        if tail_sets is None:
            break  # enumeration threshold exceeded; stop growing
        last = None
        for tail_set in tail_sets:
            patterns = _set_patterns(
                engine, constraints, active, active_mask, tail_set
            )
            champion = tail_champion(patterns)
            if champion is None:
                continue
            if last is None:
                last = champion.order[-1]
            elif champion.order[-1] != last:
                break
        else:
            if last is not None:
                return last
    return None


def apply_tails(
    instance: ProblemInstance,
    constraints: ConstraintSet,
    max_patterns: int = DEFAULT_MAX_PATTERNS,
    max_length: int = 4,
    engine: Optional[EvalEngine] = None,
) -> int:
    """Iteratively pin forced-last indexes (Sections 5.5–5.6).

    Each round searches the tail sets of the still-active indexes; if
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
            constraints, active, max_patterns, max_length, engine
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
