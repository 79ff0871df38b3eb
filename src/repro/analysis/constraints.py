"""Ordering-constraint bookkeeping shared by analyses and solvers.

Every pruning property of Section 5 ultimately emits one of two kinds of
constraints over the position variables ``T``:

* a *precedence* ``T_a < T_b`` (colonized, dominated, disjoint, tails),
* a *consecutive pair* ``T_b = T_a + 1`` (alliances).

:class:`ConstraintSet` stores both, maintains the transitive closure of
the precedence relation as bitmasks (cheap for the |I| <= few hundred
sizes this problem has), detects contradictions eagerly, and offers the
queries solvers need: known predecessor/successor sets, position bounds,
and feasibility checks for complete orders.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import InfeasibleError, ValidationError

__all__ = ["ConstraintSet"]


class ConstraintSet:
    """A consistent set of ordering constraints over ``n`` indexes.

    The precedence relation is kept transitively closed at all times:
    after ``add_precedence(a, b)`` and ``add_precedence(b, c)``,
    ``is_before(a, c)`` is true.  Adding a precedence that contradicts
    the closure raises :class:`InfeasibleError`, so the closure stays
    acyclic.  Consecutive pairs are not checked against each other:
    ``add_consecutive(0, 1)`` and ``add_consecutive(0, 2)`` build a set
    no permutation satisfies, without an error.  On such a set the exact
    solvers answer ``INFEASIBLE``.
    """

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValidationError(f"n must be >= 0, got {n}")
        self.n = n
        # _before[i] = bitmask of indexes known to precede i.
        self._before: List[int] = [0] * n
        # _after[i] = bitmask of indexes known to succeed i.
        self._after: List[int] = [0] * n
        # Consecutive pairs (a, b): T_b == T_a + 1.
        self._consecutive: List[Tuple[int, int]] = []
        self._direct_edges: Set[Tuple[int, int]] = set()

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_precedence(self, before: int, after: int, reason: str = "") -> bool:
        """Require ``T_before < T_after``.

        Returns ``True`` if new information was added, ``False`` if the
        constraint was already implied.

        Raises:
            InfeasibleError: If the reverse ordering is already implied.
            ValidationError: On out-of-range or self-referential ids.
        """
        self._check_pair(before, after)
        bit_before = 1 << before
        bit_after = 1 << after
        if self._before[before] & bit_after:
            raise InfeasibleError(
                f"precedence {before} -> {after} contradicts existing "
                f"constraints" + (f" ({reason})" if reason else "")
            )
        if self._before[after] & bit_before:
            return False
        # Transitive update: everything <= before now precedes everything
        # >= after.
        left = self._before[before] | bit_before
        right = self._after[after] | bit_after
        for member in _bits(right):
            self._before[member] |= left
        for member in _bits(left):
            self._after[member] |= right
        self._direct_edges.add((before, after))
        return True

    def add_consecutive(self, first: int, second: int, reason: str = "") -> None:
        """Require ``T_second = T_first + 1`` (alliance constraint).

        Implies the precedence ``first -> second``.  The consecutive pair
        is also recorded so CP/local-search can keep the pair glued.
        """
        self._check_pair(first, second)
        self.add_precedence(first, second, reason=reason)
        pair = (first, second)
        if pair not in self._consecutive:
            self._consecutive.append(pair)

    def merge(self, other: "ConstraintSet") -> None:
        """Absorb all constraints of ``other`` into this set."""
        if other.n != self.n:
            raise ValidationError(
                f"cannot merge constraint sets of sizes {self.n} and {other.n}"
            )
        for before, after in other._direct_edges:
            self.add_precedence(before, after)
        for first, second in other._consecutive:
            self.add_consecutive(first, second)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_before(self, a: int, b: int) -> bool:
        """True when ``T_a < T_b`` is implied."""
        return bool(self._before[b] & (1 << a))

    def predecessors(self, i: int) -> Set[int]:
        """All indexes known to precede ``i``."""
        return set(_bits(self._before[i]))

    def successors(self, i: int) -> Set[int]:
        """All indexes known to succeed ``i``."""
        return set(_bits(self._after[i]))

    def predecessor_mask(self, i: int) -> int:
        """Bitmask of known predecessors of ``i``."""
        return self._before[i]

    def successor_mask(self, i: int) -> int:
        """Bitmask of known successors of ``i``."""
        return self._after[i]

    def chain_predecessor_mask(self, first: int) -> int:
        """Known predecessors of the consecutive chain ``first`` heads.

        The chain is ``first`` and the indexes consecutive pairs glue
        after it, in turn.  The mask holds every member's predecessors
        outside the chain: deploying ``first`` commits the whole chain,
        so these must all be deployed before ``first``.
        """
        follower = dict(self._consecutive)
        chain = 1 << first
        mask = self._before[first]
        member = follower.get(first)
        while member is not None:
            mask |= self._before[member] & ~chain
            chain |= 1 << member
            member = follower.get(member)
        return mask

    @property
    def consecutive_pairs(self) -> List[Tuple[int, int]]:
        """Recorded alliance pairs ``(first, second)``."""
        return list(self._consecutive)

    @property
    def precedence_edges(self) -> Set[Tuple[int, int]]:
        """Directly added precedence edges (not the closure)."""
        return set(self._direct_edges)

    def implied_pair_count(self) -> int:
        """Number of ordered pairs fixed by the closure.

        This is the quantity that shrinks the search space: each implied
        pair halves (roughly) the number of admissible permutations.
        """
        return sum(_popcount(mask) for mask in self._before)

    def position_bounds(self, i: int) -> Tuple[int, int]:
        """Inclusive 1-based position bounds ``(lo, hi)`` for index ``i``."""
        lo = _popcount(self._before[i]) + 1
        hi = self.n - _popcount(self._after[i])
        return lo, hi

    def check_order(self, order: Sequence[int]) -> bool:
        """True when a complete order satisfies every constraint."""
        position = {index_id: pos for pos, index_id in enumerate(order)}
        for b in range(self.n):
            pos_b = position[b]
            for a in _bits(self._before[b]):
                if position[a] >= pos_b:
                    return False
        for first, second in self._consecutive:
            if position[second] != position[first] + 1:
                return False
        return True

    def topological_order(self) -> List[int]:
        """Any order satisfying the precedences (ignores consecutiveness).

        Useful as a feasible starting point; consecutive pairs are then
        repaired by gluing the pair members together.
        """
        indeg = [_popcount(self._before[i]) for i in range(self.n)]
        # Kahn's algorithm over the closed relation still works: we peel
        # off indexes whose predecessor counts reach zero.
        remaining = set(range(self.n))
        order: List[int] = []
        while remaining:
            ready = sorted(
                i for i in remaining if not (self._before[i] & _mask(remaining))
            )
            if not ready:
                raise InfeasibleError("constraint set contains a cycle")
            nxt = ready[0]
            order.append(nxt)
            remaining.discard(nxt)
        return order

    def copy(self) -> "ConstraintSet":
        """Deep copy of this constraint set."""
        clone = ConstraintSet(self.n)
        clone._before = list(self._before)
        clone._after = list(self._after)
        clone._consecutive = list(self._consecutive)
        clone._direct_edges = set(self._direct_edges)
        return clone

    def summary(self) -> Dict[str, int]:
        """Counts used in experiment reports."""
        return {
            "direct_edges": len(self._direct_edges),
            "implied_pairs": self.implied_pair_count(),
            "consecutive_pairs": len(self._consecutive),
        }

    # ------------------------------------------------------------------
    def _check_pair(self, a: int, b: int) -> None:
        for value in (a, b):
            if not 0 <= value < self.n:
                raise ValidationError(
                    f"index {value} out of range 0..{self.n - 1}"
                )
        if a == b:
            raise ValidationError(f"constraint on a single index {a}")

    def __repr__(self) -> str:
        return (
            f"ConstraintSet(n={self.n}, edges={len(self._direct_edges)}, "
            f"implied={self.implied_pair_count()}, "
            f"consecutive={len(self._consecutive)})"
        )


def _bits(mask: int) -> Iterable[int]:
    """Yield set-bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _popcount(mask: int) -> int:
    return bin(mask).count("1")


def _mask(values: Iterable[int]) -> int:
    out = 0
    for v in values:
        out |= 1 << v
    return out
