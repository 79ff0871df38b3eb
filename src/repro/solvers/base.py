"""Common solver infrastructure.

Every solver implements :class:`Solver.solve` and returns a
:class:`~repro.core.solution.SolveResult`.  :class:`Budget` provides the
shared time/node accounting, so experiments can hand the same budget
semantics to CP, MIP, and local search.
"""

from __future__ import annotations

import abc
import time
from typing import Dict, Optional, Sequence, Tuple

from repro.analysis.constraints import ConstraintSet
from repro.core.engine import EvalEngine
from repro.core.instance import ProblemInstance
from repro.core.solution import SolveResult

__all__ = ["Budget", "Solver", "glue_consecutive", "repair_order"]


#: :meth:`Budget.tick` reads the clock once per this many ticked nodes.
CLOCK_STRIDE = 256


class Budget:
    """A wall-clock and node budget for one solver run.

    Args:
        time_limit: Seconds of wall-clock time, or ``None`` for no limit.
        node_limit: Maximum search nodes/iterations, or ``None``.
    """

    def __init__(
        self,
        time_limit: Optional[float] = None,
        node_limit: Optional[int] = None,
    ) -> None:
        self.time_limit = time_limit
        self.node_limit = node_limit
        self.restart()

    def restart(self) -> None:
        """Reset the clock and node counter."""
        self.nodes = 0
        self._next_clock = 0
        self._start = time.perf_counter()

    @property
    def elapsed(self) -> float:
        """Seconds since the budget started."""
        return time.perf_counter() - self._start

    def tick(self, nodes: int = 1) -> bool:
        """Account for ``nodes`` units of work; True once exhausted.

        The node limit is checked on every tick, the clock only on the
        first tick and then once per :data:`CLOCK_STRIDE` ticked nodes,
        so a per-node search loop can stop on the return value without
        paying for a clock read per node.
        """
        self.nodes += nodes
        if self.node_limit is not None and self.nodes >= self.node_limit:
            return True
        if self.time_limit is None or self.nodes < self._next_clock:
            return False
        self._next_clock = self.nodes + CLOCK_STRIDE
        return self.elapsed >= self.time_limit

    @property
    def exhausted(self) -> bool:
        """True once either limit is hit (reads the clock every call)."""
        if self.node_limit is not None and self.nodes >= self.node_limit:
            return True
        if self.time_limit is not None and self.elapsed >= self.time_limit:
            return True
        return False


class Solver(abc.ABC):
    """Base class for deployment-order solvers."""

    #: Short name used in result records and experiment tables.
    name: str = "solver"

    #: Optional externally-supplied shared evaluation backend.  A driver
    #: that races several solvers on one instance (the portfolio) sets
    #: this so the built-set runtime memo and prefix-cursor state
    #: compound across members instead of every solver paying for a cold
    #: engine.  Ignored (a fresh engine is built) when the engine was
    #: constructed for a different instance.
    engine: Optional[EvalEngine] = None

    @abc.abstractmethod
    def solve(
        self,
        instance: ProblemInstance,
        constraints: Optional[ConstraintSet] = None,
        budget: Optional[Budget] = None,
    ) -> SolveResult:
        """Solve ``instance``, optionally under pre-analysis constraints.

        Implementations must respect the ``budget`` if given, must return
        feasible orders under ``constraints`` (including consecutive
        pairs), and should fill the result's anytime ``trace``.
        """

    def _engine(self, instance: ProblemInstance) -> EvalEngine:
        """Evaluation backend for one solve.

        Returns the externally-shared :attr:`engine` when one was
        injected for this exact instance, else a fresh engine.
        """
        if self.engine is not None and self.engine.instance is instance:
            return self.engine
        return EvalEngine(instance)


def repair_order(
    order: Sequence[int], constraints: Optional[ConstraintSet]
) -> list:
    """Minimally reorder ``order`` into constraint feasibility.

    Each chain of consecutive pairs moves as one block, placed where its
    first member stands; every other index is a block of its own.  A
    block placed before a block holding one of its members' known
    predecessors moves to just after that block, repeating until no
    violation remains.  The relative order of unconstrained blocks is
    preserved, and the result satisfies the set whenever some order
    does.  Positions are maintained incrementally — each move only
    renumbers the rotated span, so one pass costs O(n) amortized
    instead of rebuilding the full position map per move.
    """
    result = list(order)
    if constraints is None:
        return result
    members = _chain_blocks(result, constraints)
    heads = list(members)
    block_of = {index_id: head for head in heads for index_id in members[head]}
    position = {head: pos for pos, head in enumerate(heads)}
    changed = True
    while changed:
        changed = False
        for b in range(constraints.n):
            head_b = block_of[b]
            for a in constraints.predecessors(b):
                pos_a = position[block_of[a]]
                pos_b = position[head_b]
                if pos_a > pos_b:
                    # Rotate b's block from pos_b to just after a's;
                    # only the span [pos_b, pos_a] shifts, so renumber
                    # just that span.
                    heads.pop(pos_b)
                    heads.insert(pos_a, head_b)
                    for pos in range(pos_b, pos_a + 1):
                        position[heads[pos]] = pos
                    changed = True
    return [index_id for head in heads for index_id in members[head]]


def _chain_blocks(
    order: Sequence[int], constraints: ConstraintSet
) -> Dict[int, Tuple[int, ...]]:
    """First member -> chain of consecutive pairs, in ``order``'s order.

    An index in no pair is a chain of one.  When no order satisfies the
    pairs (an index with two partners on one side, or chains whose
    precedences form a cycle, which would keep the rotations in
    :func:`repair_order` from settling), every index is its own block,
    so only the precedences get repaired.
    """
    singletons = {index_id: (index_id,) for index_id in order}
    pairs = constraints.consecutive_pairs
    follower = dict(pairs)
    leaders = {second for _, second in pairs}
    if not pairs or len(follower) < len(pairs) or len(leaders) < len(pairs):
        return singletons
    members = {}
    for index_id in order:
        if index_id in leaders:
            continue
        chain = [index_id]
        while chain[-1] in follower:
            chain.append(follower[chain[-1]])
        members[index_id] = tuple(chain)
    # The chains must have an order: peel off, round by round, every
    # chain whose outside predecessors are all placed.
    need = {head: constraints.chain_predecessor_mask(head) for head in members}
    placed = 0
    while need:
        ready = [head for head, mask in need.items() if not mask & ~placed]
        if not ready:
            return singletons
        for head in ready:
            del need[head]
            for index_id in members[head]:
                placed |= 1 << index_id
    return members


def glue_consecutive(
    order: Sequence[int], constraints: Optional[ConstraintSet]
) -> list:
    """Repair an order so alliance pairs become adjacent.

    Scans the consecutive pairs and moves each ``second`` directly after
    its ``first`` while preserving the relative order of everything else.
    Moving ``second`` can break one of its other precedences;
    :func:`repair_order` repairs pairs and precedences together.
    """
    result = list(order)
    if constraints is None:
        return result
    for first, second in constraints.consecutive_pairs:
        if first not in result or second not in result:
            continue
        result.remove(second)
        result.insert(result.index(first) + 1, second)
    return result
