"""Common solver infrastructure.

Every solver implements :class:`Solver.solve` and returns a
:class:`~repro.core.solution.SolveResult`.  :class:`Budget` provides the
shared time/node accounting, so experiments can hand the same budget
semantics to CP, MIP, and local search.
"""

from __future__ import annotations

import abc
import time
from typing import Optional, Sequence

from repro.analysis.constraints import ConstraintSet
from repro.core.engine import EvalEngine
from repro.core.instance import ProblemInstance
from repro.core.solution import SolveResult

__all__ = ["Budget", "Solver", "glue_consecutive", "repair_order"]


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
        self.nodes = 0
        self._start = time.perf_counter()

    def restart(self) -> None:
        """Reset the clock and node counter."""
        self.nodes = 0
        self._start = time.perf_counter()

    @property
    def elapsed(self) -> float:
        """Seconds since the budget started."""
        return time.perf_counter() - self._start

    def tick(self, nodes: int = 1) -> None:
        """Account for ``nodes`` units of work."""
        self.nodes += nodes

    @property
    def exhausted(self) -> bool:
        """True once either limit is hit."""
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

    Moves any index placed before one of its known predecessors to just
    after that predecessor, repeating until no violation remains (the
    precedence relation is acyclic, so this terminates), then glues
    consecutive pairs.  The relative order of unconstrained indexes is
    preserved.  Positions are maintained incrementally — each move only
    renumbers the rotated span, so one pass costs O(n) amortized
    instead of rebuilding the full position map per move.
    """
    result = list(order)
    if constraints is None:
        return result
    position = {index_id: pos for pos, index_id in enumerate(result)}
    changed = True
    while changed:
        changed = False
        for b in range(constraints.n):
            for a in constraints.predecessors(b):
                pos_a = position[a]
                pos_b = position[b]
                if pos_a > pos_b:
                    # Rotate b from pos_b to just after a; only the span
                    # [pos_b, pos_a] shifts, so renumber just that span.
                    result.pop(pos_b)
                    result.insert(pos_a, b)
                    for pos in range(pos_b, pos_a + 1):
                        position[result[pos]] = pos
                    changed = True
    return glue_consecutive(result, constraints)


def glue_consecutive(
    order: Sequence[int], constraints: Optional[ConstraintSet]
) -> list:
    """Repair an order so alliance pairs become adjacent.

    Scans the consecutive pairs and moves each ``second`` directly after
    its ``first`` while preserving the relative order of everything else.
    Used to make heuristic starting points feasible for constraint-aware
    search.
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
