"""Exact search over the subset lattice: dynamic programming and A*.

Both the query runtime ``R`` and every build cost depend only on the
*set* of already-built indexes, never on their internal order.  The
problem therefore has optimal substructure over subsets: the cheapest
way to have built a set ``M`` is independent of what comes after.  This
yields

* :class:`SubsetDPSolver` — Held–Karp-style DP over all ``2^n`` subsets
  (exact ground truth for small ``n``; used by the test suite to verify
  every other solver), and
* :class:`AStarSolver` — best-first search over the same lattice with an
  admissible heuristic (each remaining index costs at least its minimum
  build cost, multiplied by the all-built runtime), the approach Bruno &
  Chaudhuri suggested but did not implement.

Consecutive (alliance) pairs are honored by collapsing each glued chain
into an atomic *unit* that is deployed in one expansion.  A search the
budget stops returns the greedy order, when it satisfies the
constraints, with status TIMEOUT.
"""

from __future__ import annotations

import heapq
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.constraints import ConstraintSet
from repro.core.engine import EvalEngine
from repro.core.instance import ProblemInstance
from repro.core.solution import Solution, SolveResult, SolveStatus
from repro.errors import ValidationError
from repro.solvers.base import Budget, Solver
from repro.solvers.greedy import greedy_order
from repro.solvers.registry import register

__all__ = ["SubsetDPSolver", "AStarSolver"]

_DEFAULT_MAX_INDEXES = 18


def _deployment_units(
    n: int, constraints: Optional[ConstraintSet]
) -> List[Tuple[int, ...]]:
    """Collapse consecutive chains into atomic deployment units."""
    if constraints is None:
        return [(i,) for i in range(n)]
    next_of: Dict[int, int] = {}
    has_prev = set()
    for first, second in constraints.consecutive_pairs:
        next_of[first] = second
        has_prev.add(second)
    units: List[Tuple[int, ...]] = []
    seen = set()
    for start in range(n):
        if start in has_prev or start in seen:
            continue
        chain = [start]
        seen.add(start)
        while chain[-1] in next_of:
            nxt = next_of[chain[-1]]
            chain.append(nxt)
            seen.add(nxt)
        units.append(tuple(chain))
    return units


class _Lattice:
    """Shared machinery for subset-lattice search.

    Runtime states and the admissible remaining-area bound come from the
    solver's :class:`EvalEngine`, so the built-set memo survives across
    searches that reuse one engine.
    """

    def __init__(
        self,
        instance: ProblemInstance,
        constraints: Optional[ConstraintSet],
        engine: EvalEngine,
    ) -> None:
        self.instance = instance
        self.constraints = constraints
        self.engine = engine
        self.n = instance.n_indexes
        self.units = _deployment_units(self.n, constraints)
        self.unit_masks = [
            sum(1 << member for member in unit) for unit in self.units
        ]
        self.pred_masks = [0] * len(self.units)
        if constraints is not None:
            for unit_id, unit in enumerate(self.units):
                mask = 0
                unit_set = set(unit)
                for member in unit:
                    for pred in constraints.predecessors(member):
                        if pred not in unit_set:
                            mask |= 1 << pred
                self.pred_masks[unit_id] = mask
        self._expansion_masks = list(
            zip(range(len(self.units)), self.unit_masks, self.pred_masks)
        )
        # The lone member of each single-index unit, else None.
        self._single = [
            unit[0] if len(unit) == 1 else None for unit in self.units
        ]
        self.full_mask = (1 << self.n) - 1
        self._heuristic: Dict[int, float] = {}

    def runtime(self, mask: int) -> float:
        """Weighted total query runtime for a built-set bitmask."""
        return self.engine.runtime_of(mask)

    def unit_cost(
        self, unit_id: int, mask: int, runtime: Optional[float] = None
    ) -> Tuple[float, float]:
        """Objective and elapsed-cost contribution of deploying a unit.

        Deploys the unit's members in chain order starting from built-set
        ``mask``, whose runtime is ``runtime`` when the caller has read
        it; returns ``(objective_delta, total_build_cost)``.
        """
        objective = 0.0
        total_cost = 0.0
        current_mask = mask
        for member in self.units[unit_id]:
            if runtime is None:
                runtime = self.engine.runtime_of(current_mask)
            cost = self.engine.build_cost_in(member, current_mask)
            objective += runtime * cost
            total_cost += cost
            current_mask |= 1 << member
            runtime = None
        return objective, total_cost

    def heuristic(self, mask: int) -> float:
        """Admissible lower bound on the remaining objective.

        A function of the set alone, so it is computed once per set,
        however often the set's g-score improves.
        """
        value = self._heuristic.get(mask)
        if value is None:
            engine = self.engine
            value = engine.suffix_bound(engine.runtime_of(mask), mask)
            self._heuristic[mask] = value
        return value

    def expansions(self, mask: int) -> List[int]:
        """Units deployable from built-set ``mask``, in unit order.

        A unit qualifies when none of its members is built yet and every
        predecessor outside it is.
        """
        return [
            unit_id
            for unit_id, unit_mask, pred_mask in self._expansion_masks
            if not mask & unit_mask and mask & pred_mask == pred_mask
        ]

    def step_cost(self, unit_id: int, mask: int, runtime: float) -> float:
        """Objective contribution of deploying a unit from ``mask``.

        ``runtime`` is ``mask``'s runtime, which the searches read once
        for all of a set's children.  Equal, bit for bit, to
        ``unit_cost(unit_id, mask, runtime)[0]``: a single-index unit
        skips that method's chain loop.
        """
        member = self._single[unit_id]
        if member is None:
            return self.unit_cost(unit_id, mask, runtime)[0]
        return runtime * self.engine.build_cost_in(member, mask)


def _reconstruct(
    lattice: _Lattice, parents: Dict[int, Tuple[int, int]]
) -> List[int]:
    order_units: List[int] = []
    mask = lattice.full_mask
    while mask:
        prev_mask, unit_id = parents[mask]
        order_units.append(unit_id)
        mask = prev_mask
    order: List[int] = []
    for unit_id in reversed(order_units):
        order.extend(lattice.units[unit_id])
    return order


def _timeout(
    name: str, lattice: _Lattice, start: float, nodes: int
) -> SolveResult:
    """A TIMEOUT result carrying the greedy order, computed only now
    that the budget has run out, when it satisfies the constraints."""
    order = greedy_order(lattice.instance, lattice.constraints)
    solution = None
    if lattice.constraints is None or lattice.constraints.check_order(order):
        solution = Solution(tuple(order), lattice.engine.evaluate(order))
    elapsed = time.perf_counter() - start
    return SolveResult(
        solver=name,
        status=SolveStatus.TIMEOUT,
        solution=solution,
        runtime=elapsed,
        nodes=nodes,
        trace=[] if solution is None else [(elapsed, solution.objective)],
    )


@register(
    "subset-dp",
    summary="Held-Karp DP over the built-set lattice (exact, small n)",
    exact=True,
)
class SubsetDPSolver(Solver):
    """Exact DP over all subsets of indexes.

    Intended for ground-truth verification; refuses instances larger
    than ``max_indexes`` (default 18) because the lattice has ``2^n``
    states.
    """

    name = "subset-dp"

    def __init__(self, max_indexes: int = _DEFAULT_MAX_INDEXES) -> None:
        self.max_indexes = max_indexes

    def solve(
        self,
        instance: ProblemInstance,
        constraints: Optional[ConstraintSet] = None,
        budget: Optional[Budget] = None,
    ) -> SolveResult:
        if instance.n_indexes > self.max_indexes:
            raise ValidationError(
                f"subset DP limited to {self.max_indexes} indexes, "
                f"instance has {instance.n_indexes}"
            )
        start = time.perf_counter()
        lattice = _Lattice(instance, constraints, self._engine(instance))
        best: Dict[int, float] = {0: 0.0}
        parents: Dict[int, Tuple[int, int]] = {}
        # Process masks in strictly increasing population count: every
        # expansion adds at least one index, so when a popcount layer is
        # expanded all its states already carry their final values.
        layers: Dict[int, set] = {0: {0}}
        nodes = 0
        for popcount in range(instance.n_indexes):
            masks = layers.pop(popcount, None)
            if not masks:
                continue
            for mask in sorted(masks):
                base = best[mask]
                # Read once, at the first child: a set with none is
                # never looked up.
                runtime = None
                for unit_id in lattice.expansions(mask):
                    nodes += 1
                    if budget is not None and budget.tick():
                        return _timeout(self.name, lattice, start, nodes)
                    if runtime is None:
                        runtime = lattice.runtime(mask)
                    objective_delta = lattice.step_cost(unit_id, mask, runtime)
                    new_mask = mask | lattice.unit_masks[unit_id]
                    candidate = base + objective_delta
                    if candidate < best.get(new_mask, float("inf")) - 1e-15:
                        best[new_mask] = candidate
                        parents[new_mask] = (mask, unit_id)
                        bucket = bin(new_mask).count("1")
                        layers.setdefault(bucket, set()).add(new_mask)
        elapsed = time.perf_counter() - start
        if lattice.full_mask not in best:
            return SolveResult(
                solver=self.name,
                status=SolveStatus.INFEASIBLE,
                solution=None,
                runtime=elapsed,
                nodes=nodes,
            )
        order = _reconstruct(lattice, parents)
        return SolveResult(
            solver=self.name,
            status=SolveStatus.OPTIMAL,
            solution=Solution(tuple(order), best[lattice.full_mask]),
            runtime=elapsed,
            nodes=nodes,
            trace=[(elapsed, best[lattice.full_mask])],
        )


@register(
    "astar",
    summary="A* over the built-set lattice with the engine's density bound",
    exact=True,
)
class AStarSolver(Solver):
    """A* over the subset lattice with an admissible remaining-area bound."""

    name = "astar"

    def solve(
        self,
        instance: ProblemInstance,
        constraints: Optional[ConstraintSet] = None,
        budget: Optional[Budget] = None,
    ) -> SolveResult:
        start = time.perf_counter()
        lattice = _Lattice(instance, constraints, self._engine(instance))
        g_score: Dict[int, float] = {0: 0.0}
        parents: Dict[int, Tuple[int, int]] = {}
        # Entries are (f, mask, h), so the stale-entry test reuses the
        # heuristic computed at push time.
        root_h = lattice.heuristic(0)
        heap: List[Tuple[float, int, float]] = [(root_h, 0, root_h)]
        nodes = 0
        while heap:
            f_value, mask, h_value = heapq.heappop(heap)
            if mask == lattice.full_mask:
                elapsed = time.perf_counter() - start
                order = _reconstruct(lattice, parents)
                return SolveResult(
                    solver=self.name,
                    status=SolveStatus.OPTIMAL,
                    solution=Solution(tuple(order), g_score[mask]),
                    runtime=elapsed,
                    nodes=nodes,
                    trace=[(elapsed, g_score[mask])],
                )
            if f_value > g_score.get(mask, float("inf")) + h_value + 1e-12:
                continue  # stale heap entry
            # Every popped set's runtime is in the memo (its heuristic
            # read it), and every child steps from it.
            runtime = lattice.runtime(mask)
            base = g_score[mask]
            for unit_id in lattice.expansions(mask):
                nodes += 1
                if budget is not None and budget.tick():
                    return _timeout(self.name, lattice, start, nodes)
                objective_delta = lattice.step_cost(unit_id, mask, runtime)
                new_mask = mask | lattice.unit_masks[unit_id]
                tentative = base + objective_delta
                if tentative < g_score.get(new_mask, float("inf")) - 1e-15:
                    g_score[new_mask] = tentative
                    parents[new_mask] = (mask, unit_id)
                    h_new = lattice.heuristic(new_mask)
                    heapq.heappush(heap, (tentative + h_new, new_mask, h_new))
        return SolveResult(
            solver=self.name,
            status=SolveStatus.INFEASIBLE,
            solution=None,
            runtime=time.perf_counter() - start,
            nodes=nodes,
        )
