"""Tabu Search over pairwise swaps (Section 7.1).

Two variants, exactly as the paper evaluates them:

* **TS-BSwap** — each iteration evaluates *every* feasible swap outside
  the tabu list and applies the best one (better quality, quadratic
  per-iteration cost: the paper measures ~50 minutes per iteration on
  TPC-DS),
* **TS-FSwap** — applies the *first improving* swap found, falling back
  to the best non-tabu move when no improving swap exists (scales
  better, weaker moves).

Recently swapped indexes are placed in probation for
:data:`TABU_LENGTH` iterations; an aspiration criterion admits tabu
moves that improve the global best.

How an iteration charges its budget depends on the instance size alone.
From :data:`WHOLE_SCAN_MIN_N` indexes it charges the whole scan at once
and picks its move by array argmin over one ``eval_all_swaps`` matrix.
Below that a node is one evaluated feasible move: FSwap stops at the
first improving move, and a scan stops part-way when the budget runs
out.  The move objectives come from the engine's kernel
(:func:`repro.core.batch.resolve_kernel`): one numpy matrix per
iteration, or one :meth:`~repro.core.engine.EvalEngine.eval_swap` per
move, which replays only the move's divergence window.

``SolveResult.nodes`` is the number of nodes charged to the budget.
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.analysis.constraints import ConstraintSet
from repro.core.engine import EvalEngine
from repro.core.instance import ProblemInstance
from repro.core.solution import Solution, SolveResult, SolveStatus
from repro.solvers.base import Budget, Solver
from repro.solvers.localsearch.neighborhood import (
    apply_swap,
    start_order,
    swap_feasible,
)
from repro.solvers.registry import register_factory

__all__ = ["TabuSolver"]

#: Iterations a swapped index stays tabu.
TABU_LENGTH = 8

#: From this many indexes an iteration charges its whole swap scan;
#: below it, one node per evaluated feasible move.
WHOLE_SCAN_MIN_N = 48


class TabuSolver(Solver):
    """Tabu search; ``variant`` is ``"best"`` (BSwap) or ``"first"`` (FSwap)."""

    def __init__(
        self,
        variant: str = "best",
        initial_order: Optional[List[int]] = None,
    ) -> None:
        if variant not in ("best", "first"):
            raise ValueError(f"unknown tabu variant {variant!r}")
        self.variant = variant
        self.initial_order = initial_order
        self.name = "ts-bswap" if variant == "best" else "ts-fswap"
        #: Engine counters of the most recent :meth:`solve` (dict form);
        #: the Figure-11/12 harness reports these.
        self.last_engine_stats: Optional[Dict[str, int]] = None

    def solve(
        self,
        instance: ProblemInstance,
        constraints: Optional[ConstraintSet] = None,
        budget: Optional[Budget] = None,
    ) -> SolveResult:
        start = time.perf_counter()
        if budget is None:
            budget = Budget(time_limit=5.0)
        charged = budget.nodes
        order = start_order(instance, constraints, self.initial_order)
        engine = self._engine(instance)
        current = engine.set_base(order)
        best_order = list(order)
        best_objective = current
        trace: List[Tuple[float, float]] = [
            (time.perf_counter() - start, best_objective)
        ]
        tabu_until: Dict[int, int] = {}
        iteration = 0
        while not budget.exhausted:
            iteration += 1
            move = self._pick_move(
                order,
                engine,
                current,
                best_objective,
                tabu_until,
                iteration,
                constraints,
                budget,
            )
            if move is None:
                break  # neighborhood exhausted
            pos_a, pos_b, objective = move
            x, y = order[pos_a], order[pos_b]
            order = apply_swap(order, pos_a, pos_b)
            current = engine.set_base(order)
            tabu_until[x] = iteration + TABU_LENGTH
            tabu_until[y] = iteration + TABU_LENGTH
            if objective < best_objective - 1e-12:
                best_objective = objective
                best_order = list(order)
                trace.append((time.perf_counter() - start, best_objective))
        elapsed = time.perf_counter() - start
        self.last_engine_stats = engine.stats.as_dict()
        return SolveResult(
            solver=self.name,
            status=SolveStatus.FEASIBLE,
            solution=Solution(tuple(best_order), best_objective),
            runtime=elapsed,
            nodes=budget.nodes - charged,
            trace=trace,
        )

    # ------------------------------------------------------------------
    def _pick_move(
        self,
        order: List[int],
        engine: EvalEngine,
        current: float,
        best_objective: float,
        tabu_until: Dict[int, int],
        iteration: int,
        constraints: Optional[ConstraintSet],
        budget: Budget,
    ) -> Optional[Tuple[int, int, float]]:
        if len(order) >= WHOLE_SCAN_MIN_N:
            return self._pick_move_batch(
                order,
                engine,
                current,
                best_objective,
                tabu_until,
                iteration,
                constraints,
                budget,
            )
        # One node per evaluated feasible move; FSwap returns the first
        # improving one, and the scan stops where the budget runs out.
        best_move: Optional[Tuple[int, int, float]] = None
        for move in _feasible_moves(order, engine, constraints):
            exhausted = budget.tick()
            pos_a, pos_b, objective = move
            tabu = (
                tabu_until.get(order[pos_a], 0) >= iteration
                or tabu_until.get(order[pos_b], 0) >= iteration
            )
            # Aspiration: tabu moves pass only on a global improvement.
            if not tabu or objective < best_objective - 1e-12:
                if self.variant == "first" and objective < current - 1e-12:
                    return move
                if best_move is None or objective < best_move[2] - 1e-12:
                    best_move = move
            if exhausted:
                break
        return best_move

    def _pick_move_batch(
        self,
        order: List[int],
        engine: EvalEngine,
        current: float,
        best_objective: float,
        tabu_until: Dict[int, int],
        iteration: int,
        constraints: Optional[ConstraintSet],
        budget: Budget,
    ) -> Optional[Tuple[int, int, float]]:
        """The whole-scan pick: one kernel call scores every move, the
        budget is charged for every feasible one, and only the chosen
        move is ever materialized as an order."""
        n = len(order)
        objectives, feasible = engine.eval_all_swaps(constraints)
        tabu = np.array(
            [tabu_until.get(ix, 0) >= iteration for ix in order], dtype=bool
        )
        upper = np.triu(np.ones((n, n), dtype=bool), 1)
        allowed = np.asarray(feasible) & upper
        budget.tick(int(allowed.sum()))
        # Aspiration: tabu moves pass only on a global improvement.
        tabu_pair = tabu[:, None] | tabu[None, :]
        allowed &= ~tabu_pair | (objectives < best_objective - 1e-12)
        if not allowed.any():
            return None
        if self.variant == "first":
            improving = allowed & (objectives < current - 1e-12)
            if improving.any():
                pos_a, pos_b = np.argwhere(improving)[0]
                return (int(pos_a), int(pos_b), float(objectives[pos_a, pos_b]))
        masked = np.where(allowed, objectives, np.inf)
        flat_best = int(np.argmin(masked))
        pos_a, pos_b = divmod(flat_best, n)
        return (pos_a, pos_b, float(objectives[pos_a, pos_b]))


def _feasible_moves(
    order: List[int], engine: EvalEngine, constraints: Optional[ConstraintSet]
) -> Iterator[Tuple[int, int, float]]:
    """``(pos_a, pos_b, objective)`` of each feasible swap, row-major.

    With the numpy kernel every objective comes from one
    ``eval_all_swaps`` matrix; otherwise each is one ``eval_swap``,
    evaluated only when the caller asks for the next move.
    """
    if engine.batch_kernel() == "numpy":
        objectives, feasible = engine.eval_all_swaps(constraints)
        rows, cols = np.nonzero(np.triu(feasible, 1))
        values = objectives[rows, cols]
        yield from zip(rows.tolist(), cols.tolist(), values.tolist())
        return
    n = len(order)
    for pos_a in range(n - 1):
        for pos_b in range(pos_a + 1, n):
            if swap_feasible(order, pos_a, pos_b, constraints):
                yield pos_a, pos_b, engine.eval_swap(pos_a, pos_b)


register_factory(
    "ts-bswap",
    lambda **kwargs: TabuSolver(variant="best", **kwargs),
    summary="tabu search, best-swap scan (Section 7.1)",
    anytime=True,
    accepts_initial_order=True,
)
register_factory(
    "ts-fswap",
    lambda **kwargs: TabuSolver(variant="first", **kwargs),
    summary="tabu search, first-improving swap (Section 7.1)",
    anytime=True,
    accepts_initial_order=True,
)
