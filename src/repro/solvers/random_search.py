"""Random-permutation baseline (Table 7's "Random" columns)."""

from __future__ import annotations

import random
import time
from typing import List, Optional, Tuple

from repro.analysis.constraints import ConstraintSet
from repro.core.instance import ProblemInstance
from repro.core.objective import ObjectiveEvaluator
from repro.core.solution import Solution, SolveResult, SolveStatus
from repro.solvers.base import Budget, Solver, repair_order
from repro.solvers.registry import register

__all__ = ["RandomSolver", "random_statistics"]


def random_statistics(
    instance: ProblemInstance,
    samples: int = 100,
    seed: int = 0,
    constraints: Optional[ConstraintSet] = None,
) -> Tuple[float, float, List[float]]:
    """Objective statistics over random permutations.

    Returns ``(average, minimum, all_objectives)`` for ``samples``
    uniformly random permutations (repaired for consecutive pairs when
    constraints are supplied) — the paper's Random (AVG) / Random (MIN)
    columns.
    """
    rng = random.Random(seed)
    evaluator = ObjectiveEvaluator(instance)
    objectives: List[float] = []
    base = list(range(instance.n_indexes))
    for _ in range(samples):
        order = base[:]
        rng.shuffle(order)
        if constraints is not None:
            order = _repair(order, constraints)
        objectives.append(evaluator.evaluate(order))
    average = sum(objectives) / len(objectives)
    return average, min(objectives), objectives


def _repair(order: List[int], constraints: ConstraintSet) -> List[int]:
    """Stable-sort the random order into constraint feasibility."""
    return repair_order(order, constraints)


@register(
    "random",
    summary="uniform random permutation sampling baseline",
    stochastic=True,
)
class RandomSolver(Solver):
    """Best-of-N random permutations under a budget."""

    name = "random"

    def __init__(self, samples: int = 100, seed: int = 0) -> None:
        self.samples = samples
        self.seed = seed

    def solve(
        self,
        instance: ProblemInstance,
        constraints: Optional[ConstraintSet] = None,
        budget: Optional[Budget] = None,
    ) -> SolveResult:
        start = time.perf_counter()
        rng = random.Random(self.seed)
        evaluator = ObjectiveEvaluator(instance)
        base = list(range(instance.n_indexes))
        best_order: Optional[List[int]] = None
        best_objective = float("inf")
        trace = []
        samples = 0
        exhausted = budget is not None and budget.exhausted
        while samples < self.samples and not exhausted:
            order = base[:]
            rng.shuffle(order)
            if constraints is not None:
                order = _repair(order, constraints)
            objective = evaluator.evaluate(order)
            samples += 1
            exhausted = budget is not None and budget.tick()
            if objective < best_objective:
                best_objective = objective
                best_order = order
                trace.append((time.perf_counter() - start, objective))
        elapsed = time.perf_counter() - start
        if best_order is None:
            return SolveResult(
                solver=self.name,
                status=SolveStatus.DID_NOT_FINISH,
                solution=None,
                runtime=elapsed,
                nodes=samples,
            )
        return SolveResult(
            solver=self.name,
            status=SolveStatus.FEASIBLE,
            solution=Solution(tuple(best_order), best_objective),
            runtime=elapsed,
            nodes=samples,
            trace=trace,
        )
