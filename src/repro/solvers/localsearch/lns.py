"""Large Neighborhood Search on top of the CP model (Section 7.2).

Each restart relaxes a random subset of the position variables (default
5% of the indexes), fixes everything else at its current position, and
runs a CP branch-and-prune over the relaxed variables with a failure
limit (default 500 backtracks).  A relaxation ends when the CP search
either proves the neighborhood contains no better solution or hits the
failure limit; improvements become the new current solution.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Optional, Tuple

from repro.analysis.constraints import ConstraintSet
from repro.core.instance import ProblemInstance
from repro.core.solution import Solution, SolveResult, SolveStatus
from repro.solvers.base import Budget, Solver
from repro.solvers.cp.search import CPModel, CPSearch
from repro.solvers.localsearch.neighborhood import (
    batch_swap_descent,
    start_order,
)
from repro.solvers.registry import register

__all__ = ["LNSSolver", "relax_step"]


def relax_step(
    model: CPModel,
    order: List[int],
    relax_vars: List[int],
    incumbent: float,
    failure_limit: int,
    budget: Optional[Budget],
) -> Tuple[Optional[List[int]], Optional[float], bool]:
    """Run one LNS relaxation.

    Fixes every variable outside ``relax_vars`` to its position in
    ``order`` and searches the rest.  Returns
    ``(improved_order, improved_objective, proved)`` where ``proved`` is
    True when the CP search exhausted the neighborhood (no better
    solution exists in it).
    """
    relax_set = set(relax_vars)
    fixed: Dict[int, int] = {
        var: position
        for position, var in enumerate(order)
        if var not in relax_set
    }
    search = CPSearch(
        model,
        strategy="first_fail",
        incumbent=incumbent,
        failure_limit=failure_limit,
        budget=budget,
        fixed=fixed,
        delta_base=order,
    )
    outcome = search.run()
    if outcome.best_order is not None:
        return outcome.best_order, outcome.best_objective, outcome.proved
    return None, None, outcome.proved


@register(
    "lns",
    summary="large neighborhood search over CP relaxations (Section 7.2)",
    anytime=True,
    stochastic=True,
    accepts_initial_order=True,
)
class LNSSolver(Solver):
    """Fixed-parameter LNS (the baseline VNS improves upon)."""

    name = "lns"

    def __init__(
        self,
        relax_fraction: float = 0.05,
        failure_limit: int = 500,
        seed: int = 0,
        initial_order: Optional[List[int]] = None,
    ) -> None:
        self.relax_fraction = relax_fraction
        self.failure_limit = failure_limit
        self.seed = seed
        self.initial_order = initial_order
        #: Engine counters of the most recent :meth:`solve` (dict form).
        self.last_engine_stats = None

    def solve(
        self,
        instance: ProblemInstance,
        constraints: Optional[ConstraintSet] = None,
        budget: Optional[Budget] = None,
    ) -> SolveResult:
        start = time.perf_counter()
        if budget is None:
            budget = Budget(time_limit=5.0)
        rng = random.Random(self.seed)
        n = instance.n_indexes
        order = start_order(instance, constraints, self.initial_order)
        # Hall filtering costs O(n^2) per propagation and adds little
        # inside a mostly-fixed neighborhood; forward checking plus
        # precedence propagation carry the relaxation sub-searches.
        model = CPModel(
            instance, constraints, hall=False, engine=self._engine(instance)
        )
        current = model.engine.evaluate(order)
        relax_size = max(2, round(self.relax_fraction * n))
        trace: List[Tuple[float, float]] = [
            (time.perf_counter() - start, current)
        ]
        restarts = 0
        while not budget.exhausted:
            restarts += 1
            relax_vars = rng.sample(range(n), min(relax_size, n))
            improved_order, improved_objective, _ = relax_step(
                model,
                order,
                relax_vars,
                current,
                self.failure_limit,
                budget,
            )
            if improved_order is not None and improved_objective < current - 1e-12:
                # Polish the new incumbent with a batch swap descent.
                order, current = batch_swap_descent(
                    model.engine,
                    improved_order,
                    constraints,
                    budget,
                    improved_objective,
                )
                trace.append((time.perf_counter() - start, current))
        elapsed = time.perf_counter() - start
        self.last_engine_stats = model.engine.stats.as_dict()
        return SolveResult(
            solver=self.name,
            status=SolveStatus.FEASIBLE,
            solution=Solution(tuple(order), current),
            runtime=elapsed,
            nodes=restarts,
            trace=trace,
        )
