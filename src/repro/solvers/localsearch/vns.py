"""Variable Neighborhood Search (Section 7.3) — the paper's best method.

VNS fixes LNS's parameter-tuning problem (Figure 10) by adapting both
knobs online.  Each restart runs one LNS relaxation
(:func:`~repro.solvers.localsearch.lns.relax_step`) around the
incumbent, on one exact-DFS state
(:class:`~repro.solvers.exhaustive.DFSState`) set up per solve.  Every
new incumbent is polished by a best-improvement swap descent
(:func:`~repro.solvers.localsearch.neighborhood.batch_swap_descent`);
that polish is this repo's deviation from Section 7.3, whose VNS has
none.  The trace gets a point, and ``on_improvement`` fires, at every
improving relaxation and every improving descent pass.  Relaxations
are processed in groups of ``group_size`` (20); after each group:

* if more than :data:`PROOF_THRESHOLD` (75%) of the group's relaxations
  ended with an exhaustion *proof*, the search is stuck in a local
  minimum that is smaller than the neighborhood — grow the relaxation
  size by :data:`RELAX_GROWTH_FRACTION` (1%) of the indexes;
* otherwise the neighborhood is under-explored — grow the failure limit
  by :data:`FAILURE_GROWTH` (20%).

The paper fixes these three values, so they are module constants.

The paper's fixed-parameter LNS (Section 7.2) is the same loop with
adaptation off: :class:`LNSSolver` never completes a group.
"""

from __future__ import annotations

import math
import random
import time
from typing import List, Optional, Tuple

from repro.analysis.constraints import ConstraintSet
from repro.core.instance import ProblemInstance
from repro.core.solution import Solution, SolveResult, SolveStatus
from repro.solvers.base import Budget, Solver
from repro.solvers.exhaustive import DFSState
from repro.solvers.localsearch.lns import relax_step
from repro.solvers.localsearch.neighborhood import (
    batch_swap_descent,
    start_order,
)
from repro.solvers.registry import register

__all__ = ["LNSSolver", "VNSSolver"]

#: Share of a group's relaxations that must end in a proof to widen.
PROOF_THRESHOLD = 0.75
#: Relaxation growth per widening, as a share of the indexes.
RELAX_GROWTH_FRACTION = 0.01
#: Relative failure-limit growth when a group is under-explored.
FAILURE_GROWTH = 0.20


@register(
    "vns",
    summary="variable neighborhood search, adaptive LNS (Section 7.3)",
    anytime=True,
    stochastic=True,
    accepts_initial_order=True,
)
class VNSSolver(Solver):
    """Adaptive LNS following the paper's Section 7.3 policy."""

    name = "vns"

    def __init__(
        self,
        initial_relax_fraction: float = 0.05,
        initial_failure_limit: int = 100,
        group_size: int = 20,
        seed: int = 0,
        initial_order: Optional[List[int]] = None,
        on_improvement=None,
    ) -> None:
        self.initial_relax_fraction = initial_relax_fraction
        self.initial_failure_limit = initial_failure_limit
        self.group_size = group_size
        self.seed = seed
        self.initial_order = initial_order
        #: Optional callback ``(elapsed_seconds, order)`` fired on every
        #: incumbent improvement (used by the Figure-13 decomposition).
        self.on_improvement = on_improvement
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
        engine = self._engine(instance)
        search = DFSState(instance, constraints, engine)
        current = engine.evaluate(order)
        relax_size = max(2, round(self.initial_relax_fraction * n))
        failure_limit = self.initial_failure_limit
        trace: List[Tuple[float, float]] = [
            (time.perf_counter() - start, current)
        ]

        def improved(new_order: List[int], objective: float) -> None:
            elapsed_now = time.perf_counter() - start
            trace.append((elapsed_now, objective))
            if self.on_improvement is not None:
                self.on_improvement(elapsed_now, list(new_order))

        restarts = 0
        proofs_in_group = 0
        group_count = 0
        while not budget.exhausted:
            restarts += 1
            relax_vars = rng.sample(range(n), min(relax_size, n))
            improved_order, improved_objective, proved = relax_step(
                search, order, relax_vars, current, failure_limit, budget
            )
            if (
                improved_order is not None
                and improved_objective < current - 1e-12
            ):
                improved(improved_order, improved_objective)
                # Polish the new incumbent with a batch swap descent —
                # one whole-neighborhood kernel scan per pass, a trace
                # point per improving pass.
                order, current = batch_swap_descent(
                    engine,
                    improved_order,
                    constraints,
                    budget,
                    improved_objective,
                    improved,
                )
            group_count += 1
            if proved:
                proofs_in_group += 1
            if group_count >= self.group_size:
                if proofs_in_group > PROOF_THRESHOLD * group_count:
                    # Stuck in a local minimum: widen the neighborhood.
                    growth = max(1, round(RELAX_GROWTH_FRACTION * n))
                    relax_size = min(n, relax_size + growth)
                else:
                    # Under-explored: search the same size neighborhood
                    # more thoroughly.
                    failure_limit = int(
                        failure_limit * (1.0 + FAILURE_GROWTH)
                    ) + 1
                group_count = 0
                proofs_in_group = 0
        elapsed = time.perf_counter() - start
        self.last_engine_stats = engine.stats.as_dict()
        return SolveResult(
            solver=self.name,
            status=SolveStatus.FEASIBLE,
            solution=Solution(tuple(order), current),
            runtime=elapsed,
            nodes=restarts,
            trace=trace,
        )


@register(
    "lns",
    summary="large neighborhood search over CP relaxations (Section 7.2)",
    anytime=True,
    stochastic=True,
    accepts_initial_order=True,
)
class LNSSolver(VNSSolver):
    """Fixed-parameter LNS (the baseline VNS improves upon).

    Relaxes ``relax_fraction`` of the indexes per restart, each with a
    ``failure_limit`` backtrack cap, and never adapts either knob.
    """

    name = "lns"

    def __init__(
        self,
        relax_fraction: float = 0.05,
        failure_limit: int = 500,
        seed: int = 0,
        initial_order: Optional[List[int]] = None,
    ) -> None:
        super().__init__(
            initial_relax_fraction=relax_fraction,
            initial_failure_limit=failure_limit,
            group_size=math.inf,  # no group completes, so nothing adapts
            seed=seed,
            initial_order=initial_order,
        )
