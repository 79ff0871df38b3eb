"""Interaction-guided greedy initial solution (Section 7.4, Algorithm 1).

At each step the algorithm picks the unbuilt index with the highest
*density*: realized query speed-up plus a share of the still-locked plan
speed-ups it participates in, divided by its current build cost.  The
interaction share is what distinguishes it from a naive benefit-greedy:
an index that unlocks nothing *yet* but is needed by a large multi-index
plan still gets credit proportional to the plan's speed-up divided by
the number of missing indexes.

The greedy is incremental.  It walks one
:class:`~repro.core.engine.DeployState` beside the order it builds, so
a candidate's density reads only the candidate's own plans (their
missing-member counters and each query's best completed speed-up) and
its build helpers: O(|plans containing c|) per candidate instead of a
total-runtime recomputation.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional

from repro.analysis.constraints import ConstraintSet
from repro.core.engine import DeployState, EvalEngine
from repro.core.instance import ProblemInstance
from repro.core.solution import Solution, SolveResult, SolveStatus
from repro.solvers.base import Budget, Solver
from repro.solvers.registry import register

__all__ = ["GreedySolver", "greedy_order"]


def greedy_order(
    instance: ProblemInstance,
    constraints: Optional[ConstraintSet] = None,
) -> List[int]:
    """Run Algorithm 1 and return the resulting order.

    When ``constraints`` are given, an index is eligible once its known
    predecessors are built.  The first member of a consecutive
    (alliance) pair is deployed together with the second, so it also
    waits for the second member's other predecessors (and so on along a
    chain of pairs); the output is feasible whenever the set is.
    """
    n = instance.n_indexes
    state = DeployState(EvalEngine(instance))
    built = state.built
    follower: Dict[int, int] = {}
    required = [0] * n
    if constraints is not None:
        follower = dict(constraints.consecutive_pairs)
        required = [constraints.chain_predecessor_mask(i) for i in range(n)]
    order: List[int] = []
    built_mask = 0
    forced_next: Optional[int] = None
    while len(order) < n:
        if forced_next is not None and not built[forced_next]:
            choice = forced_next
        else:
            unbuilt = [i for i in range(n) if not built[i]]
            eligible = [i for i in unbuilt if not required[i] & ~built_mask]
            # Empty only when no order satisfies the set; then every
            # unbuilt index competes.
            choice = _best_by_density(state, eligible or unbuilt)
        order.append(choice)
        state.deploy((choice,))
        built_mask |= 1 << choice
        forced_next = follower.get(choice)
    return order


def _best_by_density(state: DeployState, eligible: Iterable[int]) -> int:
    """The first ``eligible`` index (ascending) of highest density."""
    tables = state.tables
    plans_of_index = tables.plans_of_index
    plan_query = tables.plan_query
    plan_speedup = tables.plan_speedup
    qweight = tables.qweight
    helpers = tables.helpers
    ctime = tables.ctime
    missing = state.missing
    qbest = state.qbest
    built = state.built
    best_index = -1
    best_density = float("-inf")
    for candidate in eligible:
        plans = plans_of_index[candidate]
        # Realized benefit: the plans the candidate completes raise
        # their queries' best speed-ups.
        raised: Dict[int, float] = {}
        for plan_id in plans:
            if missing[plan_id] == 1:
                query_id = plan_query[plan_id]
                speedup = plan_speedup[plan_id]
                if speedup > raised.get(query_id, qbest[query_id]):
                    raised[query_id] = speedup
        benefit = 0.0
        for query_id, speedup in raised.items():
            benefit += (speedup - qbest[query_id]) * qweight[query_id]
        # Future-opportunity credit: plans containing the candidate that
        # stay locked contribute their *additional* speed-up split
        # across the indexes they still miss (the interaction term).
        for plan_id in plans:
            left = missing[plan_id] - 1
            if left:
                query_id = plan_query[plan_id]
                interaction = (
                    plan_speedup[plan_id] - raised.get(query_id, qbest[query_id])
                ) * qweight[query_id]
                if interaction > 0:
                    benefit += interaction / left
        best_saving = 0.0
        for helper, saving in helpers[candidate]:
            if built[helper] and saving > best_saving:
                best_saving = saving
        cost = ctime[candidate] - best_saving
        density = benefit / cost if cost > 0 else float("inf")
        if density > best_density:
            best_density = density
            best_index = candidate
    return best_index


@register(
    "greedy",
    summary="interaction-guided greedy (Algorithm 1)",
)
class GreedySolver(Solver):
    """Solver wrapper around :func:`greedy_order`."""

    name = "greedy"

    def solve(
        self,
        instance: ProblemInstance,
        constraints: Optional[ConstraintSet] = None,
        budget: Optional[Budget] = None,
    ) -> SolveResult:
        start = time.perf_counter()
        order = greedy_order(instance, constraints)
        if constraints is not None and not constraints.check_order(order):
            # Greedy broke a constraint (the set may be unsatisfiable):
            # return no order rather than label a broken one feasible.
            return SolveResult(
                solver=self.name,
                status=SolveStatus.DID_NOT_FINISH,
                solution=None,
                runtime=time.perf_counter() - start,
                nodes=instance.n_indexes,
            )
        solution = Solution.from_order(instance, order)
        elapsed = time.perf_counter() - start
        return SolveResult(
            solver=self.name,
            status=SolveStatus.FEASIBLE,
            solution=solution,
            runtime=elapsed,
            nodes=instance.n_indexes,
            trace=[(elapsed, solution.objective)],
        )
