"""The exact depth-first search: branch-and-bound over permutations.

Builds the deployment sequence position by position on one engine
:class:`PrefixCursor`.  A partial prefix has an exact objective; the
engine's density-relaxation suffix bound gives an admissible lower
bound for pruning against the incumbent.  Without pruning this is the
factorial search the paper uses as its reference point ("runtime of CP
without pruning is roughly proportional to |I|!").

Two engine-backed prunes are applied on top of the incumbent bound:

* the shared density suffix bound (:meth:`EvalEngine.suffix_bound`),
* a transposition table over built-set bitmasks — the suffix cost of a
  prefix depends only on its built *set*, so any prefix reaching an
  already-seen set at an equal-or-worse objective is dominated and cut,
  which collapses the factorial permutation tree toward the ``2^n``
  subset lattice.

Candidates branch in CP's static density order (:func:`branching_order`).
Precedence constraints restrict which index may be placed next;
consecutive (alliance) pairs force the glued successor immediately.
:class:`ExhaustiveSolver` and ``CPSolver(strategy="sequential")`` both
run this one search (:func:`dfs_solve`).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from repro.analysis.constraints import ConstraintSet
from repro.core.engine import EvalEngine, PrefixCursor
from repro.core.instance import ProblemInstance
from repro.core.solution import Solution, SolveResult, SolveStatus
from repro.solvers.base import Budget, Solver
from repro.solvers.greedy import greedy_order
from repro.solvers.registry import register

__all__ = ["ExhaustiveSolver", "branching_order", "dfs_solve", "exact_result"]


@register(
    "exhaustive",
    summary="DFS branch-and-bound over permutations (exact)",
    exact=True,
)
class ExhaustiveSolver(Solver):
    """Exact DFS branch-and-bound over index permutations.

    The greedy order is the first incumbent when it satisfies the
    constraints.

    Args:
        use_bound: Prune with the engine's density-relaxation suffix
            bound.
    """

    name = "exhaustive"

    def __init__(self, use_bound: bool = True) -> None:
        self.use_bound = use_bound
        #: Engine counters of the most recent :meth:`solve` (dict form).
        self.last_engine_stats = None

    def solve(
        self,
        instance: ProblemInstance,
        constraints: Optional[ConstraintSet] = None,
        budget: Optional[Budget] = None,
    ) -> SolveResult:
        started = time.perf_counter()
        engine = self._engine(instance)
        result = dfs_solve(
            self.name,
            instance,
            constraints,
            budget,
            engine,
            greedy_order(instance, constraints),
            started,
            self.use_bound,
        )
        self.last_engine_stats = engine.stats.as_dict()
        return result


def branching_order(instance: ProblemInstance) -> List[int]:
    """Static branching order: denser indexes branch first.

    An index's density is its plans' weighted speed-up, split evenly
    over each plan's members, per unit of its cheapest build; ties
    break by index id.
    """
    densities = []
    for index in instance.indexes:
        benefit = 0.0
        for plan_id in instance.plans_containing(index.index_id):
            plan = instance.plans[plan_id]
            weight = instance.queries[plan.query_id].weight
            benefit += plan.speedup * weight / len(plan.indexes)
        cost = max(instance.min_build_cost(index.index_id), 1e-9)
        densities.append((-benefit / cost, index.index_id))
    return [index_id for _, index_id in sorted(densities)]


def dfs_solve(
    name: str,
    instance: ProblemInstance,
    constraints: Optional[ConstraintSet],
    budget: Optional[Budget],
    engine: EvalEngine,
    start_order: Optional[Sequence[int]],
    started: float,
    use_bound: bool = True,
) -> SolveResult:
    """Run the exact DFS on ``engine`` and report it as solver ``name``.

    ``start_order`` (if it satisfies ``constraints``) is the first
    incumbent and the first trace point.  ``started`` is the caller's
    ``time.perf_counter()`` at the start of its solve, so the trace and
    the runtime include the caller's set-up.
    """
    search = _DFSState(instance, constraints, budget, use_bound, engine, started)
    if start_order is not None:
        search.offer(list(start_order), None)
    search.run()
    return exact_result(name, search, started)


def exact_result(name: str, search, started: float) -> SolveResult:
    """The :class:`SolveResult` of a finished exact search.

    ``search`` carries ``best_order``, ``best_objective``, ``nodes``,
    ``interrupted`` and ``trace``.  A search that ran to completion
    proves its incumbent optimal, or the constraints infeasible when it
    has none.
    """
    solution = None
    status = SolveStatus.INFEASIBLE
    if search.best_order is not None:
        solution = Solution(tuple(search.best_order), search.best_objective)
        status = SolveStatus.OPTIMAL
    return SolveResult(
        solver=name,
        status=SolveStatus.TIMEOUT if search.interrupted else status,
        solution=solution,
        runtime=time.perf_counter() - started,
        nodes=search.nodes,
        trace=search.trace,
    )


class _DFSState:
    """DFS machinery over one :class:`PrefixCursor` of the engine."""

    def __init__(
        self,
        instance: ProblemInstance,
        constraints: Optional[ConstraintSet],
        budget: Optional[Budget],
        use_bound: bool,
        engine: EvalEngine,
        started: float,
    ) -> None:
        self.constraints = constraints
        self.budget = budget
        self.use_bound = use_bound
        self.engine = engine
        self.n = instance.n_indexes
        self.order = branching_order(instance)
        self.transpositions = engine.new_transposition_table()
        # Index i is a candidate once required[i] is built: its known
        # predecessors, and for the first member of a consecutive pair
        # also those of the members glued after it.
        self.consecutive_after: Dict[int, int] = {}
        self.required = [0] * self.n
        if constraints is not None:
            self.consecutive_after = dict(constraints.consecutive_pairs)
            self.required = [
                constraints.chain_predecessor_mask(i) for i in range(self.n)
            ]
        # Search state: the cursor's undo records restore the exact
        # prior floats, so drift-free prefix objectives feed the
        # transposition-table dominance check.
        self.cursor = PrefixCursor(engine)
        self.built_mask = 0
        self.full_mask = (1 << self.n) - 1
        self.best_order: Optional[List[int]] = None
        self.best_objective = float("inf")
        self.nodes = 0
        self.interrupted = False
        self.trace: List[tuple] = []
        self.started = started

    # ------------------------------------------------------------------
    def run(self) -> None:
        self._dfs(None)

    def offer(self, order: List[int], objective: Optional[float]) -> None:
        """Make ``order`` the incumbent if it satisfies the constraints.

        On an unsatisfiable set of consecutive pairs the caller's start
        order breaks them, and so can a leaf, because the forced
        followers keep one partner per index; the check keeps such an
        order from being reported, let alone proved optimal.
        """
        if self.constraints is not None and not self.constraints.check_order(
            order
        ):
            return
        if objective is None:
            objective = self.engine.evaluate(order)
        self.best_objective = objective
        self.best_order = order
        self.trace.append((time.perf_counter() - self.started, objective))

    def _candidates(self, last: Optional[int]) -> List[int]:
        built = self.cursor.built
        forced = self.consecutive_after.get(last)
        if forced is not None and not built[forced]:
            return [forced]
        waiting = ~self.built_mask
        required = self.required
        return [
            i for i in self.order if not built[i] and not required[i] & waiting
        ]

    def _dfs(self, last: Optional[int]) -> None:
        if self.interrupted:
            return
        self.nodes += 1
        if self.budget is not None:
            self.budget.tick()
            if self.budget.exhausted:
                self.interrupted = True
                return
        cursor = self.cursor
        objective = cursor.objective
        if self.built_mask == self.full_mask:
            if objective < self.best_objective:
                self.offer(list(cursor.stack), objective)
            return
        # Built-set dominance: the same set reached before at an
        # equal-or-better objective completes at least as cheaply.  The
        # candidate set is a function of the built-set alone (a pending
        # alliance forces an identical last element for every prefix
        # sharing the mask), so the prune is exact.
        if self.transpositions.dominated(self.built_mask, objective):
            return
        if self.use_bound:
            bound = objective + self.engine.suffix_bound(
                cursor.runtime, self.built_mask
            )
            if bound >= self.best_objective - 1e-12:
                return
        for candidate in self._candidates(last):
            cursor.push(candidate)
            self.built_mask |= 1 << candidate
            self._dfs(candidate)
            cursor.pop()
            self.built_mask &= ~(1 << candidate)
            if self.interrupted:
                return
