"""Exhaustive depth-first search with branch-and-bound pruning.

Builds the deployment sequence position by position.  A partial prefix
has an exact objective; the engine's density-relaxation suffix bound
gives an admissible lower bound for pruning against the incumbent.
With no incumbent pruning this degenerates to the factorial search the
paper uses as its reference point ("runtime of CP without pruning is
roughly proportional to |I|!").

Two engine-backed prunes are applied on top of the incumbent bound:

* the shared density suffix bound (:meth:`EvalEngine.suffix_bound`),
* a transposition table over built-set bitmasks — the suffix cost of a
  prefix depends only on its built *set*, so any prefix reaching an
  already-seen set at an equal-or-worse objective is dominated and cut,
  which collapses the factorial permutation tree toward the ``2^n``
  subset lattice.

Precedence constraints restrict which index may be placed next;
consecutive (alliance) pairs force the glued successor immediately.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.analysis.constraints import ConstraintSet
from repro.core.engine import EvalEngine, PrefixCursor
from repro.core.instance import ProblemInstance
from repro.core.solution import Solution, SolveResult, SolveStatus
from repro.solvers.base import Budget, Solver
from repro.solvers.greedy import greedy_order
from repro.solvers.registry import register

__all__ = ["ExhaustiveSolver"]


@register(
    "exhaustive",
    summary="DFS branch-and-bound over permutations (exact)",
    exact=True,
)
class ExhaustiveSolver(Solver):
    """Exact DFS branch-and-bound over index permutations.

    Args:
        use_bound: Prune with the engine's density-relaxation suffix
            bound.
        seed_incumbent: Start from the greedy solution's objective so
            pruning bites from the first node.
        use_transposition: Prune prefixes that reach an already-seen
            built-set at an equal-or-worse objective.
    """

    name = "exhaustive"

    def __init__(
        self,
        use_bound: bool = True,
        seed_incumbent: bool = True,
        use_transposition: bool = True,
    ) -> None:
        self.use_bound = use_bound
        self.seed_incumbent = seed_incumbent
        self.use_transposition = use_transposition
        #: Engine counters of the most recent :meth:`solve` (dict form).
        self.last_engine_stats = None

    def solve(
        self,
        instance: ProblemInstance,
        constraints: Optional[ConstraintSet] = None,
        budget: Optional[Budget] = None,
    ) -> SolveResult:
        start = time.perf_counter()
        engine = self._engine(instance)
        search = _DFSState(
            instance,
            constraints,
            budget,
            self.use_bound,
            engine,
            self.use_transposition,
        )
        if self.seed_incumbent:
            initial = greedy_order(instance, constraints)
            search.best_objective = engine.evaluate(initial)
            search.best_order = list(initial)
        search.run()
        elapsed = time.perf_counter() - start
        self.last_engine_stats = engine.stats.as_dict()
        if search.best_order is None:
            status = (
                SolveStatus.TIMEOUT if search.interrupted else SolveStatus.INFEASIBLE
            )
            return SolveResult(
                solver=self.name,
                status=status,
                solution=None,
                runtime=elapsed,
                nodes=search.nodes,
            )
        status = (
            SolveStatus.TIMEOUT if search.interrupted else SolveStatus.OPTIMAL
        )
        return SolveResult(
            solver=self.name,
            status=status,
            solution=Solution(tuple(search.best_order), search.best_objective),
            runtime=elapsed,
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
        use_transposition: bool = True,
    ) -> None:
        self.budget = budget
        self.use_bound = use_bound
        self.engine = engine
        self.n = instance.n_indexes
        self.transpositions = (
            engine.new_transposition_table() if use_transposition else None
        )
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
        self._start = time.perf_counter()

    # ------------------------------------------------------------------
    def run(self) -> None:
        self._dfs(None)

    def _candidates(self, last: Optional[int]) -> List[int]:
        built = self.cursor.built
        forced = self.consecutive_after.get(last)
        if forced is not None and not built[forced]:
            return [forced]
        waiting = ~self.built_mask
        required = self.required
        return [
            i
            for i in range(self.n)
            if not built[i] and not required[i] & waiting
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
                self.best_objective = objective
                self.best_order = list(cursor.stack)
                self.trace.append(
                    (time.perf_counter() - self._start, objective)
                )
            return
        # Built-set dominance: the same set reached before at an
        # equal-or-better objective completes at least as cheaply.  The
        # candidate set is a function of the built-set alone (a pending
        # alliance forces an identical last element for every prefix
        # sharing the mask), so the prune is exact.
        if self.transpositions is not None and self.transpositions.dominated(
            self.built_mask, objective
        ):
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
