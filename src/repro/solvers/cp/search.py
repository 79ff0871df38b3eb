"""Branch-and-prune search for the CP model (Section 6.2).

The searcher assigns position variables depth-first with a pluggable
branching strategy:

* ``"first_fail"`` — dynamic variable ordering by smallest domain (the
  paper's FF heuristic; the Section-5 constraints skew domain sizes,
  which is exactly what makes FF effective here),
* ``"sequential"`` — fill deployment positions left to right, which
  keeps an exact prefix objective available and enables the
  branch-and-bound style pruning the exhaustive solver uses.

An incumbent objective is maintained; complete assignments are evaluated
exactly, and (for sequential search) partial assignments are pruned with
the admissible remaining-area bound.  The searcher also powers LNS/VNS
through ``fixed`` variable assignments and a failure limit.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.constraints import ConstraintSet
from repro.core.engine import EvalEngine
from repro.core.instance import ProblemInstance
from repro.core.solution import Solution, SolveResult, SolveStatus
from repro.solvers.base import Budget, Solver
from repro.solvers.cp.domains import Conflict, DomainStore
from repro.solvers.cp.propagators import (
    AllDifferent,
    Consecutive,
    Precedence,
    PropagationEngine,
)
from repro.solvers.registry import register

__all__ = ["CPModel", "CPSearch", "CPSolver", "SearchOutcome"]


class CPModel:
    """The CP formulation of one ordering instance (Section 6.1)."""

    def __init__(
        self,
        instance: ProblemInstance,
        constraints: Optional[ConstraintSet] = None,
        hall: bool = True,
        engine: Optional[EvalEngine] = None,
    ) -> None:
        self.instance = instance
        self.constraints = constraints
        self.n = instance.n_indexes
        self.hall = hall
        if engine is not None and engine.instance is not instance:
            engine = None  # a foreign engine's caches would be wrong
        self._engine: Optional[EvalEngine] = engine

    @property
    def engine(self) -> EvalEngine:
        """Shared evaluation backend for every search over this model.

        LNS/VNS run thousands of :class:`CPSearch` instances against one
        model; sharing the engine lets them reuse the built-set memo and
        the delta-evaluation base across relaxations.
        """
        if self._engine is None:
            self._engine = EvalEngine(self.instance)
        return self._engine

    def create_store(self) -> DomainStore:
        """Fresh domain store with constraint-derived initial bounds."""
        store = DomainStore(self.n)
        if self.constraints is not None:
            for var in range(self.n):
                lo, hi = self.constraints.position_bounds(var)
                # Convert 1-based inclusive bounds to a 0-based mask.
                mask = 0
                for value in range(lo - 1, hi):
                    mask |= 1 << value
                store.set_mask(var, mask)
        return store

    def create_engine(self) -> PropagationEngine:
        """Propagators for alldifferent, precedences, and alliances."""
        propagators = [
            AllDifferent(list(range(self.n)), hall=self.hall)
        ]
        if self.constraints is not None:
            edges = sorted(self.constraints.precedence_edges)
            if edges:
                propagators.append(Precedence(edges))
            pairs = self.constraints.consecutive_pairs
            if pairs:
                propagators.append(Consecutive(pairs))
        return PropagationEngine(propagators)


class SearchOutcome:
    """Result of one :class:`CPSearch` run (used directly by LNS/VNS)."""

    def __init__(self) -> None:
        self.best_order: Optional[List[int]] = None
        self.best_objective = float("inf")
        self.nodes = 0
        self.failures = 0
        self.proved = False
        self.interrupted = False
        self.trace: List[Tuple[float, float]] = []


class CPSearch:
    """One depth-first branch-and-prune run over a CP model."""

    def __init__(
        self,
        model: CPModel,
        strategy: str = "first_fail",
        incumbent: Optional[float] = None,
        failure_limit: Optional[int] = None,
        budget: Optional[Budget] = None,
        fixed: Optional[Dict[int, int]] = None,
        delta_base: Optional[Sequence[int]] = None,
    ) -> None:
        if strategy not in ("first_fail", "sequential"):
            raise ValueError(f"unknown strategy {strategy!r}")
        self.model = model
        self.strategy = strategy
        self.failure_limit = failure_limit
        self.budget = budget
        self.fixed = dict(fixed) if fixed else {}
        self.engine = model.engine
        self.outcome = SearchOutcome()
        if incumbent is not None:
            self.outcome.best_objective = incumbent
        # When the caller searches a neighborhood of a known order (the
        # LNS/VNS relaxations), leaves are delta-evaluated against it —
        # only each candidate's divergence window is replayed.
        self._use_delta = delta_base is not None
        if delta_base is not None:
            self.engine.set_base(delta_base)
        self._density_rank = self._compute_density_ranks(model.instance)
        self._start = time.perf_counter()

    @staticmethod
    def _compute_density_ranks(instance: ProblemInstance) -> List[int]:
        """Static value-ordering heuristic: denser indexes branch first."""
        densities = []
        for index in instance.indexes:
            benefit = 0.0
            for plan_id in instance.plans_containing(index.index_id):
                plan = instance.plans[plan_id]
                weight = instance.queries[plan.query_id].weight
                share = plan.speedup * weight / len(plan.indexes)
                benefit += share
            cost = max(instance.min_build_cost(index.index_id), 1e-9)
            densities.append((-benefit / cost, index.index_id))
        ranks = [0] * instance.n_indexes
        for rank, (_, index_id) in enumerate(sorted(densities)):
            ranks[index_id] = rank
        return ranks

    def run(self) -> SearchOutcome:
        """Execute the search; the outcome reports proof vs. interruption."""
        store = self.model.create_store()
        engine = self.model.create_engine()
        try:
            for var, value in self.fixed.items():
                store.assign(var, value)
            engine.propagate(store)
        except Conflict:
            # The root is a node too: charge it, so a run of root
            # conflicts still exhausts a node budget.
            self.outcome.nodes += 1
            if self.budget is not None:
                self.budget.tick()
            self.outcome.proved = True
            return self.outcome
        self._dfs(store, engine)
        if not self.outcome.interrupted:
            self.outcome.proved = True
        return self.outcome

    # ------------------------------------------------------------------
    def _dfs(self, store: DomainStore, engine: PropagationEngine) -> None:
        if self._should_stop():
            return
        self.outcome.nodes += 1
        if self.budget is not None:
            self.budget.tick()
        if store.all_assigned():
            self._record_leaf(store)
            return
        if not self._bound_admits(store):
            self.outcome.failures += 1
            return
        for var, value in self._branch_decisions(store):
            if self._should_stop():
                return
            store.push_level()
            try:
                store.assign(var, value)
                engine.propagate(store)
            except Conflict:
                self.outcome.failures += 1
                store.pop_level()
                continue
            self._dfs(store, engine)
            store.pop_level()

    def _should_stop(self) -> bool:
        if self.outcome.interrupted:
            return True
        if self.budget is not None and self.budget.exhausted:
            self.outcome.interrupted = True
            return True
        if (
            self.failure_limit is not None
            and self.outcome.failures > self.failure_limit
        ):
            self.outcome.interrupted = True
            return True
        return False

    def _record_leaf(self, store: DomainStore) -> None:
        positions = store.assignment()
        order = [0] * self.model.n
        for var, position in enumerate(positions):
            order[position] = var
        if self._use_delta:
            objective = self.engine.evaluate_neighbor(order)
        else:
            objective = self.engine.evaluate(order)
        if objective < self.outcome.best_objective - 1e-12:
            self.outcome.best_objective = objective
            self.outcome.best_order = order
            self.outcome.trace.append(
                (time.perf_counter() - self._start, objective)
            )
        else:
            self.outcome.failures += 1

    def _branch_decisions(self, store: DomainStore) -> List[Tuple[int, int]]:
        """Child decisions ``(var, value)`` under the active strategy.

        Sequential: branch over which index takes the first unfilled
        position (keeps the prefix contiguous so the exact-prefix bound
        applies at every node), candidates ordered by the static greedy
        density so good incumbents appear early.  First-fail: branch on
        the smallest-domain variable, values ascending.
        """
        if self.strategy == "sequential":
            taken = 0
            for var in range(store.n):
                if store.is_assigned(var):
                    taken |= store.domain_mask(var)
            position = 0
            while taken & (1 << position):
                position += 1
            candidates = [
                var
                for var in range(store.n)
                if not store.is_assigned(var) and store.has(var, position)
            ]
            candidates.sort(key=lambda v: self._density_rank[v])
            return [(var, position) for var in candidates]
        best_var = -1
        best_size = float("inf")
        for var in range(store.n):
            if store.is_assigned(var):
                continue
            size = store.size(var)
            if size < best_size:
                best_size = size
                best_var = var
        if best_var < 0:
            return []
        return [(best_var, value) for value in store.domain_values(best_var)]

    def _bound_admits(self, store: DomainStore) -> bool:
        """Prune with exact-prefix + admissible-suffix lower bound.

        Only applies when the assigned variables occupy a contiguous
        position prefix ``0..k-1`` (always true under sequential
        branching, opportunistically true under first-fail).
        """
        if self.outcome.best_objective == float("inf"):
            return True
        assigned: Dict[int, int] = {}
        for var in range(store.n):
            if store.is_assigned(var):
                assigned[store.value(var)] = var
        k = 0
        while k in assigned:
            k += 1
        if any(position >= k for position in assigned):
            return True  # not a contiguous prefix; no cheap bound
        prefix = [assigned[position] for position in range(k)]
        prefix_objective, runtime_now = self.engine.prefix_state(prefix)
        bound = prefix_objective + self.engine.suffix_bound(
            runtime_now, self.engine.mask_of(prefix)
        )
        return bound < self.outcome.best_objective - 1e-12


@register(
    "cp",
    summary="CP branch-and-prune over position variables (Section 6)",
    exact=True,
    anytime=True,
)
class CPSolver(Solver):
    """Constraint-programming solver (Section 6).

    Args:
        strategy: ``"first_fail"`` (paper default) or ``"sequential"``.
        hall: Enable Hall-interval filtering in ``alldifferent``.
    """

    name = "cp"

    def __init__(
        self,
        strategy: str = "first_fail",
        hall: bool = True,
        seed_incumbent: bool = True,
    ) -> None:
        self.strategy = strategy
        self.hall = hall
        self.seed_incumbent = seed_incumbent
        #: Engine counters of the most recent :meth:`solve` (dict form).
        self.last_engine_stats = None

    def solve(
        self,
        instance: ProblemInstance,
        constraints: Optional[ConstraintSet] = None,
        budget: Optional[Budget] = None,
    ) -> SolveResult:
        start = time.perf_counter()
        model = CPModel(
            instance, constraints, hall=self.hall, engine=self._engine(instance)
        )
        incumbent_order = None
        incumbent_objective = None
        if self.seed_incumbent:
            from repro.solvers.greedy import greedy_order

            incumbent_order = greedy_order(instance, constraints)
            incumbent_objective = model.engine.evaluate(incumbent_order)
        search = CPSearch(
            model,
            strategy=self.strategy,
            incumbent=incumbent_objective,
            budget=budget,
        )
        if incumbent_objective is not None:
            # The greedy seed is the first incumbent; Figures 11/12 plot
            # the CP anytime curve from this point.
            search.outcome.trace.append(
                (time.perf_counter() - start, incumbent_objective)
            )
        outcome = search.run()
        elapsed = time.perf_counter() - start
        self.last_engine_stats = model.engine.stats.as_dict()
        if outcome.best_order is None and incumbent_order is not None:
            # Nothing beat the greedy seed: it is the solution (and, if
            # the search closed, provably optimal).
            outcome.best_order = list(incumbent_order)
            outcome.best_objective = incumbent_objective
        if outcome.best_order is None:
            status = (
                SolveStatus.TIMEOUT
                if outcome.interrupted
                else SolveStatus.INFEASIBLE
            )
            return SolveResult(
                solver=self.name,
                status=status,
                solution=None,
                runtime=elapsed,
                nodes=outcome.nodes,
            )
        status = (
            SolveStatus.OPTIMAL if outcome.proved else SolveStatus.TIMEOUT
        )
        return SolveResult(
            solver=self.name,
            status=status,
            solution=Solution(tuple(outcome.best_order), outcome.best_objective),
            runtime=elapsed,
            nodes=outcome.nodes,
            trace=outcome.trace,
        )
