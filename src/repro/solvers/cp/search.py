"""Branch-and-prune search for the CP model (Section 6.2).

:class:`CPSearch` assigns position variables depth-first with the
paper's first-fail branching: the smallest-domain variable next, its
values ascending (the Section-5 constraints skew domain sizes, which is
exactly what makes FF effective here).  An incumbent objective is
maintained; complete assignments are evaluated exactly, and a node
whose assigned variables fill a contiguous position prefix is pruned
with the exact-prefix + admissible-suffix bound.  The searcher also
powers LNS/VNS through ``fixed`` variable assignments and a failure
limit.

``CPSolver(strategy="sequential")`` fills positions left to right.
There the propagators pruned nothing beyond the DFS's own precedence
gating (reduced TPC-H, 9 indexes with the Section-5 constraints: 23,571
CP nodes against 23,542 for the DFS without its transposition table),
so that strategy runs the exact DFS of :mod:`repro.solvers.exhaustive`.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.constraints import ConstraintSet
from repro.core.engine import EvalEngine
from repro.core.instance import ProblemInstance
from repro.core.solution import SolveResult
from repro.solvers.base import Budget, Solver
from repro.solvers.cp.domains import Conflict, DomainStore
from repro.solvers.cp.propagators import (
    AllDifferent,
    Consecutive,
    Precedence,
    PropagationEngine,
)
from repro.solvers.exhaustive import dfs_solve, exact_result
from repro.solvers.greedy import greedy_order
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
        self.interrupted = False
        self.trace: List[Tuple[float, float]] = []


class CPSearch:
    """One depth-first first-fail branch-and-prune run over a CP model."""

    def __init__(
        self,
        model: CPModel,
        incumbent: Optional[float] = None,
        failure_limit: Optional[int] = None,
        budget: Optional[Budget] = None,
        fixed: Optional[Dict[int, int]] = None,
        delta_base: Optional[Sequence[int]] = None,
    ) -> None:
        self.model = model
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
        self._start = time.perf_counter()

    def run(self) -> SearchOutcome:
        """Execute the search; an uninterrupted run is a proof."""
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
            return self.outcome
        self._dfs(store, engine)
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
        """First-fail: the smallest-domain variable, values ascending."""
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
        position prefix ``0..k-1``, which first-fail reaches
        opportunistically.
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

    The greedy order is the first incumbent when it satisfies the
    constraints (and ``seed_incumbent`` is set).

    Args:
        strategy: ``"first_fail"`` (paper default) runs :class:`CPSearch`;
            ``"sequential"`` fills positions left to right, which is the
            exact DFS of :mod:`repro.solvers.exhaustive`.
        hall: Enable Hall-interval filtering in ``alldifferent``.  Only
            first-fail propagates; the sequential DFS ignores it.
        seed_incumbent: Start from the greedy order.
    """

    name = "cp"

    def __init__(
        self,
        strategy: str = "first_fail",
        hall: bool = True,
        seed_incumbent: bool = True,
    ) -> None:
        if strategy not in ("first_fail", "sequential"):
            raise ValueError(f"unknown strategy {strategy!r}")
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
        started = time.perf_counter()
        engine = self._engine(instance)
        seed = greedy_order(instance, constraints) if self.seed_incumbent else None
        if self.strategy == "sequential":
            result = dfs_solve(
                self.name, instance, constraints, budget, engine, seed, started
            )
        else:
            model = CPModel(instance, constraints, hall=self.hall, engine=engine)
            search = CPSearch(model, budget=budget)
            outcome = search.outcome
            if seed is not None and (
                constraints is None or constraints.check_order(seed)
            ):
                # As in the DFS, a feasible seed is the first incumbent
                # and the first trace point.
                outcome.best_order = list(seed)
                outcome.best_objective = engine.evaluate(seed)
                outcome.trace.append(
                    (time.perf_counter() - started, outcome.best_objective)
                )
            search.run()
            result = exact_result(self.name, outcome, started)
        self.last_engine_stats = engine.stats.as_dict()
        return result
