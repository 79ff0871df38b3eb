"""Branch-and-bound MIP solver over scipy LP relaxations.

This stands in for the commercial MIP solver (CPlex 12.2) of the paper's
experiments.  It is a genuine best-first branch-and-bound:

* LP relaxations solved with ``scipy.optimize.linprog`` (HiGHS),
* branching on the most fractional binary variable,
* a primal heuristic that sorts the relaxation's ``A`` start times into
  a deployment order, evaluates it under the model's own discretized
  objective, and uses it as an incumbent,
* node/time budgets with the paper's "DF" (did-not-finish) outcome.

As in the paper, the weak linear relaxation of the min/max and product
structures makes the gap close extremely slowly; the Table-5 benchmark
reproduces exactly that behaviour.
"""

from __future__ import annotations

import heapq
import time
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy import optimize

from repro.analysis.constraints import ConstraintSet
from repro.core.engine import EvalEngine
from repro.core.instance import ProblemInstance
from repro.core.solution import Solution, SolveResult, SolveStatus
from repro.errors import ValidationError
from repro.solvers.base import Budget, Solver, repair_order
from repro.solvers.mip.model import MIPModel, build_model
from repro.solvers.registry import register

__all__ = ["MIPSolver"]

_INTEGRALITY_TOL = 1e-6


@register(
    "mip",
    summary="time-indexed MIP via scipy LP branch-and-bound (Appendix B)",
    exact=True,
)
class MIPSolver(Solver):
    """Time-indexed MIP solver (Appendix B formulation)."""

    name = "mip"

    def __init__(
        self,
        steps_per_index: int = 4,
        variable_limit: int = 200_000,
        mip_gap: float = 1e-6,
    ) -> None:
        self.steps_per_index = steps_per_index
        self.variable_limit = variable_limit
        self.mip_gap = mip_gap
        #: Engine counters of the most recent :meth:`solve` (dict form).
        self.last_engine_stats = None

    def solve(
        self,
        instance: ProblemInstance,
        constraints: Optional[ConstraintSet] = None,
        budget: Optional[Budget] = None,
    ) -> SolveResult:
        start = time.perf_counter()
        try:
            model = build_model(
                instance,
                steps_per_index=self.steps_per_index,
                constraints=constraints,
                variable_limit=self.variable_limit,
            )
        except ValidationError as exc:
            return SolveResult(
                solver=self.name,
                status=SolveStatus.DID_NOT_FINISH,
                solution=None,
                runtime=time.perf_counter() - start,
                message=str(exc),
            )
        engine = self._engine(instance)
        search = _BranchAndBound(
            model, instance, budget, self.mip_gap, constraints, engine
        )
        search.run()
        elapsed = time.perf_counter() - start
        self.last_engine_stats = engine.stats.as_dict()
        if search.best_order is None:
            status = (
                SolveStatus.TIMEOUT
                if search.interrupted
                else SolveStatus.INFEASIBLE
            )
            return SolveResult(
                solver=self.name,
                status=status,
                solution=None,
                runtime=elapsed,
                nodes=search.nodes,
                message=search.message,
            )
        # Return the incumbent with the best *exact* objective — the
        # discretized-model winner can be a worse real order, and every
        # incumbent's exact objective was already engine-evaluated.
        final_order = (
            search.best_true_order
            if search.best_true_order is not None
            else search.best_order
        )
        true_objective = engine.evaluate(final_order)
        # Only the engine's root bound proves the exact objective; a
        # closed tree proves the discretized model's optimum, which can
        # be a worse real order.
        message = search.message
        if search.proved_by_bound:
            status = SolveStatus.OPTIMAL
        elif search.closed and not search.interrupted:
            status = SolveStatus.FEASIBLE
            message = (
                "time-indexed model closed; its optimum is not proved "
                "optimal for the exact objective"
            )
        else:
            status = SolveStatus.TIMEOUT
        return SolveResult(
            solver=self.name,
            status=status,
            solution=Solution(tuple(final_order), true_objective),
            runtime=elapsed,
            nodes=search.nodes,
            trace=search.trace,
            message=message,
        )


class _BranchAndBound:
    """Best-first branch-and-bound over the LP relaxation tree."""

    def __init__(
        self,
        model: MIPModel,
        instance: ProblemInstance,
        budget: Optional[Budget],
        mip_gap: float,
        constraints: Optional[ConstraintSet] = None,
        engine: Optional[EvalEngine] = None,
    ) -> None:
        self.model = model
        self.instance = instance
        self.budget = budget
        self.mip_gap = mip_gap
        self.constraints = constraints
        self.engine = engine if engine is not None else EvalEngine(instance)
        self.nodes = 0
        self.best_order: Optional[List[int]] = None
        self.best_objective = float("inf")  # in discretized-model units
        self.best_true_objective = float("inf")  # exact evaluator units
        self.best_true_order: Optional[List[int]] = None
        self.interrupted = False
        self.closed = False
        #: True when the incumbent's exact objective met the engine's
        #: admissible root bound — optimal regardless of the LP gap.
        self.proved_by_bound = False
        self.message = ""
        self.trace: List[Tuple[float, float]] = []
        self._seen_orders: set = set()
        self._start = time.perf_counter()

    def run(self) -> None:
        root = self._solve_lp({})
        if root is None:
            self.closed = True
            self.message = "root LP infeasible"
            return
        # Admissible bound on the *exact* objective from the empty
        # state; an incumbent that meets it is optimal no matter how
        # slowly the LP gap closes.
        self._root_bound = self.engine.suffix_bound(
            self.instance.total_base_runtime, 0
        )
        heap: List[Tuple[float, int, Dict[int, float]]] = []
        counter = 0
        heapq.heappush(heap, (root[0], counter, {}))
        while heap:
            if self.proved_by_bound:
                self.message = "incumbent met the engine's root bound"
                return
            if self._out_of_budget():
                self.interrupted = True
                self.message = "budget exhausted (DF)"
                return
            bound, _, fixings = heapq.heappop(heap)
            if bound >= self.best_objective * (1.0 - self.mip_gap):
                continue
            lp = self._solve_lp(fixings)
            if lp is None:
                continue
            objective, x = lp
            if objective >= self.best_objective * (1.0 - self.mip_gap):
                continue
            self._primal_heuristic(x)
            branch_var = self._most_fractional(x)
            if branch_var is None:
                # Integral solution: candidate incumbent in model units.
                order = self.model.order_from_solution(x)
                self._try_incumbent(order)
                continue
            for value in (0.0, 1.0):
                child = dict(fixings)
                child[branch_var] = value
                counter += 1
                heapq.heappush(heap, (objective, counter, child))
        self.closed = True

    # ------------------------------------------------------------------
    def _out_of_budget(self) -> bool:
        return self.budget is not None and self.budget.exhausted

    def _solve_lp(
        self, fixings: Dict[int, float]
    ) -> Optional[Tuple[float, np.ndarray]]:
        self.nodes += 1
        if self.budget is not None:
            self.budget.tick()
        bounds = list(self.model.bounds)
        for var, value in fixings.items():
            bounds[var] = (value, value)
        result = optimize.linprog(
            self.model.c,
            A_ub=self.model.A_ub,
            b_ub=self.model.b_ub,
            A_eq=self.model.A_eq,
            b_eq=self.model.b_eq,
            bounds=bounds,
            method="highs",
        )
        if not result.success:
            return None
        return float(result.fun), result.x

    def _most_fractional(self, x: np.ndarray) -> Optional[int]:
        best_var = None
        best_gap = _INTEGRALITY_TOL
        for var in np.nonzero(self.model.integral)[0]:
            value = x[var]
            gap = min(value - np.floor(value), np.ceil(value) - value)
            if gap > best_gap:
                best_gap = gap
                best_var = int(var)
        return best_var

    def _primal_heuristic(self, x: np.ndarray) -> None:
        order = self.model.order_from_solution(x)
        self._try_incumbent(order)

    def _try_incumbent(self, order: List[int]) -> None:
        if self.proved_by_bound:
            return  # the proven-optimal incumbent must not be replaced
        if self.constraints is not None and not self.constraints.check_order(
            order
        ):
            order = repair_order(order, self.constraints)
        key = tuple(order)
        if key in self._seen_orders:
            return  # the LP heuristic repeats orders; skip re-evaluation
        self._seen_orders.add(key)
        objective = self.model.discretized_objective(order)
        if objective < self.best_objective - 1e-12:
            self.best_objective = objective
            self.best_order = order
            self.trace.append(
                (time.perf_counter() - self._start, objective)
            )
        true_objective = self.engine.evaluate(order)
        if true_objective < self.best_true_objective - 1e-12:
            self.best_true_objective = true_objective
            self.best_true_order = order
            if true_objective <= self._root_bound + 1e-9:
                self.best_order = order
                self.proved_by_bound = True
