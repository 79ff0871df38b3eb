"""MIP solver: the time-indexed model solved by HiGHS (Appendix B).

This stands in for the commercial MIP solver (CPlex 12.2) of the paper's
experiments.  ``scipy.optimize.milp`` (HiGHS branch-and-cut) solves the
:mod:`repro.solvers.mip.model` matrices under the solve budget's
remaining seconds and nodes; a model too large to build is the paper's
"DF" (did-not-finish) outcome.

A closed model is not a proof.  The model discretizes time, so its
optimum can be a worse real order than the true optimum; only an order
whose exact objective meets the engine's root bound is OPTIMAL.
"""

from __future__ import annotations

import time
import warnings
from typing import Optional

import numpy as np
from scipy import optimize

from repro.analysis.constraints import ConstraintSet
from repro.core.instance import ProblemInstance
from repro.core.solution import Solution, SolveResult, SolveStatus
from repro.errors import ValidationError
from repro.solvers.base import Budget, Solver, repair_order
from repro.solvers.greedy import greedy_order
from repro.solvers.mip.model import DEFAULT_VARIABLE_LIMIT, build_model
from repro.solvers.registry import register

__all__ = ["MIPSolver"]

#: Relative gap at which HiGHS closes the model (its default is 1e-4).
MIP_REL_GAP = 1e-6

#: HiGHS options ``milp`` does not name; it passes them on verbatim.
#: Feasibility jump, HiGHS's first primal heuristic, runs before the
#: root LP and never reads ``time_limit``: on full TPC-H it held a 1 s
#: solve for 1.4-1.7 s and found no incumbent.  Without it the solve
#: stops within 0.1 s of its limit, and Table 5's 10 s cells end on
#: equal or better orders.
HIGHS_OPTIONS = {"mip_heuristic_run_feasibility_jump": False}

#: ``milp`` status codes: model closed, time limit hit, model infeasible.
_CLOSED, _TIME_LIMIT, _INFEASIBLE = 0, 1, 2


@register(
    "mip",
    summary="time-indexed MIP solved by HiGHS milp (Appendix B)",
    exact=True,
)
class MIPSolver(Solver):
    """Time-indexed MIP solver (Appendix B formulation)."""

    name = "mip"

    def __init__(
        self,
        steps_per_index: int = 4,
        variable_limit: int = DEFAULT_VARIABLE_LIMIT,
    ) -> None:
        self.steps_per_index = steps_per_index
        self.variable_limit = variable_limit
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
        options = {"mip_rel_gap": MIP_REL_GAP, **HIGHS_OPTIONS}
        if budget is not None and budget.time_limit is not None:
            options["time_limit"] = max(
                0.0, budget.time_limit - budget.elapsed
            )
        if budget is not None and budget.node_limit is not None:
            options["node_limit"] = max(0, budget.node_limit - budget.nodes)
        lower, upper = np.array(model.bounds, dtype=float).T
        with warnings.catch_warnings():
            warnings.filterwarnings(
                "ignore", "Unrecognized options", RuntimeWarning
            )
            result = optimize.milp(
                model.c,
                integrality=model.integral,
                bounds=optimize.Bounds(lower, upper),
                constraints=[
                    optimize.LinearConstraint(model.A_ub, -np.inf, model.b_ub),
                    optimize.LinearConstraint(
                        model.A_eq, model.b_eq, model.b_eq
                    ),
                ],
                options=options,
            )
        nodes = int(result.mip_node_count or 0)
        if budget is not None:
            budget.tick(nodes)
        if result.status == _INFEASIBLE:
            return SolveResult(
                solver=self.name,
                status=SolveStatus.INFEASIBLE,
                solution=None,
                runtime=time.perf_counter() - start,
                nodes=nodes,
                message=result.message,
            )
        # The model has no consecutive-pair rows, so its order is
        # repaired; a stop before any incumbent falls back to greedy.
        if result.x is not None:
            order = repair_order(
                model.order_from_solution(result.x), constraints
            )
        else:
            order = greedy_order(instance, constraints)
        engine = self._engine(instance)
        objective = engine.evaluate(order)
        root_bound = engine.suffix_bound(instance.total_base_runtime, 0)
        # Only the engine's root bound proves the exact objective; a
        # closed model proves its discretized optimum, which can be a
        # worse real order.
        if objective <= root_bound + 1e-9:
            status = SolveStatus.OPTIMAL
            message = "the order met the engine's root bound"
        elif result.status == _CLOSED:
            status = SolveStatus.FEASIBLE
            message = (
                "time-indexed model closed; its optimum is not proved "
                "optimal for the exact objective"
            )
        else:
            # scipy reports a node-limit stop as an unrecognized status.
            status = SolveStatus.TIMEOUT
            limit_hit = result.status == _TIME_LIMIT or (
                budget is not None and budget.exhausted
            )
            message = "budget exhausted (DF)" if limit_hit else result.message
        elapsed = time.perf_counter() - start
        self.last_engine_stats = engine.stats.as_dict()
        return SolveResult(
            solver=self.name,
            status=status,
            solution=Solution(tuple(order), objective),
            runtime=elapsed,
            nodes=nodes,
            trace=[(elapsed, objective)],
            message=message,
        )
