"""Portfolio solving: race every anytime solver on one instance.

The paper's Figure 11/12 message is that no single method dominates:
tabu wins short budgets on TPC-H, VNS wins long budgets, CP closes the
small instances.  A portfolio turns that spread into a feature — race
the anytime solvers on the *same* instance and keep the best incumbent
— so the driver never has to hand-pick a method per instance.

Design (single-process, cooperative):

* **Capability-flag membership.**  Members default to every registry
  entry with ``anytime=True`` (and ``composite=False``, so a portfolio
  never enrolls itself).  Any new anytime solver joins automatically —
  there is no hard-coded member list.
* **Shared incumbent channel.**  The race is time-sliced round-robin:
  each member repeatedly gets a slice of the budget, and every member
  whose spec says ``accepts_initial_order`` is warm-started from the
  current best incumbent, so improvements found by one solver seed the
  neighborhoods of the next.
* **One engine memo per cell.**  All members share a single
  :class:`~repro.core.engine.EvalEngine` (injected through
  ``Solver.engine``, which every solver reads), so built-set runtime
  memo entries and delta-base state paid for by one member are cache
  hits for the rest.
* **Early optimality exit.**  If an exact member (CP, the exact DFS)
  proves its result optimal within a slice, the race stops and the
  portfolio reports ``OPTIMAL``.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.constraints import ConstraintSet
from repro.core.instance import ProblemInstance
from repro.core.solution import Solution, SolveResult, SolveStatus
from repro.errors import SolverError
from repro.solvers.base import Budget, Solver, repair_order
from repro.solvers.greedy import greedy_order
from repro.solvers.registry import get_spec, register_factory, solver_specs

__all__ = ["PortfolioSolver", "anytime_members"]

#: Smallest per-member time slice in seconds.
MIN_SLICE = 0.05


def anytime_members() -> Tuple[str, ...]:
    """Registry names eligible to join a portfolio.

    Capability-flag driven: every ``anytime`` solver joins; ``composite``
    entries (other portfolios) are excluded so composition cannot
    recurse.  No names are hard-coded.
    """
    return tuple(
        sorted(
            name
            for name, spec in solver_specs().items()
            if spec.anytime and not spec.composite
        )
    )


class PortfolioSolver(Solver):
    """Race anytime solvers with a shared incumbent and engine memo.

    Args:
        members: Registry names to race; defaults to
            :func:`anytime_members` resolved at solve time.
        rounds: Target number of full round-robin passes the time budget
            is divided into (more rounds = finer-grained incumbent
            sharing, more solver-restart overhead).  Each slice lasts at
            least :data:`MIN_SLICE`.
        seed: Base seed; stochastic members get distinct per-slice seeds
            derived from it.
        initial_order: Optional warm-start order for the shared
            incumbent (repaired into feasibility when constraints are
            given).
    """

    name = "portfolio"

    def __init__(
        self,
        members: Optional[Sequence[str]] = None,
        rounds: int = 3,
        seed: int = 0,
        initial_order: Optional[List[int]] = None,
    ) -> None:
        self.members = tuple(members) if members is not None else None
        self.rounds = max(1, rounds)
        self.seed = seed
        self.initial_order = initial_order
        #: Engine counters of the most recent :meth:`solve` (dict form).
        self.last_engine_stats: Optional[Dict[str, int]] = None
        #: Per-member contribution log of the most recent solve:
        #: ``[(member, round, objective_after_slice), ...]``.
        self.last_race_log: List[Tuple[str, int, float]] = []

    def _member_specs(self):
        names = self.members if self.members is not None else anytime_members()
        specs = []
        for member in names:
            spec = get_spec(member)
            if spec.composite:
                raise SolverError(
                    f"portfolio member {member!r} is itself a composite "
                    "solver; portfolios do not nest"
                )
            if not spec.anytime:
                raise SolverError(
                    f"portfolio member {member!r} is not an anytime solver "
                    "(spec.anytime is False); only anytime solvers can race"
                )
            specs.append(spec)
        if not specs:
            raise SolverError("portfolio has no members to race")
        return specs

    def solve(
        self,
        instance: ProblemInstance,
        constraints: Optional[ConstraintSet] = None,
        budget: Optional[Budget] = None,
    ) -> SolveResult:
        start = time.perf_counter()
        if budget is None:
            budget = Budget(time_limit=5.0)
        specs = self._member_specs()
        engine = self._engine(instance)
        incumbent = (
            list(self.initial_order)
            if self.initial_order is not None
            else greedy_order(instance, constraints)
        )
        if constraints is not None and not constraints.check_order(incumbent):
            incumbent = repair_order(incumbent, constraints)
        best_objective = engine.evaluate(incumbent)
        trace: List[Tuple[float, float]] = [
            (time.perf_counter() - start, best_objective)
        ]
        self.last_race_log = []
        time_limit = budget.time_limit
        slice_length = MIN_SLICE
        if time_limit is not None:
            slice_length = max(
                MIN_SLICE, time_limit / (self.rounds * len(specs))
            )
        proved = False
        nodes = 0
        round_id = 0
        while not budget.exhausted and not proved:
            round_id += 1
            for position, spec in enumerate(specs):
                if budget.exhausted:
                    break
                member_slice = slice_length
                if time_limit is not None:
                    member_slice = min(
                        member_slice, max(0.0, time_limit - budget.elapsed)
                    )
                    if member_slice <= 0.0:
                        break
                member = self._make_member(spec, position, round_id, incumbent)
                member.engine = engine
                result = member.solve(
                    instance, constraints, Budget(time_limit=member_slice)
                )
                nodes += result.nodes
                if (
                    result.solution is not None
                    and result.objective < best_objective - 1e-12
                ):
                    best_objective = result.objective
                    incumbent = list(result.solution.order)
                    trace.append((time.perf_counter() - start, best_objective))
                self.last_race_log.append(
                    (spec.name, round_id, best_objective)
                )
                if (
                    result.status is SolveStatus.OPTIMAL
                    and result.solution is not None
                    and result.objective <= best_objective + 1e-12
                ):
                    # An exact member closed the instance; the race is over.
                    proved = True
                    break
            if time_limit is None and round_id >= self.rounds:
                break
        elapsed = time.perf_counter() - start
        self.last_engine_stats = engine.stats.as_dict()
        return SolveResult(
            solver=self.name,
            status=SolveStatus.OPTIMAL if proved else SolveStatus.FEASIBLE,
            solution=Solution(tuple(incumbent), best_objective),
            runtime=elapsed,
            nodes=nodes,
            trace=trace,
        )

    def _make_member(self, spec, position: int, round_id: int, incumbent):
        kwargs = {}
        if spec.stochastic:
            # Distinct, deterministic seed per (member, round) so repeat
            # slices explore different neighborhoods.
            kwargs["seed"] = self.seed * 10_007 + round_id * 101 + position
        if spec.accepts_initial_order:
            kwargs["initial_order"] = list(incumbent)
        return spec.create(**kwargs)


register_factory(
    "portfolio",
    PortfolioSolver,
    summary="race all anytime solvers, shared incumbent + engine memo",
    anytime=True,
    stochastic=True,
    accepts_initial_order=True,
    composite=True,
)
register_factory(
    "portfolio-ls",
    lambda **kwargs: PortfolioSolver(
        members=("ts-bswap", "ts-fswap", "vns"), **kwargs
    ),
    summary="local-search-only portfolio (tabu flavours + VNS)",
    anytime=True,
    stochastic=True,
    accepts_initial_order=True,
    composite=True,
)
