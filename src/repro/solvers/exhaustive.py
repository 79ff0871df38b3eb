"""The exact depth-first search: branch-and-bound over permutations.

Builds the deployment sequence position by position on one engine
:class:`PrefixCursor`.  A partial prefix has an exact objective; the
engine's density-relaxation suffix bound gives an admissible lower
bound for pruning against the incumbent.  Without pruning this is the
factorial search the paper uses as its reference point ("runtime of CP
without pruning is roughly proportional to |I|!").

The suffix cost of a prefix depends only on its built *set*, so a
transposition table over built-set bitmasks keeps two things per set,
which collapse the factorial permutation tree toward the ``2^n``
subset lattice:

* the best prefix objective seen: a prefix reaching the set at an
  equal-or-worse objective is dominated and cut;
* a learned lower bound on the cost of completing the set: the least,
  over an expanded node's children, of the step's cost plus the
  child's bound (0 at a leaf, +inf at a dead end, the density bound at
  a node pruned on it, the table's value at a cut child).  A prefix
  reaching the set is cut once its objective plus that bound is at
  least ``incumbent * CUT_SCALE + CUT_SLACK``, even when it is better
  than every earlier prefix, so a set first reached by a worse prefix
  is not searched again from scratch.

Each node is checked before it is deployed.  A child's objective is
scored from its parent's state, then the node is counted, the budget
ticks, a leaf is offered as an incumbent and one table lookup runs both
cuts; only a surviving child is pushed on the cursor, where the suffix
bound is tested before its own children are scored.  No leaf below the
incumbent is ever cut (see :data:`CUT_SCALE`), so a full search finds
the same incumbents in the same order as it would without learned
bounds, in fewer nodes: on the first 13 TPC-H indexes 41,776 nodes
instead of 245,801 over 7,368 sets, and 32,418 of the 41,776 die at
the table check and so are never deployed.

Candidates branch in CP's static density order (:func:`branching_order`).
Precedence constraints restrict which index may be placed next;
consecutive (alliance) pairs force the glued successor immediately.
:class:`ExhaustiveSolver` and its subclass ``CPSolver`` run this one
search (:meth:`DFSState.solve`), and every LNS/VNS relaxation runs it
with pinned slots (:meth:`DFSState.relax`).  A relaxation learns no
bounds and its cutoff stays infinite, so its table checks dominance
alone: a learned-bound cut counts as a failure and spares the nodes
and failures below it, so learning would change relaxations' failure
counts and with them the VNS/LNS trajectories.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Sequence

from repro.analysis.constraints import ConstraintSet
from repro.core.engine import EvalEngine, PrefixCursor
from repro.core.instance import ProblemInstance
from repro.core.solution import Solution, SolveResult, SolveStatus
from repro.solvers.base import Budget, Solver
from repro.solvers.greedy import greedy_order
from repro.solvers.registry import register

__all__ = ["DFSState", "ExhaustiveSolver", "branching_order"]

#: The full search cuts a child once its prefix objective plus its
#: set's learned bound is at least ``incumbent * CUT_SCALE + CUT_SLACK``.
#: A learned bound sums a suffix's step costs from the leaf up, while a
#: leaf's objective sums them from the root down; the margin is far
#: above the float drift between the two, so no leaf that beats the
#: incumbent is ever cut.
CUT_SCALE = 1.0 + 1e-12
CUT_SLACK = 1e-9


@register(
    "exhaustive",
    summary="DFS branch-and-bound over permutations (exact)",
    exact=True,
)
class ExhaustiveSolver(Solver):
    """Exact DFS branch-and-bound over index permutations.

    The greedy order is the first incumbent and the first trace point
    when it satisfies the constraints.  A search that runs to completion
    proves its incumbent optimal, or the constraints infeasible when it
    has none.  Trace points are stamped with ``time.perf_counter()``
    less the solve's start, so the trace counts the set-up and never
    runs backwards.
    """

    name = "exhaustive"

    def __init__(self) -> None:
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
        search = DFSState(instance, constraints, engine)
        search.solve(greedy_order(instance, constraints), budget)
        self.last_engine_stats = engine.stats.as_dict()
        solution = None
        status = SolveStatus.INFEASIBLE
        if search.best_order is not None:
            solution = Solution(
                tuple(search.best_order), search.best_objective
            )
            status = SolveStatus.OPTIMAL
        return SolveResult(
            solver=self.name,
            status=SolveStatus.TIMEOUT if search.interrupted else status,
            solution=solution,
            runtime=time.perf_counter() - started,
            nodes=search.nodes,
            trace=[(stamp - started, value) for stamp, value in search.trace],
        )


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


class DFSState:
    """DFS machinery over one :class:`PrefixCursor` of the engine.

    The branching order, the predecessor masks and the cursor are set up
    once per instance and constraint set.  :meth:`solve` searches every
    order; :meth:`relax` searches those that keep every index outside a
    free set at its slot of a given order, which is one LNS/VNS
    relaxation (:func:`~repro.solvers.localsearch.lns.relax_step`), so
    VNS builds one of these per solve and runs all its relaxations on
    it.
    """

    def __init__(
        self,
        instance: ProblemInstance,
        constraints: Optional[ConstraintSet],
        engine: EvalEngine,
    ) -> None:
        self.constraints = constraints
        self.engine = engine
        self.n = instance.n_indexes
        self.order = branching_order(instance)
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
        # The cursor's undo records restore the exact prior floats, so
        # drift-free prefix objectives feed the transposition-table
        # dominance check, and a relaxation's leaves are exact.
        self.cursor = PrefixCursor(engine)
        self.full_mask = (1 << self.n) - 1

    def _start(
        self,
        budget: Optional[Budget],
        branching: List[int],
        pins: Optional[List[int]],
        failure_limit: float,
    ) -> None:
        """Reset the per-run state: incumbent, counters, table."""
        self.budget = budget
        self.branching = branching
        self.pins = pins
        self.pinned_mask = 0
        self.failure_limit = failure_limit
        self.transpositions = self.engine.new_transposition_table()
        # Only the full search learns suffix bounds and cuts on them; a
        # relaxation's cutoff stays infinite, so its table checks
        # dominance alone.
        self.learns = pins is None
        self.cutoff = math.inf
        self.best_order: Optional[List[int]] = None
        self.best_objective = float("inf")
        self.nodes = 0
        self.failures = 0
        self.interrupted = False
        self.trace: List[tuple] = []

    # ------------------------------------------------------------------
    def solve(self, start: List[int], budget: Optional[Budget]) -> None:
        """Search every order; ``start`` is offered as the first incumbent."""
        self._start(budget, self.order, None, math.inf)
        self.cursor.align(())
        self.built_mask = 0
        self.offer(start, None)
        if self._visit(None, self.cursor.objective, 0) is None:
            self._expand(None)

    def relax(
        self,
        order: Sequence[int],
        free: Sequence[int],
        incumbent: float,
        failure_limit: float,
        budget: Optional[Budget],
    ) -> None:
        """Search for the best order below ``incumbent`` that keeps every
        index outside ``free`` at its slot of ``order``.

        The prefix before the first free slot is aligned on the cursor,
        which is the root.  Free indexes branch in the density order at
        free slots only, and each pinned slot takes its own index,
        deployed without a node of its own.  The root and every
        free-slot child charge one node; bound prunes, dominated
        children, leaves that do not improve and dead ends count as
        failures, and the search stops once they exceed
        ``failure_limit``.  A pinned prefix that breaks the constraints
        is a dead root: one node, and a proof that the neighborhood
        holds nothing.
        """
        free_mask = self.engine.mask_of(free)
        # pins[k]: the index held at slot k, or -1 at a free slot.
        pins = [-1 if free_mask >> i & 1 else i for i in order]
        branching = [i for i in self.order if free_mask >> i & 1]
        self._start(budget, branching, pins, failure_limit)
        self.pinned_mask = self.full_mask & ~free_mask
        self.best_objective = incumbent
        first = pins.index(-1) if free_mask else self.n
        last = None
        mask = 0
        for index_id in order[:first]:
            if not self._fits(index_id, last, mask):
                self.nodes += 1
                self.failures += 1
                if budget is not None:
                    budget.tick()
                return
            last = index_id
            mask |= 1 << index_id
        self.cursor.align(order[:first])
        self.built_mask = mask
        if self._visit(None, self.cursor.objective, mask) is None:
            self._expand(last)

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
        if self.learns:
            self.cutoff = objective * CUT_SCALE + CUT_SLACK
        self.trace.append((time.perf_counter(), objective))

    def _fail(self) -> None:
        """Count a failure; past the failure limit the search stops."""
        self.failures += 1
        if self.failures > self.failure_limit:
            self.interrupted = True

    def _fits(self, index_id: int, last: Optional[int], mask: int) -> bool:
        """True when ``index_id`` may follow ``last`` on built-set ``mask``."""
        forced = self.consecutive_after.get(last)
        if forced is not None and forced != index_id:
            if not mask >> forced & 1:
                return False
        return not self.required[index_id] & ~mask

    def _candidates(self, last: Optional[int]) -> List[int]:
        built = self.cursor.built
        forced = self.consecutive_after.get(last)
        if forced is not None and not built[forced]:
            # A pinned follower cannot take a free slot.
            return [] if self.pinned_mask >> forced & 1 else [forced]
        waiting = ~self.built_mask
        required = self.required
        return [
            i
            for i in self.branching
            if not built[i] and not required[i] & waiting
        ]

    def _visit(
        self, index_id: Optional[int], objective: float, mask: int
    ) -> Optional[float]:
        """Visit the node that deploys ``index_id`` on the cursor's prefix.

        ``index_id`` is ``None`` at the root; ``objective`` and ``mask``
        are the node's own, scored before anything is deployed.  Counts
        the node, ticks the budget, offers a leaf and runs the table
        check.  Returns None when the node is to be expanded, else a
        lower bound on the cost of completing its set: 0 for a leaf,
        the set's learned bound for a child the table cuts.
        """
        self.nodes += 1
        if self.budget is not None and self.budget.tick():
            self.interrupted = True
            return 0.0
        if mask == self.full_mask:
            if objective < self.best_objective:
                order = list(self.cursor.stack)
                if index_id is not None:
                    order.append(index_id)
                self.offer(order, objective)
            else:
                self._fail()
            return 0.0
        # The candidate set is a function of the built-set alone (a
        # pending alliance forces an identical last element for every
        # prefix sharing the mask, and a pinned slot holds the same
        # index), so a set reached before at an equal-or-better
        # objective completes at least as cheaply, and a bound on the
        # cost of completing a set holds for every prefix reaching it.
        bound = self.transpositions.cut(mask, objective, self.cutoff)
        if bound is not None:
            self._fail()
        return bound

    def _expand(self, last: Optional[int]) -> float:
        """Bound the node on the cursor, then visit and expand its children.

        Returns a lower bound on the cost of completing the node's
        built-set, which the full search records as the set's learned
        bound: the density bound when the node is pruned on it, else
        the least, over the children, of the step's cost plus the
        child's bound (+inf at a dead end).  The table keeps the larger
        of that and the bound it had.  An interrupted search records
        nothing.
        """
        cursor = self.cursor
        if self.pins is not None and self.pins[cursor.depth] >= 0:
            self._expand_pinned(last)
            return 0.0
        objective = cursor.objective
        mask = self.built_mask
        runtime = cursor.runtime
        least = self.engine.suffix_bound(runtime, mask)
        if objective + least >= self.best_objective - 1e-12:
            self._fail()
        else:
            candidates = self._candidates(last)
            if not candidates:
                self._fail()
            least = math.inf
            # A child's objective is the one DeployState.deploy reaches,
            # so it is scored without deploying; only survivors are
            # pushed.
            build_cost_in = self.engine.build_cost_in
            for candidate in candidates:
                step = runtime * build_cost_in(candidate, mask)
                child_mask = mask | 1 << candidate
                bound = self._visit(candidate, objective + step, child_mask)
                if bound is None:
                    cursor.push(candidate)
                    self.built_mask = child_mask
                    bound = self._expand(candidate)
                    cursor.pop()
                    self.built_mask = mask
                if self.interrupted:
                    return least
                if step + bound < least:
                    least = step + bound
        if self.learns:
            least = self.transpositions.learn(mask, least)
        return least

    def _expand_pinned(self, last: Optional[int]) -> None:
        """Deploy the pinned slots up to the next free one, then expand
        there, or offer the leaf they complete; a pinned index whose
        constraints do not hold is a dead end."""
        cursor = self.cursor
        pins = self.pins
        mask = self.built_mask
        depth = cursor.depth
        pushed = 0
        while depth < self.n and pins[depth] >= 0:
            index_id = pins[depth]
            if not self._fits(index_id, last, self.built_mask):
                self._fail()
                break
            cursor.push(index_id)
            self.built_mask |= 1 << index_id
            last = index_id
            depth += 1
            pushed += 1
        else:
            if depth < self.n:
                self._expand(last)
            elif cursor.objective < self.best_objective:
                self.offer(list(cursor.stack), cursor.objective)
            else:
                self._fail()
        for _ in range(pushed):
            cursor.pop()
        self.built_mask = mask
