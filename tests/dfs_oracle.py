"""Reference exact DFS: the density suffix bound and dominance only.

This is ``repro.solvers.exhaustive.DFSState.solve`` before it learned
suffix bounds.  Children branch in ``branching_order`` and are scored
from their parent's state; each child is counted, ticks the budget, is
offered as an incumbent when it is a leaf, and is cut when its built
set was reached before at an equal-or-better prefix objective.  A node
whose prefix objective plus ``EvalEngine.suffix_bound`` reaches the
incumbent is pruned.  The solver's learned bounds may cut only
subtrees that hold no better leaf, so it must find the same incumbents
in the same order, in no more nodes; the property tests and the
``dfs_learned_bound`` row of ``BENCH_exact.json`` compare the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.constraints import ConstraintSet
from repro.core.engine import EvalEngine, PrefixCursor
from repro.core.instance import ProblemInstance
from repro.solvers.base import Budget
from repro.solvers.exhaustive import branching_order
from repro.solvers.greedy import greedy_order

__all__ = ["OracleRun", "oracle_dfs"]


@dataclass
class OracleRun:
    """What one oracle search found: its last incumbent, the value of
    every incumbent in the order found, and the nodes it counted."""

    order: Optional[List[int]] = None
    objective: float = math.inf
    trace: List[float] = field(default_factory=list)
    nodes: int = 0
    interrupted: bool = False


def oracle_dfs(
    instance: ProblemInstance,
    constraints: Optional[ConstraintSet] = None,
    budget: Optional[Budget] = None,
) -> OracleRun:
    """Search every order from the greedy start, as the DFS did."""
    engine = EvalEngine(instance)
    n = instance.n_indexes
    full = (1 << n) - 1
    branching = branching_order(instance)
    follower: Dict[int, int] = {}
    required = [0] * n
    if constraints is not None:
        follower = dict(constraints.consecutive_pairs)
        required = [constraints.chain_predecessor_mask(i) for i in range(n)]
    cursor = PrefixCursor(engine)
    best_prefix: Dict[int, float] = {}
    run = OracleRun()

    def offer(order: List[int], objective: float) -> None:
        if constraints is None or constraints.check_order(order):
            run.order = order
            run.objective = objective
            run.trace.append(objective)

    def visit(index_id: int, objective: float, mask: int) -> bool:
        run.nodes += 1
        if budget is not None and budget.tick():
            run.interrupted = True
            return False
        if mask == full:
            if objective < run.objective:
                offer(list(cursor.stack) + [index_id], objective)
            return False
        seen = best_prefix.get(mask)
        if seen is not None and objective >= seen - 1e-15:
            return False
        best_prefix[mask] = objective
        return True

    def expand(mask: int, last: Optional[int]) -> None:
        objective = cursor.objective
        runtime = cursor.runtime
        if objective + engine.suffix_bound(runtime, mask) >= (
            run.objective - 1e-12
        ):
            return
        forced = follower.get(last)
        if forced is not None and not mask >> forced & 1:
            candidates = [forced]
        else:
            candidates = [
                i
                for i in branching
                if not mask >> i & 1 and not required[i] & ~mask
            ]
        for candidate in candidates:
            child = mask | 1 << candidate
            step = runtime * engine.build_cost_in(candidate, mask)
            if visit(candidate, objective + step, child):
                cursor.push(candidate)
                expand(child, candidate)
                cursor.pop()
            if run.interrupted:
                return

    start = greedy_order(instance, constraints)
    offer(start, engine.evaluate(start))
    # The root: one node, recorded like any other set.
    run.nodes += 1
    if budget is not None and budget.tick():
        run.interrupted = True
    else:
        best_prefix[0] = 0.0
        expand(0, None)
    return run
