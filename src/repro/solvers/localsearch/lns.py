"""One Large Neighborhood Search relaxation over the CP model (Section 7.2).

A relaxation frees a random subset of the position variables, fixes
everything else at its current position, and runs a CP branch-and-prune
over the freed variables with a failure limit.  It ends when the CP
search either proves the neighborhood holds no better solution or hits
the failure limit.  :class:`~repro.solvers.localsearch.vns.VNSSolver`
drives these relaxations; ``LNSSolver`` is VNS with adaptation off.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.solvers.base import Budget
from repro.solvers.cp.search import CPModel, CPSearch

__all__ = ["relax_step"]


def relax_step(
    model: CPModel,
    order: List[int],
    relax_vars: List[int],
    incumbent: float,
    failure_limit: int,
    budget: Optional[Budget],
) -> Tuple[Optional[List[int]], Optional[float], bool]:
    """Run one LNS relaxation.

    Fixes every variable outside ``relax_vars`` to its position in
    ``order`` and searches the rest.  Returns
    ``(improved_order, improved_objective, proved)`` where ``proved`` is
    True when the CP search exhausted the neighborhood (no better
    solution exists in it).
    """
    relax_set = set(relax_vars)
    fixed: Dict[int, int] = {
        var: position
        for position, var in enumerate(order)
        if var not in relax_set
    }
    search = CPSearch(
        model,
        strategy="first_fail",
        incumbent=incumbent,
        failure_limit=failure_limit,
        budget=budget,
        fixed=fixed,
        delta_base=order,
    )
    outcome = search.run()
    if outcome.best_order is not None:
        return outcome.best_order, outcome.best_objective, outcome.proved
    return None, None, outcome.proved
