"""One Large Neighborhood Search relaxation (Section 7.2).

A relaxation frees a random subset of the indexes, keeps every other
index at its slot of the current order, and runs the exact DFS over the
free ones with a failure limit
(:meth:`~repro.solvers.exhaustive.DFSState.relax`).  It ends when the
search either proves the neighborhood holds no better order or hits the
failure limit.  :class:`~repro.solvers.localsearch.vns.VNSSolver`
drives these relaxations; ``LNSSolver`` is VNS with adaptation off.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.solvers.base import Budget
from repro.solvers.exhaustive import DFSState

__all__ = ["relax_step"]


def relax_step(
    search: DFSState,
    order: List[int],
    relax_vars: List[int],
    incumbent: float,
    failure_limit: int,
    budget: Optional[Budget],
) -> Tuple[Optional[List[int]], Optional[float], bool]:
    """Run one LNS relaxation on ``search``.

    Keeps every index outside ``relax_vars`` at its slot in ``order``
    and searches the rest for an order below ``incumbent``.  Returns
    ``(improved_order, improved_objective, proved)`` where ``proved`` is
    True when the search exhausted the neighborhood (no better order
    exists in it).
    """
    search.relax(order, relax_vars, incumbent, failure_limit, budget)
    proved = not search.interrupted
    if search.best_order is not None:
        return search.best_order, search.best_objective, proved
    return None, None, proved
