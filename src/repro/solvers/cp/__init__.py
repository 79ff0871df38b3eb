"""Constraint-programming solver stack (Section 6 of the paper).

Layers: :class:`DomainStore` (bitmask finite domains with a trail),
propagators (``alldifferent`` with Hall intervals, precedence bounds,
alliance channeling), and :class:`CPSearch`, a first-fail
branch-and-prune.  :class:`CPSolver` is the public solver facade: its
default first-fail strategy runs :class:`CPSearch`, and its sequential
strategy runs the exact DFS of :mod:`repro.solvers.exhaustive`.  LNS/VNS
reuse :class:`CPSearch` directly.
"""

from repro.solvers.cp.domains import Conflict, DomainStore
from repro.solvers.cp.propagators import (
    AllDifferent,
    Consecutive,
    Precedence,
    PropagationEngine,
    Propagator,
)
from repro.solvers.cp.search import CPModel, CPSearch, CPSolver, SearchOutcome

__all__ = [
    "Conflict",
    "DomainStore",
    "AllDifferent",
    "Consecutive",
    "Precedence",
    "PropagationEngine",
    "Propagator",
    "CPModel",
    "CPSearch",
    "CPSolver",
    "SearchOutcome",
]
