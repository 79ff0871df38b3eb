"""Constraint-programming solver (Section 6).

:class:`CPSolver` is the exact DFS of :mod:`repro.solvers.exhaustive`
(positions filled left to right, candidates in CP's static density
order), reported as ``cp``.  The LNS/VNS relaxations run the same DFS
with pinned slots.
"""

from repro.solvers.cp.search import CPSolver

__all__ = ["CPSolver"]
