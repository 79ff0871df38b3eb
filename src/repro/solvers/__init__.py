"""Solvers for the index deployment ordering problem.

* Heuristics: :class:`GreedySolver` (Algorithm 1), :class:`DPSolver`
  (Schnaitter-style min-cut DP), :class:`RandomSolver`.
* Exact: :class:`ExhaustiveSolver`, :class:`SubsetDPSolver`,
  :class:`AStarSolver`, :class:`CPSolver` (Section 6),
  :class:`MIPSolver` (Appendix B).
* Local search: :class:`TabuSolver` (BSwap/FSwap), :class:`LNSSolver`,
  :class:`VNSSolver` (Section 7).

Every solver registers itself with :mod:`repro.solvers.registry`; the
CLI, experiment harness, and examples resolve solvers by name through
:func:`repro.solvers.registry.create`.
"""

from repro.solvers.astar import AStarSolver, SubsetDPSolver
from repro.solvers.base import Budget, Solver, glue_consecutive, repair_order
from repro.solvers.cp import CPSolver
from repro.solvers.dp import DPSolver, dp_order, interaction_weights
from repro.solvers.exhaustive import ExhaustiveSolver
from repro.solvers.greedy import GreedySolver, greedy_order
from repro.solvers.localsearch import LNSSolver, TabuSolver, VNSSolver
from repro.solvers.mip import MIPSolver
from repro.solvers.random_search import RandomSolver, random_statistics
from repro.solvers.registry import (
    SolverSpec,
    available_solvers,
    create,
    get_spec,
    register,
    register_factory,
    solver_specs,
)

__all__ = [
    "SolverSpec",
    "available_solvers",
    "create",
    "get_spec",
    "register",
    "register_factory",
    "solver_specs",
    "Budget",
    "Solver",
    "glue_consecutive",
    "repair_order",
    "GreedySolver",
    "greedy_order",
    "DPSolver",
    "dp_order",
    "interaction_weights",
    "RandomSolver",
    "random_statistics",
    "ExhaustiveSolver",
    "SubsetDPSolver",
    "AStarSolver",
    "CPSolver",
    "MIPSolver",
    "TabuSolver",
    "LNSSolver",
    "VNSSolver",
]
