"""Local-search solvers (Section 7): Tabu, LNS, and VNS."""

from repro.solvers.localsearch.lns import relax_step
from repro.solvers.localsearch.neighborhood import apply_swap, swap_feasible
from repro.solvers.localsearch.tabu import TabuSolver
from repro.solvers.localsearch.vns import LNSSolver, VNSSolver

__all__ = [
    "LNSSolver",
    "relax_step",
    "TabuSolver",
    "VNSSolver",
    "apply_swap",
    "swap_feasible",
]
