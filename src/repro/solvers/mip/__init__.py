"""Time-indexed MIP formulation solved by HiGHS ``milp`` (Appendix B)."""

from repro.solvers.mip.branch_bound import MIPSolver
from repro.solvers.mip.model import DEFAULT_VARIABLE_LIMIT, MIPModel, build_model

__all__ = ["MIPSolver", "MIPModel", "build_model", "DEFAULT_VARIABLE_LIMIT"]
