"""The CP solver of Section 6: the exact DFS, reported as ``cp``.

Positions are filled left to right, so a prefix's objective is exact
and the engine's suffix bound prunes against the incumbent.  Indexes
branch in the static density order of
:func:`~repro.solvers.exhaustive.branching_order`, not with the paper's
first-fail labelling (Section 6.2).  Filled left to right, a domain
store with ``alldifferent``, precedence and alliance propagators pruned
nothing beyond the DFS's own precedence gating (reduced TPC-H, 9
indexes with the Section-5 constraints: 23,571 CP nodes against 23,542
for the DFS without its transposition table), so CP has none.
"""

from __future__ import annotations

from repro.solvers.exhaustive import ExhaustiveSolver
from repro.solvers.registry import register

__all__ = ["CPSolver"]


@register(
    "cp",
    summary="CP: the exact DFS over positions, density branching (Section 6)",
    exact=True,
    anytime=True,
)
class CPSolver(ExhaustiveSolver):
    """Constraint-programming solver (Section 6): the exact DFS.

    Args:
        strategy: Only ``"sequential"`` (positions filled left to
            right) is accepted; the name is kept for callers that pass
            it.
    """

    name = "cp"

    def __init__(self, strategy: str = "sequential") -> None:
        if strategy != "sequential":
            raise ValueError(f"unknown strategy {strategy!r}")
        super().__init__()
