"""Table 6: pruning-power drill-down (reduced TPC-H).

Paper layout: rows add one Section-5 property at a time (CP, +A, +AC,
+ACM, +ACMD, +ACMDT); columns are instance sizes; cells are CP solve
times with "DF" when the search does not finish.  Each property family
buys orders of magnitude (the paper computes a cumulative speed-up of at
least 2.7e26 on the 31-index instance).

The reproduction runs the same cumulative ladder with scaled budgets.
Each cell is CP's sequential strategy, which is the exact DFS of the
exhaustive solver (density suffix bound, built-set transposition table).
The table also reports the implied-pair count each rung contributes,
which is the mechanism behind the speed-up, and a note per rung gives
its DFS node count per size.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.fixpoint import analyze
from repro.core.solution import SolveStatus
from repro.experiments.harness import DF, ResultTable, nodes_note, quick_mode
from repro.experiments.instances import reduced_tpch
from repro.experiments.parallel import Cell, run_cells
from repro.solvers.base import Budget
from repro.solvers.cp import CPSolver

__all__ = ["run", "PROPERTY_LADDER"]

PROPERTY_LADDER = ["", "A", "AC", "ACM", "ACMD", "ACMDT"]


def _cell_payload(properties: str, size: int, time_limit: float) -> Dict[str, Any]:
    """Compute one drill-down cell (runs in a shard worker or inline)."""
    instance = reduced_tpch(size, "low")
    report = analyze(instance, properties=properties, time_budget=10.0)
    implied = report.constraints.implied_pair_count()
    result = CPSolver(strategy="sequential").solve(
        instance, report.constraints, Budget(time_limit=time_limit)
    )
    if result.status is SolveStatus.OPTIMAL:
        cell = f"{result.runtime:.2f}"
    elif result.solution is not None:
        cell = f"{result.runtime:.2f}*"
    else:
        cell = DF
    return {
        "cell": cell,
        "implied": implied,
        "nodes": result.nodes,
        "status": result.status,
    }


def run(
    time_limit: Optional[float] = None,
    sizes: Optional[Sequence[int]] = None,
    workers: int = 1,
) -> ResultTable:
    """Regenerate Table 6 with scaled budgets.

    ``workers > 1`` shards the (property-rung × size) grid across
    worker processes; rows merge back in the sequential ladder order.
    """
    quick = quick_mode()
    if time_limit is None:
        time_limit = 10.0 if quick else 60.0
    if sizes is None:
        sizes = [10, 13, 16] if quick else [13, 16, 19, 22]
    table = ResultTable(
        title=(
            "Table 6: Pruning Power Drill-Down (Reduced TPC-H, low "
            f"density), seconds (per-cell budget {time_limit:.0f}s)"
        ),
        headers=["Properties"]
        + [f"|I|={size}" for size in sizes]
        + ["implied pairs @ largest"],
    )
    cells: List[Cell] = []
    for properties in PROPERTY_LADDER:
        for size in sizes:
            cells.append(
                Cell(
                    index=len(cells),
                    label=f"table6[{properties or 'CP'}|{size}]",
                    fn=_cell_payload,
                    args=(properties, size, time_limit),
                )
            )
    timeout = (
        None
        if workers <= 1
        else -(-len(cells) // max(1, workers)) * (time_limit + 30.0) + 60.0
    )
    outcomes = run_cells(cells, workers=workers, timeout=timeout)
    errors: List[str] = []
    node_notes: List[str] = []
    position = 0
    for properties in PROPERTY_LADDER:
        label = "CP" if not properties else f"+{properties}"
        row: List[str] = []
        payloads: List[Optional[Dict[str, Any]]] = []
        implied: Optional[int] = None
        for _ in sizes:
            outcome = outcomes[position]
            position += 1
            if outcome.ok:
                row.append(outcome.value["cell"])
                payloads.append(outcome.value)
                # The header advertises the count at the largest size,
                # i.e. the rung's last (ascending) column.
                implied = outcome.value["implied"]
            else:
                row.append(DF)
                payloads.append(None)
                errors.append(f"{outcome.label}: {outcome.error}")
        table.add_row(label, *row, implied)
        node_notes.append(nodes_note(label, table.headers[1:-1], payloads))
    table.add_note(
        "* = best solution found but no optimality proof within budget "
        "(a starred node count stopped at the budget)"
    )
    table.add_note(
        "every rung runs the exact DFS (density suffix bound, built-set "
        "transposition table, CP's static density order); each added "
        "property shows as fewer DFS nodes (nodes[...] notes) where the "
        "paper shows it keeping CP finishing at sizes the previous rung DFs"
    )
    for note in node_notes:
        table.add_note(note)
    for error in errors:
        table.add_note(f"sharded cell failed: {error}")
    return table

if __name__ == "__main__":
    print(run().render())
