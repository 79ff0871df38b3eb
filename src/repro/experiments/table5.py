"""Table 5: exact-search performance (reduced TPC-H).

Paper layout: rows are methods (MIP, CP, MIP+, CP+, VNS), columns are
instance sizes |I| ∈ {6, 11, 13, 22, 31} at low density and {16, 21} at
mid density; cells are minutes, "DF" for did-not-finish.

Scaled reproduction: Python solvers get a per-cell wall-clock budget
(default 10 s, 60 s with ``REPRO_FULL=1``); the full grid is the
paper's, the quick grid smaller.  CP and CP+ run CP's sequential
strategy, which is the exact DFS of the exhaustive solver (density
suffix bound, built-set transposition table), so a note gives each
CP/CP+ cell's node count: the gap the Section-5 constraints make stays
visible where both rows prove in milliseconds.  VNS finds the
optimum-quality solution in every cell without a proof.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.fixpoint import analyze
from repro.core.instance import ProblemInstance
from repro.core.solution import SolveResult, SolveStatus
from repro.experiments.harness import (
    DF,
    ResultTable,
    engine_stats_note,
    make_solver,
    nodes_note,
    quick_mode,
)
from repro.experiments.instances import reduced_tpch
from repro.experiments.parallel import Cell, run_cells
from repro.solvers.base import Budget

__all__ = ["run", "solve_cell", "default_grid", "METHODS"]

#: Row order of the paper's Table 5.
METHODS = ("mip", "cp", "mip+", "cp+", "vns")


def default_grid(quick: bool) -> List[Tuple[int, str]]:
    """(size, density) columns; trimmed in quick mode."""
    if quick:
        return [(6, "low"), (8, "low"), (10, "low"), (8, "mid")]
    return [
        (6, "low"), (11, "low"), (13, "low"), (22, "low"), (31, "low"),
        (16, "mid"), (21, "mid"),
    ]


def solve_cell(
    method: str,
    instance: ProblemInstance,
    time_limit: float,
    stats_out: Optional[Dict[str, int]] = None,
) -> SolveResult:
    """Run one method on one reduced instance.

    Solvers are resolved through the registry; ``method+`` means "with
    the Section-5 pre-analysis constraints".  When ``stats_out`` is
    given, the solver's engine counters are accumulated into it.
    """
    budget = Budget(time_limit=time_limit)
    constraints = None
    base = method.rstrip("+")
    if method.endswith("+") or method == "vns":
        report = analyze(instance, time_budget=min(10.0, time_limit))
        constraints = report.constraints
    if base == "mip":
        solver = make_solver("mip", steps_per_index=3)
    elif base == "cp":
        solver = make_solver("cp", strategy="sequential")
    elif base == "vns":
        solver = make_solver("vns")
        budget = Budget(time_limit=min(time_limit, 3.0))
    else:
        raise ValueError(f"unknown method {method!r}")
    result = solver.solve(instance, constraints, budget)
    run_stats = getattr(solver, "last_engine_stats", None)
    if stats_out is not None and run_stats:
        for key, value in run_stats.items():
            stats_out[key] = stats_out.get(key, 0) + value
    return result


def _cell_payload(
    method: str, size: int, density: str, time_limit: float
) -> Dict[str, Any]:
    """Compute one grid cell (runs in a shard worker or inline)."""
    instance = reduced_tpch(size, density)
    stats: Dict[str, int] = {}
    result = solve_cell(method, instance, time_limit, stats_out=stats)
    return {
        "cell": _format_result(method, result),
        "stats": stats,
        "status": result.status,
        "objective": result.objective,
        "nodes": result.nodes,
    }


def build_cells(
    columns: Sequence[Tuple[int, str]], time_limit: float
) -> List[Cell]:
    """Enumerate the grid in the sequential (method-major) order."""
    cells: List[Cell] = []
    for method in METHODS:
        for size, density in columns:
            cells.append(
                Cell(
                    index=len(cells),
                    label=f"table5[{method}|{size} {density}]",
                    fn=_cell_payload,
                    args=(method, size, density, time_limit),
                )
            )
    return cells


def run(
    time_limit: Optional[float] = None,
    grid: Optional[Sequence[Tuple[int, str]]] = None,
    workers: int = 1,
) -> ResultTable:
    """Regenerate Table 5 with scaled budgets.

    ``workers > 1`` shards the (method × size) grid across worker
    processes; the merged table keeps the exact sequential row order,
    and a cell whose worker crashed or timed out renders as ``DF`` with
    an explanatory note.
    """
    quick = quick_mode()
    if time_limit is None:
        time_limit = 10.0 if quick else 60.0
    columns = list(grid) if grid is not None else default_grid(quick)
    table = ResultTable(
        title=(
            "Table 5: Exact Search (Reduced TPC-H), seconds "
            f"(per-cell budget {time_limit:.0f}s; paper used minutes)"
        ),
        headers=["Method"]
        + [f"|I|={size} {density}" for size, density in columns],
    )
    cells = build_cells(columns, time_limit)
    outcomes = run_cells(
        cells, workers=workers, timeout=_grid_timeout(cells, workers, time_limit)
    )
    errors: List[str] = []
    stats_notes: List[str] = []
    payloads: Dict[Tuple[str, int], Dict[str, Any]] = {}
    position = 0
    for method in METHODS:
        row: List[str] = []
        stats: Dict[str, int] = {}
        for column in range(len(columns)):
            outcome = outcomes[position]
            position += 1
            if outcome.ok:
                payloads[method, column] = outcome.value
                row.append(outcome.value["cell"])
                for key, value in outcome.value["stats"].items():
                    stats[key] = stats.get(key, 0) + value
            else:
                row.append(DF)
                errors.append(f"{outcome.label}: {outcome.error}")
        table.add_row(method.upper(), *row)
        note = engine_stats_note(method, stats)
        if note is not None:
            stats_notes.append(note)
    table.add_note(
        "DF = no order within the budget; * = an order without an "
        "optimality proof (a timeout, a closed MIP model, or VNS, whose "
        "cells report time to its best solution, mirroring the paper's "
        "footnote)"
    )
    closed = _closed_model_note(columns, payloads)
    if closed is not None:
        table.add_note(closed)
    table.add_note(
        "CP and CP+ run the exact DFS (density suffix bound, built-set "
        "transposition table, CP's static density order); the Section-5 "
        "constraints (+) show as fewer DFS nodes (nodes[...] notes) where "
        "the paper shows them rescuing CP from DF cells; VNS is instant "
        "at every size"
    )
    for method in ("cp", "cp+"):
        cells = [payloads.get((method, column)) for column in range(len(columns))]
        table.add_note(nodes_note(method.upper(), table.headers[1:], cells))
    for note in stats_notes:
        table.add_note(note)
    for error in errors:
        table.add_note(f"sharded cell failed: {error}")
    return table


def _grid_timeout(
    cells: Sequence[Cell], workers: int, time_limit: float
) -> Optional[float]:
    """Generous wall-clock cap so a hung worker cannot hang the run."""
    if workers <= 1:
        return None
    per_shard = -(-len(cells) // max(1, workers))  # ceil division
    # Budgeted solve + pre-analysis + instance build per cell, plus
    # fork/queue overhead; generous because exceeding it turns cells
    # into DF, which must never happen on a healthy run.
    return per_shard * (time_limit + 30.0) + 60.0


def _closed_model_note(
    columns: Sequence[Tuple[int, str]],
    payloads: Dict[Tuple[str, int], Dict[str, Any]],
) -> Optional[str]:
    """Gap of each closed MIP model to its column's proven optimum.

    A closed time-indexed model is FEASIBLE, not OPTIMAL: its optimum
    is exact only up to the time discretization.
    """
    parts: List[str] = []
    for column, (size, density) in enumerate(columns):
        cell = {
            method: payloads.get((method, column), {}) for method in METHODS
        }
        proofs = [
            cell[method]["objective"]
            for method in ("cp", "cp+")
            if cell[method].get("status") is SolveStatus.OPTIMAL
        ]
        for method in ("mip", "mip+"):
            if cell[method].get("status") is not SolveStatus.FEASIBLE:
                continue
            label = f"{method.upper()} |I|={size} {density}"
            if not proofs:
                parts.append(f"{label}: no CP/CP+ proof to compare")
                continue
            optimum = min(proofs)
            gap = (cell[method]["objective"] - optimum) / optimum
            vns = cell["vns"].get("objective")
            reached = vns is not None and vns <= optimum * (1 + 1e-9)
            parts.append(
                f"{label} +{gap:.3%}, VNS's best "
                + ("equals it" if reached else "does not")
            )
    if not parts:
        return None
    return (
        "closed time-indexed MIP models (an order, not a proof), exact "
        "gap to the column's proven CP/CP+ optimum: " + "; ".join(parts)
    )


def _format_result(method: str, result: SolveResult) -> str:
    if result.status is SolveStatus.OPTIMAL:
        return f"{result.runtime:.2f}"
    if result.solution is None:
        return DF
    # VNS never proves; its cell is the time it reached its best order.
    seconds = result.trace[-1][0] if method == "vns" else result.runtime
    return f"{seconds:.2f}*"

if __name__ == "__main__":
    print(run().render())
