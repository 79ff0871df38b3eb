"""Shared experiment infrastructure: result tables and budget scaling.

The paper's solver budgets are minutes to hours on 2011 hardware with
C++ solvers (COMET, CPlex); this reproduction runs pure Python, so every
experiment accepts a ``time_scale`` that shrinks budgets while keeping
the *relative* budgets across methods identical.  Experiment outputs are
:class:`ResultTable` objects that render in the same row/column layout
as the paper's tables, which is what the benchmark harness prints.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.core.solution import SolveStatus

__all__ = [
    "ResultTable",
    "format_cell",
    "quick_mode",
    "DF",
    "make_solver",
    "engine_stats_note",
    "nodes_note",
]

#: Marker string matching the paper's "did not finish" cells.
DF = "DF"


def quick_mode() -> bool:
    """True unless ``REPRO_FULL=1`` requests full-budget experiments."""
    return os.environ.get("REPRO_FULL", "0") != "1"


def make_solver(name: str, **kwargs):
    """Resolve a solver by registry name (experiment-layer entry point).

    Every experiment runner constructs solvers through this single
    hook, so the name -> implementation mapping lives in one place
    (:mod:`repro.solvers.registry`).
    """
    from repro.solvers.registry import create

    return create(name, **kwargs)


def engine_stats_note(label: str, stats: Optional[Dict[str, int]]) -> Optional[str]:
    """Render one solver's :class:`EngineStats` dict as a table note.

    The fig11 benchmark parses the ``N numpy batch scans`` phrase to
    check the tabu solvers ran on the numpy kernel; keep it stable.
    """
    if not stats:
        return None
    parts = []
    numpy_scans = stats.get("batch_numpy", 0)
    scalar_scans = stats.get("batch_evals", 0) - numpy_scans
    if numpy_scans:
        parts.append(
            f"{numpy_scans} numpy batch scans "
            f"({stats.get('batch_moves', 0)} moves)"
        )
    if scalar_scans:
        parts.append(f"{scalar_scans} scalar neighborhood scans")
    if stats.get("delta_evals"):
        parts.append(
            f"{stats['delta_evals']} delta evals, "
            f"replayed {stats.get('replayed_steps', 0)} steps"
        )
    else:
        parts.append(f"{stats.get('full_evals', 0)} full evals")
    memo_hits = stats.get("memo_hits", 0)
    memo_misses = stats.get("memo_misses", 0)
    if memo_hits or memo_misses:
        parts.append(f"memo {memo_hits}/{memo_hits + memo_misses} hits")
    if stats.get("tt_prunes"):
        parts.append(f"{stats['tt_prunes']} transposition prunes")
    return f"engine[{label}]: " + ", ".join(parts)


def nodes_note(
    label: str,
    headers: Sequence[str],
    payloads: Sequence[Optional[Dict[str, Any]]],
) -> str:
    """One row's search-node counts, one per column, as a table note.

    Node counts keep a gap visible when both cells prove in
    milliseconds.  Each payload carries the cell's ``nodes`` and
    ``status``; a count without a proof is starred, and a cell whose
    worker failed (``None``) has no count.
    """
    counts = [
        DF
        if payload is None
        else f"{payload['nodes']:,}"
        + ("" if payload["status"] is SolveStatus.OPTIMAL else "*")
        for payload in payloads
    ]
    return f"nodes[{label}]: " + "; ".join(
        f"{header} {count}" for header, count in zip(headers, counts)
    )


def format_cell(value: Any) -> str:
    """Render one table cell the way the paper does.

    Floats print with two decimals, sub-0.005 times as ``<0.01``;
    ``None`` renders as an empty cell.
    """
    if value is None:
        return ""
    if isinstance(value, float):
        if value != value:  # NaN
            return ""
        if 0 < value < 0.005:
            return "<0.01"
        return f"{value:.2f}"
    return str(value)


@dataclass
class ResultTable:
    """A paper-style results table.

    Attributes:
        title: Table caption, e.g. ``"Table 5: Exact Search"``.
        headers: Column headers.
        rows: Row cell values (mixed str/float/None).
        notes: Free-form footnotes (paper-vs-measured commentary).
    """

    title: str
    headers: List[str]
    rows: List[List[Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *cells: Any) -> None:
        """Append one row."""
        self.rows.append(list(cells))

    def add_note(self, note: str) -> None:
        """Append a footnote."""
        self.notes.append(note)

    def render(self) -> str:
        """ASCII-render the table with aligned columns.

        Rows may carry more cells than there are headers (merged shard
        tables produce such rows); extra columns get an empty header
        and are sized from their cells alone.
        """
        formatted = [[format_cell(cell) for cell in row] for row in self.rows]
        n_columns = max(
            [len(self.headers)] + [len(row) for row in formatted]
        )
        widths = [0] * n_columns
        for position, header in enumerate(self.headers):
            widths[position] = len(header)
        for row in formatted:
            for position, cell in enumerate(row):
                widths[position] = max(widths[position], len(cell))
        lines = [self.title]
        headers = list(self.headers) + [""] * (n_columns - len(self.headers))
        header_line = " | ".join(
            header.ljust(widths[position])
            for position, header in enumerate(headers)
        )
        lines.append(header_line)
        lines.append("-+-".join("-" * width for width in widths))
        for row in formatted:
            lines.append(
                " | ".join(
                    cell.ljust(widths[position])
                    for position, cell in enumerate(row)
                )
            )
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, Any]:
        """Machine-readable form (for EXPERIMENTS.md tooling)."""
        return {
            "title": self.title,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
            "notes": list(self.notes),
        }
