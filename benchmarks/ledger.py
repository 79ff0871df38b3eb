"""The throughput benchmarks' JSON ledgers and smoke-mode sizing."""

from __future__ import annotations

import json
import os
from pathlib import Path


def smoke_size(full: int) -> int:
    """A run's size (rounds, lookups), a quarter of ``full`` when
    ``REPRO_BENCH_SMOKE=1`` (CI smoke)."""
    if os.environ.get("REPRO_BENCH_SMOKE") == "1":
        return max(1, full // 4)
    return full


def write_rows(path: Path, rows: dict) -> None:
    """Merge ``rows`` into the JSON ledger at ``path``, keeping the
    rows other benchmarks wrote."""
    path.parent.mkdir(exist_ok=True)
    ledger = json.loads(path.read_text()) if path.exists() else {}
    ledger.update(rows)
    path.write_text(json.dumps(ledger, indent=1) + "\n")
