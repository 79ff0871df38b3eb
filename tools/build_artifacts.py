#!/usr/bin/env python
"""Regenerate the packaged matrix-file artifacts.

Runs the full Figure-3 pipeline (catalog -> advisor -> what-if
extraction) for the canonical TPC-H and TPC-DS configurations and writes
the results to ``src/repro/workloads/data/``.  It always re-extracts:
the packaged files it replaces are never read.  The artifacts are
checked in so tests and benchmarks load instances in milliseconds
instead of re-running extraction (about 1 s for TPC-H and 30-50 s for
TPC-DS on a 2-core 2.0 GHz Xeon); ``tests/workloads/test_extracted.py``
fails when re-extraction no longer reproduces them byte for byte.

Usage::

    PYTHONPATH=src python tools/build_artifacts.py [tpch] [tpcds]
"""

from __future__ import annotations

import sys
import time

from repro.core.serialization import save_instance
from repro.workloads.extracted import (
    DATA_DIR,
    extract_tpcds_instance,
    extract_tpch_instance,
)


def main(argv: list) -> int:
    targets = set(argv) or {"tpch", "tpcds"}
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    for name, extract in (
        ("tpch", extract_tpch_instance),
        ("tpcds", extract_tpcds_instance),
    ):
        if name not in targets:
            continue
        started = time.time()
        instance = extract()
        save_instance(instance, DATA_DIR / f"{name}.json")
        print(
            f"{name}: {instance.interaction_counts()} "
            f"({time.time() - started:.1f}s)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
