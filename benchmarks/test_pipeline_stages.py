"""Per-stage ledger of the Figure-3 front end up to the greedy start.

For full TPC-H and for the pipeline benchmark's TPC-DS subset (10
queries, seed 2012), a row records the wall clock of each stage a
schema-plus-workload input passes before search starts: advisor
selection (``IndexAdvisor.select``), matrix extraction
(``InstanceExtractor.extract``), the Section-5 ``analyze`` and the
greedy start (``greedy_order``).  Beside them it records the what-if
planner's work as call counts of ``Optimizer.optimize`` and
``Optimizer.access_paths``, counted by wrapping both methods for the
test.  Times are medians over ``REPS`` runs, each on a fresh catalog;
the counts and the matrix digest must repeat on every run.  The rows are
``tpch`` and ``tpcds-subset`` in ``BENCH_pipeline.json``.

The counts must stay at or below ``CEILINGS``, the values measured when
the plan and access-path memos were keyed on the usable configuration
and ``optimize`` began reading one access-path table per call.  Before
that change the counts were 3,857 and 9,095 on TPC-H, and 1,826 and
4,470 on the TPC-DS subset.  A change that makes the front end plan
more has to raise them on purpose.  No time is asserted.
"""

from __future__ import annotations

import functools
import hashlib
import json
import statistics
import time
from pathlib import Path

import pytest

from repro.analysis.fixpoint import analyze
from repro.core.serialization import instance_to_dict
from repro.dbms.advisor import AdvisorConfig, IndexAdvisor
from repro.dbms.extract import InstanceExtractor
from repro.dbms.optimizer import Optimizer
from repro.solvers.greedy import greedy_order
from repro.workloads.tpcds import tpcds_catalog, tpcds_workload
from repro.workloads.tpch import tpch_catalog, tpch_workload

from benchmarks.ledger import write_rows

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_pipeline.json"

#: Runs per row; stage times are medians over them.
REPS = 3

#: Row -> (catalog and workload factory, advisor settings), as
#: ``extract_tpch_instance`` and perfbench's ``pipeline-tpcds`` set
#: them up.
ROWS = {
    "tpch": (
        lambda: (tpch_catalog(), tpch_workload()),
        AdvisorConfig(),
    ),
    "tpcds-subset": (
        lambda: (tpcds_catalog(), tpcds_workload(n_queries=10, seed=2012)),
        AdvisorConfig(min_benefit_fraction=1e-6, max_indexes=148),
    ),
}

#: Per-run call-count ceilings.
CEILINGS = {
    "tpch": {"optimize_calls": 2031, "access_paths_calls": 3604},
    "tpcds-subset": {"optimize_calls": 1187, "access_paths_calls": 2089},
}


def _counted(monkeypatch, counts, name):
    original = Optimizer.__dict__[name]

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(Optimizer, name, wrapper)


def _run_once(row, counts):
    make, advisor_config = ROWS[row]
    catalog, workload = make()
    for name in counts:
        counts[name] = 0
    seconds = {}
    clock = time.perf_counter
    start = clock()
    suggested = IndexAdvisor(catalog, workload, advisor_config).select()
    seconds["advisor_select_s"] = clock() - start
    start = clock()
    instance = InstanceExtractor(catalog, workload).extract(suggested, name=row)
    seconds["extract_s"] = clock() - start
    start = clock()
    report = analyze(instance, time_budget=None)
    seconds["analyze_s"] = clock() - start
    start = clock()
    greedy_order(instance, report.constraints)
    seconds["greedy_s"] = clock() - start
    text = json.dumps(instance_to_dict(instance), sort_keys=True)
    return {
        "seconds": seconds,
        "optimize_calls": counts["optimize"],
        "access_paths_calls": counts["access_paths"],
        "n_indexes": instance.n_indexes,
        "n_plans": instance.n_plans,
        "digest": hashlib.sha256(text.encode()).hexdigest()[:16],
    }


@pytest.mark.parametrize("row", sorted(ROWS))
def test_pipeline_stage_ledger(benchmark, monkeypatch, row):
    counts = {"optimize": 0, "access_paths": 0}
    for name in counts:
        _counted(monkeypatch, counts, name)

    def run():
        runs = [_run_once(row, counts) for _ in range(REPS)]
        seconds = [r.pop("seconds") for r in runs]
        result = dict(runs[0], repeatable=all(r == runs[0] for r in runs))
        result["seconds"] = {
            stage: statistics.median(s[stage] for s in seconds)
            for stage in seconds[0]
        }
        result["ceilings"] = CEILINGS[row]
        return result

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    write_rows(RESULTS_PATH, {row: result})
    assert result["repeatable"], result
    for name, ceiling in CEILINGS[row].items():
        assert result[name] <= ceiling, (name, result[name], ceiling)
