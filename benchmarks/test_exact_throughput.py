"""Exact-search throughput: the runtime delta and the learned bound.

``runtime_delta``: a miss of the engine's built-set runtime memo is a
delta over the previous miss: only the queries served by the indexes
that changed rescan their plans, and the per-query terms are summed in
``ProblemInstance.total_runtime``'s order.  This benchmark pins that the
delta is both exact and faster.  On the TPC-DS tail-analysis masks
(all 139 indexes but one pair, pairs in lexicographic order, the sets
the tails pass looks up) every lookup is a miss.  Slices of them run
through ``runtime_of`` and through ``total_runtime``, interleaved in one
process so CPU-speed drift hits both alike.  Every value must be
bit-identical to the oracle's, and the engine must beat it by a floor.
Measured on a 2-core 2.0 GHz Xeon KVM guest: 7-10x over 4,000 misses.
Recomputing every query on a miss (set building included) runs at
~0.8x the oracle, so it fails the floor.

``dfs_learned_bound``: the exact DFS learns a lower bound on the cost
of completing each built-set and cuts a child whose prefix objective
plus that bound reaches the incumbent.  The DFS and the search without
learned bounds (``tests/dfs_oracle.py``) run interleaved on TPC-H's
first 13 indexes and on reduced TPC-H 13 mid with the ``analyze()``
constraints.  Orders, objective bits and traces must match, and the
DFS must beat the oracle by a floor.  Measured on the same guest
(three runs of four pairs): 41,776 against 245,801 nodes and 5.6x on
the first cell, 39,816 against 198,372 nodes and 3.6-4.6x on the
second.

Both floors are deliberately conservative and are skipped on GitHub
runners, like the other throughput rows.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from repro.analysis.fixpoint import analyze
from repro.core.engine import EvalEngine
from repro.core.solution import SolveStatus
from repro.experiments.instances import (
    reduced_tpch,
    tpch_instance,
    tpcds_instance,
)
from repro.solvers.exhaustive import ExhaustiveSolver

from benchmarks.ledger import smoke_size, write_rows
from tests.dfs_oracle import oracle_dfs

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_exact.json"

#: Lookups per run (a quarter of them when ``REPRO_BENCH_SMOKE=1``).
MISSES = 4000

#: Floor on the oracle/engine time ratio.
FLOOR = 3.0

#: Oracle/DFS pairs per cell (one when ``REPRO_BENCH_SMOKE=1``).
SEARCH_ROUNDS = 4

#: Floor on the oracle/DFS time ratio on each cell.
SEARCH_FLOOR = 2.0

#: cell -> (instance, with the ``analyze()`` constraints).
SEARCH_CELLS = {
    "tpch-first-13": (
        lambda: tpch_instance().restrict_to_indexes(
            range(13), name="first-13"
        ),
        False,
    ),
    "13-mid+": (lambda: reduced_tpch(13, "mid"), True),
}


def test_runtime_delta_beats_total_runtime(benchmark):
    instance = tpcds_instance()
    n = instance.n_indexes
    count = smoke_size(MISSES)
    full = (1 << n) - 1
    masks = [
        full & ~(1 << a) & ~(1 << b) for a in range(n) for b in range(a + 1, n)
    ][:count]
    members = [{i for i in range(n) if mask >> i & 1} for mask in masks]

    def run():
        engine = EvalEngine(instance)
        engine_time = oracle_time = 0.0
        engine_values, oracle_values = [], []
        step = max(1, len(masks) // 8)
        for start in range(0, len(masks), step):
            chunk = range(start, min(start + step, len(masks)))
            t0 = time.perf_counter()
            engine_values.extend(engine.runtime_of(masks[k]) for k in chunk)
            engine_time += time.perf_counter() - t0
            t0 = time.perf_counter()
            oracle_values.extend(
                instance.total_runtime(members[k]) for k in chunk
            )
            oracle_time += time.perf_counter() - t0
        return {
            "instance": {"kind": "tpcds", "n_indexes": n},
            "masks": "all indexes but one pair",
            "misses": engine.stats.memo_misses,
            "engine_seconds": engine_time,
            "oracle_seconds": oracle_time,
            "speedup": oracle_time / engine_time,
            "floor": FLOOR,
            "values_identical": [v.hex() for v in engine_values]
            == [v.hex() for v in oracle_values],
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    write_rows(RESULTS_PATH, {"runtime_delta": results})
    assert results["values_identical"]
    assert results["misses"] == len(masks)
    if os.environ.get("GITHUB_ACTIONS") != "true":
        assert results["speedup"] >= FLOOR, results


def _same_search(result, oracle):
    """Same proof, order, objective bits and trace values."""
    return (
        result.status is SolveStatus.OPTIMAL
        and list(result.solution.order) == oracle.order
        and result.solution.objective.hex() == oracle.objective.hex()
        and [value.hex() for _, value in result.trace]
        == [value.hex() for value in oracle.trace]
    )


def test_learned_bound_beats_the_oracle(benchmark):
    rounds = smoke_size(SEARCH_ROUNDS)
    cells = {}
    for name, (make, constrained) in SEARCH_CELLS.items():
        instance = make()
        constraints = analyze(instance).constraints if constrained else None
        cells[name] = (instance, constraints)

    def run():
        rows = {}
        for name, (instance, constraints) in cells.items():
            seconds = {"oracle": 0.0, "dfs": 0.0}
            identical = True
            for round_ in range(rounds):
                # Alternate which search runs first.
                sides = ("oracle", "dfs") if round_ % 2 else ("dfs", "oracle")
                for side in sides:
                    if side == "oracle":
                        t0 = time.perf_counter()
                        oracle = oracle_dfs(instance, constraints)
                    else:
                        solver = ExhaustiveSolver()
                        solver.engine = EvalEngine(instance)
                        t0 = time.perf_counter()
                        result = solver.solve(instance, constraints)
                    seconds[side] += time.perf_counter() - t0
                identical = identical and _same_search(result, oracle)
            rows[name] = {
                "n_indexes": instance.n_indexes,
                "constrained": constraints is not None,
                "oracle_nodes": oracle.nodes,
                "dfs_nodes": result.nodes,
                "tt_prunes": solver.engine.stats.tt_prunes,
                "oracle_seconds": seconds["oracle"] / rounds,
                "dfs_seconds": seconds["dfs"] / rounds,
                "speedup": seconds["oracle"] / seconds["dfs"],
                "identical": identical,
            }
        return {"rounds": rounds, "floor": SEARCH_FLOOR, "cells": rows}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    write_rows(RESULTS_PATH, {"dfs_learned_bound": results})
    for name, row in results["cells"].items():
        assert row["identical"], name
        assert row["dfs_nodes"] <= row["oracle_nodes"], name
        if os.environ.get("GITHUB_ACTIONS") != "true":
            assert row["speedup"] >= SEARCH_FLOOR, (name, row)
