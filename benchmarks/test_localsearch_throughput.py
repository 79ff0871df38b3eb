"""Local-search move-evaluation throughput: EvalEngine vs PrefixCached.

The tentpole claim of the engine consolidation is that delta evaluation
makes the fig11/fig12 hot path measurably faster than the checkpoint
evaluator it replaced.  This benchmark pins that claim: the same swap
sequence is evaluated by both backends, *interleaved in one process*
(this machine's CPU frequency drifts between processes, so only
same-process ratios are stable), and the engine must stay ahead.

Three patterns are measured against the checkpoint evaluator:

* ``scan`` — the TS-BSwap pair scan (``pos_a`` ascending, ``pos_b``
  inner), where cursor alignment is amortized to single steps and the
  divergence window is the whole saving; this is the actual tabu hot
  path.
* ``random`` — uniformly random swaps, the worst case for cursor
  alignment.
* ``scattered`` — multi-chunk neighbors of the LNS relaxation shape,
  exercising the balanced-chunk + base-snapshot ``evaluate_neighbor``
  path (the neighbor replays only its changed runs, not the gaps).

A second benchmark pins the vectorized layer (``repro.core.batch``):
the same tabu neighborhood-scan sequence runs through the scalar and
numpy kernels of ``EvalEngine.eval_all_swaps``, interleaved scan by
scan, and the median per-scan ratio must clear a floor *including* the
numpy kernel's per-base precompute: >= 3x on a synthetic n=96 instance,
>= 6x on the ``search-tpcds`` benchmark matrix (n=64) and >= 3x on
TPC-H (n=32).  Results land in ``BENCH_batch.json``, one row per
instance.  Its ``crossover`` row runs the same A/B on reduced TPC-H
from 9 to 22 indexes and on TPC-H: ``NUMPY_MIN_N`` is the size from
which numpy wins, and every measured size at or above it must reach
>= 1.2x.

A third benchmark pins the incremental Algorithm-1 greedy: it and the
full-recompute oracle (``tests/greedy_oracle.py``) run interleaved on
the TPC-DS matrix, must return the same order, and the incremental
greedy must be >= 10x faster.  That row is ``greedy`` in
``BENCH_localsearch.json``.

Measured on the reference box: ~2.3x (scan), ~1.3x (random), ~2.2x
(scattered), ~29x / ~22x / ~5.5x (numpy batch vs scalar scan, n=96 /
search-tpcds / TPC-H), ~40x (greedy, n=139).  The asserted floors are
deliberately conservative to absorb machine noise; the search-tpcds
floor also fails the previous per-row kernel (~1.7-2.3x there).
"""

from __future__ import annotations

import os
import random
import statistics
import time
from pathlib import Path

import pytest

from repro.core.batch import NUMPY_MIN_N
from repro.core.engine import EvalEngine
from repro.core.objective import PrefixCachedEvaluator
from repro.experiments.instances import (
    reduced_tpch,
    tpcds_instance,
    tpch_instance,
)
from repro.solvers.greedy import greedy_order
from repro.workloads import GeneratorConfig, generate_instance

from benchmarks.ledger import smoke_size, write_rows
from tests.conftest import tpcds_shaped
from tests.greedy_oracle import oracle_greedy_order

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_localsearch.json"
BATCH_RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_batch.json"


def _checkpoint_steps(n: int, first: int, stride: int) -> int:
    """Steps ``PrefixCachedEvaluator`` replays for a candidate whose
    first divergence from the base is at ``first``: from the checkpoint
    at or before it to the end of the order."""
    return n - (first // stride) * stride


def _interleaved_ratio(instance, moves, rounds: int) -> dict:
    n = instance.n_indexes
    base = list(range(n))
    random.Random(0).shuffle(base)
    engine = EvalEngine(instance)
    engine.set_base(base)
    cached = PrefixCachedEvaluator(instance)
    cached.set_base(base)
    engine_time = cached_time = 0.0
    slice_n = max(1, len(moves) // 8)
    for _ in range(rounds):
        for start in range(0, len(moves), slice_n):
            chunk = moves[start : start + slice_n]
            t0 = time.perf_counter()
            for pos_a, pos_b in chunk:
                engine.eval_swap(pos_a, pos_b)
            engine_time += time.perf_counter() - t0
            t0 = time.perf_counter()
            for pos_a, pos_b in chunk:
                cached.evaluate_swap(pos_a, pos_b)
            cached_time += time.perf_counter() - t0
    # Spot-check agreement on the last chunk so the ratio cannot be won
    # by computing the wrong thing fast.
    for pos_a, pos_b in moves[:25]:
        assert engine.eval_swap(pos_a, pos_b) == pytest.approx(
            cached.evaluate_swap(pos_a, pos_b), rel=1e-9
        )
    evaluated = moves * rounds + moves[:25]
    return {
        "engine_seconds": engine_time,
        "prefix_cached_seconds": cached_time,
        "speedup": cached_time / engine_time if engine_time else float("inf"),
        "moves": len(moves) * rounds,
        "replayed_steps": engine.stats.replayed_steps,
        "checkpoint_steps": sum(
            _checkpoint_steps(n, min(pos_a, pos_b), cached.stride)
            for pos_a, pos_b in evaluated
            if pos_a != pos_b
        ),
    }


def _interleaved_scattered_ratio(instance, orders, rounds: int) -> dict:
    """A/B ``evaluate_neighbor`` vs checkpoint replay on scattered
    multi-chunk neighbors (the LNS relaxation shape)."""
    base = list(range(instance.n_indexes))
    random.Random(0).shuffle(base)
    engine = EvalEngine(instance)
    engine.set_base(base)
    cached = PrefixCachedEvaluator(instance)
    cached.set_base(base)
    engine_time = cached_time = 0.0
    slice_n = max(1, len(orders) // 8)
    for _ in range(rounds):
        for start in range(0, len(orders), slice_n):
            chunk = orders[start : start + slice_n]
            t0 = time.perf_counter()
            for order in chunk:
                engine.evaluate_neighbor(order)
            engine_time += time.perf_counter() - t0
            t0 = time.perf_counter()
            for order in chunk:
                cached.evaluate(order)
            cached_time += time.perf_counter() - t0
    for order in orders[:25]:
        assert engine.evaluate_neighbor(order) == pytest.approx(
            cached.evaluate(order), rel=1e-9
        )
    evaluated = orders * rounds + orders[:25]
    n = len(base)
    return {
        "engine_seconds": engine_time,
        "prefix_cached_seconds": cached_time,
        "speedup": cached_time / engine_time if engine_time else float("inf"),
        "moves": len(orders) * rounds,
        "replayed_steps": engine.stats.replayed_steps,
        "checkpoint_steps": sum(
            _checkpoint_steps(
                n,
                next(k for k in range(n) if order[k] != base[k]),
                cached.stride,
            )
            for order in evaluated
        ),
    }


def _scattered_orders(n: int, count: int, seed: int = 1):
    """Neighbors differing from the identity base in 3 distant spots."""
    rng = random.Random(seed)
    base = list(range(n))
    random.Random(0).shuffle(base)
    orders = []
    for _ in range(count):
        order = base[:]
        for pos in sorted(rng.sample(range(n - 1), 3)):
            order[pos], order[pos + 1] = order[pos + 1], order[pos]
        orders.append(order)
    return orders


def test_engine_beats_prefix_cached_on_tabu_scan(benchmark):
    instance = tpch_instance()
    n = instance.n_indexes
    scan = [(a, b) for a in range(n - 1) for b in range(a + 1, n)]
    rng = random.Random(1)
    randoms = [(rng.randrange(n), rng.randrange(n)) for _ in range(2000)]
    scattered = _scattered_orders(n, 400)

    def run():
        return {
            "scan": _interleaved_ratio(instance, scan, rounds=smoke_size(8)),
            "random": _interleaved_ratio(
                instance, randoms, rounds=smoke_size(3)
            ),
            "scattered": _interleaved_scattered_ratio(
                instance, scattered, rounds=smoke_size(3)
            ),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    write_rows(RESULTS_PATH, results)
    # The engine must replay fewer steps than checkpoint replay on the
    # patterns it was built for (deterministic), and finish faster.
    # Wall-clock floors are conservative vs the measured ~2.3x / ~1.3x /
    # ~2.2x, and skipped on shared CI runners where scheduler jitter can
    # distort even an interleaved ratio.
    scan_stats = results["scan"]
    assert scan_stats["replayed_steps"] < scan_stats["checkpoint_steps"]
    scattered_stats = results["scattered"]
    assert (
        scattered_stats["replayed_steps"] < scattered_stats["checkpoint_steps"]
    )
    if os.environ.get("GITHUB_ACTIONS") != "true":
        assert scan_stats["speedup"] >= 1.3, scan_stats
        assert results["random"]["speedup"] >= 0.9, results["random"]
        assert scattered_stats["speedup"] >= 1.2, scattered_stats


def _batch_scan_ab(instance, rounds: int) -> dict:
    """Interleaved A/B: numpy ``eval_all_swaps`` vs the scalar delta
    path on ``rounds`` full tabu neighborhood scans, including the
    per-base precompute the numpy kernel pays on every rebase.

    One base order per scan round: each round mutates the previous
    order, so both kernels pay a genuine rebase + (for numpy) the
    per-base precompute before every whole-neighborhood scan.
    """
    n = instance.n_indexes
    base = list(range(n))
    random.Random(0).shuffle(base)
    orders = [base]
    for r in range(rounds - 1):
        order = orders[-1][:]
        pos = (5 * r) % (n - 7)
        order[pos], order[pos + 6] = order[pos + 6], order[pos]
        orders.append(order)
    scalar = EvalEngine(instance, kernel="scalar")
    numpy_engine = EvalEngine(instance, kernel="numpy")
    scalar_times, numpy_times = [], []
    for order in orders:
        t0 = time.perf_counter()
        numpy_engine.set_base(order)
        numpy_objectives, _feasible = numpy_engine.eval_all_swaps()
        numpy_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        scalar.set_base(order)
        scalar_objectives, _ = scalar.eval_all_swaps()
        scalar_times.append(time.perf_counter() - t0)
    # Parity check so the ratio cannot be won by computing the wrong
    # thing fast.
    assert numpy_objectives == pytest.approx(scalar_objectives, rel=1e-9)
    stats = numpy_engine.stats
    scan_speedups = [s / v for s, v in zip(scalar_times, numpy_times)]
    return {
        "scans": rounds,
        "moves_per_scan": n * (n - 1) // 2,
        "scalar_seconds": sum(scalar_times),
        "numpy_seconds": sum(numpy_times),
        "median_scalar_scan_seconds": statistics.median(scalar_times),
        "median_numpy_scan_seconds": statistics.median(numpy_times),
        "speedup": sum(scalar_times) / sum(numpy_times),
        "scan_speedups": scan_speedups,
        "median_scan_speedup": statistics.median(scan_speedups),
        "batch_evals": stats.batch_evals,
        "batch_moves": stats.batch_moves,
        "batch_numpy": stats.batch_numpy,
    }


#: The batch ledger's rows: instance, its description, and the floor on
#: the median per-scan numpy/scalar ratio.  ``search-tpcds`` and
#: ``tpch`` are the end-to-end benchmark's search matrices.
BATCH_CASES = {
    "n96": (
        lambda: generate_instance(
            seed=9,
            config=GeneratorConfig(
                n_indexes=96, n_queries=60, build_interaction_rate=1.5
            ),
        ),
        {"kind": "synthetic", "n_indexes": 96, "seed": 9},
        3.0,
    ),
    "search-tpcds": (
        lambda: tpcds_shaped(64),
        {"kind": "tpcds-shaped", "n_indexes": 64, "seed": 2012},
        6.0,
    ),
    "tpch": (tpch_instance, {"kind": "tpch", "n_indexes": 32}, 3.0),
}


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_numpy_batch_beats_scalar_on_tabu_scan(benchmark, case):
    """The numpy kernel clears a floor over the scalar scan on each
    instance ``auto`` runs it on (all are at or above ``NUMPY_MIN_N``).

    The floor is on the median per-scan ratio: the first numpy scan
    also pays the one-off ``FlatInstance`` lowering, and a single
    descheduled scan on a loaded box should not decide the verdict.
    """
    build, description, floor = BATCH_CASES[case]
    instance = build()
    assert instance.n_indexes >= NUMPY_MIN_N
    rounds = smoke_size(8)
    results = benchmark.pedantic(
        _batch_scan_ab, args=(instance, rounds), rounds=1, iterations=1
    )
    results = {"instance": description, **results, "floor": floor}
    write_rows(BATCH_RESULTS_PATH, {case: results})
    assert results["batch_numpy"] == rounds
    if os.environ.get("GITHUB_ACTIONS") != "true":
        assert results["median_scan_speedup"] >= floor, results


#: Reduced TPC-H cells (Tables 5-6) and full TPC-H, across the ``auto``
#: kernel threshold, and the ratio required from ``NUMPY_MIN_N`` up.
CROSSOVER_CELLS = (
    (9, "low"), (14, "mid"), (16, "low"), (20, "low"), (21, "mid"),
    (22, "low"), (32, None),
)
CROSSOVER_FLOOR = 1.2


def test_numpy_kernel_crossover(benchmark):
    """The median per-scan numpy/scalar ratio across instance sizes:
    ``NUMPY_MIN_N`` is read from this row, and every measured size at
    or above it must clear :data:`CROSSOVER_FLOOR`."""
    rounds = smoke_size(12)

    def run():
        row = {}
        for n, density in CROSSOVER_CELLS:
            if density is None:
                name, instance = "tpch", tpch_instance()
            else:
                name, instance = f"tpch-{n}-{density}", reduced_tpch(n, density)
            assert instance.n_indexes == n
            ab = _batch_scan_ab(instance, rounds)
            row[name] = {
                "n_indexes": n,
                "median_scan_speedup": ab["median_scan_speedup"],
                "median_scalar_scan_seconds": ab["median_scalar_scan_seconds"],
                "median_numpy_scan_seconds": ab["median_numpy_scan_seconds"],
            }
        return row

    row = benchmark.pedantic(run, rounds=1, iterations=1)
    write_rows(
        BATCH_RESULTS_PATH,
        {
            "crossover": {
                "scans": rounds,
                "numpy_min_n": NUMPY_MIN_N,
                "floor": CROSSOVER_FLOOR,
                "cells": row,
            }
        },
    )
    if os.environ.get("GITHUB_ACTIONS") != "true":
        for name, cell in row.items():
            if cell["n_indexes"] >= NUMPY_MIN_N:
                assert cell["median_scan_speedup"] >= CROSSOVER_FLOOR, (name, cell)


def test_incremental_greedy_beats_full_recompute(benchmark):
    """Interleaved A/B: ``greedy_order`` vs the full-recompute oracle on
    TPC-DS (n=139).  Both must return the same order; the incremental
    greedy must be >= 10x faster by the median per-round ratio."""
    instance = tpcds_instance()
    rounds = smoke_size(2)

    def run():
        oracle_times, incremental_times = [], []
        for _ in range(rounds):
            t0 = time.perf_counter()
            oracle = oracle_greedy_order(instance)
            oracle_times.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            incremental = greedy_order(instance)
            incremental_times.append(time.perf_counter() - t0)
            assert incremental == oracle
        speedups = [o / i for o, i in zip(oracle_times, incremental_times)]
        return {
            "instance": {"kind": "tpcds", "n_indexes": instance.n_indexes},
            "rounds": rounds,
            "oracle_seconds": oracle_times,
            "incremental_seconds": incremental_times,
            "median_speedup": statistics.median(speedups),
            "orders_identical": True,
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    write_rows(RESULTS_PATH, {"greedy": results})
    if os.environ.get("GITHUB_ACTIONS") != "true":
        assert results["median_speedup"] >= 10.0, results
