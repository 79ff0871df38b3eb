"""Figure 11: local search on TPC-H (anytime quality curves).

Paper setting: 60 seconds, average of 5 runs; VNS and the Tabu variants
descend quickly from the shared greedy start while plain LNS improves
slowly (fixed neighborhood) and pure CP barely moves (overwhelmed by
the full neighborhood).  The reproduction runs the same five methods
from the same greedy initial solution and samples each anytime trace on
a common time grid (normalized objective, lower is better).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.fixpoint import analyze
from repro.core.instance import ProblemInstance
from repro.core.objective import normalized_objective
from repro.experiments.harness import (
    ResultTable,
    engine_stats_note,
    make_solver,
    quick_mode,
)
from repro.experiments.instances import tpch_instance
from repro.solvers.base import Budget
from repro.solvers.greedy import greedy_order
from repro.solvers.registry import get_spec

__all__ = ["run", "local_search_traces"]


def local_search_traces(
    instance: ProblemInstance,
    methods: Sequence[str],
    time_limit: float,
    seeds: Sequence[int] = (0,),
    stats_out: Optional[Dict[str, Dict[str, int]]] = None,
) -> Dict[str, List[List[tuple]]]:
    """Run each method from the shared greedy start; return raw traces.

    Methods are resolved through the solver registry; capability flags
    decide which keywords a method receives (warm start, seed).  When
    ``stats_out`` is given, each method's accumulated engine counters
    are stored under its name.
    """
    report = analyze(instance, time_budget=min(10.0, time_limit))
    constraints = report.constraints
    initial = greedy_order(instance, constraints)
    traces: Dict[str, List[List[tuple]]] = {}
    for method in methods:
        spec = get_spec(method)
        runs: List[List[tuple]] = []
        totals: Dict[str, int] = {}
        for seed in seeds:
            kwargs: Dict[str, object] = {}
            if spec.accepts_initial_order:
                kwargs["initial_order"] = initial
            if spec.stochastic:
                kwargs["seed"] = seed
            solver = make_solver(method, **kwargs)
            result = solver.solve(
                instance, constraints, Budget(time_limit=time_limit)
            )
            runs.append(list(result.trace))
            run_stats = getattr(solver, "last_engine_stats", None)
            if run_stats:
                for key, value in run_stats.items():
                    totals[key] = totals.get(key, 0) + value
        traces[method] = runs
        if stats_out is not None and totals:
            stats_out[method] = totals
    return traces


def sample_trace(
    trace_runs: List[List[tuple]], time_points: Sequence[float]
) -> List[Optional[float]]:
    """Average best-so-far objective across runs at each time point."""
    sampled: List[Optional[float]] = []
    for point in time_points:
        values = []
        for events in trace_runs:
            best = None
            for elapsed, objective in events:
                if elapsed <= point and (best is None or objective < best):
                    best = objective
            if best is not None:
                values.append(best)
        sampled.append(sum(values) / len(values) if values else None)
    return sampled


def run(
    time_limit: Optional[float] = None, n_runs: Optional[int] = None
) -> ResultTable:
    """Regenerate Figure 11 as a sampled-curve table."""
    quick = quick_mode()
    if time_limit is None:
        time_limit = 4.0 if quick else 60.0
    if n_runs is None:
        n_runs = 2 if quick else 5
    instance = tpch_instance()
    methods = ["vns", "lns", "ts-bswap", "ts-fswap", "cp"]
    engine_stats: Dict[str, Dict[str, int]] = {}
    traces = local_search_traces(
        instance, methods, time_limit, seeds=range(n_runs),
        stats_out=engine_stats,
    )
    time_points = [time_limit * f for f in (0.1, 0.25, 0.5, 0.75, 1.0)]
    table = ResultTable(
        title=(
            f"Figure 11: Local Search (TPC-H), normalized objective vs "
            f"time (avg of {n_runs} runs, budget {time_limit:.0f}s)"
        ),
        headers=["Method"] + [f"t={point:.1f}s" for point in time_points],
    )
    for method in methods:
        sampled = sample_trace(traces[method], time_points)
        table.add_row(
            method.upper(),
            *[
                normalized_objective(instance, value)
                if value is not None
                else None
                for value in sampled
            ],
        )
    table.add_note(
        "paper shape: VNS/TS-BSwap lead, LNS lags (fixed neighborhood), "
        "CP barely improves on the greedy start"
    )
    for method in methods:
        note = engine_stats_note(method, engine_stats.get(method))
        if note is not None:
            table.add_note(note)
    return table

if __name__ == "__main__":
    print(run().render())
