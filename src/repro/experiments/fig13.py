"""Figure 13: where VNS improvements come from (TPC-DS).

The paper decomposes the VNS objective gains into the two user-facing
quantities: total deployment time (drops sharply in the first minutes as
build interactions are exploited) and average query runtime during
deployment (improves steadily afterwards as high-impact indexes move
earlier).  This experiment re-runs VNS with an incumbent hook and
evaluates the exact deployment schedule of every improvement.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.analysis.fixpoint import analyze
from repro.core.objective import ObjectiveEvaluator
from repro.experiments.harness import ResultTable, quick_mode
from repro.experiments.instances import (
    reduced_tpch,
    tpcds_instance,
    tpch_instance,
)
from repro.experiments.parallel import Cell, derive_seed, run_cells
from repro.solvers.base import Budget
from repro.solvers.greedy import greedy_order
from repro.solvers.localsearch import VNSSolver

__all__ = ["run", "vns_schedule_series"]


def _resolve_instance(name: str):
    """Map an instance name to a ProblemInstance.

    Strings (not instance objects) travel to worker processes, so
    cells stay cheap to ship and reproducible from their spec alone.
    """
    if name == "tpcds":
        return tpcds_instance()
    if name == "tpch":
        return tpch_instance()
    if name.startswith("reduced-"):
        return reduced_tpch(int(name.split("-", 1)[1]))
    raise ValueError(f"unknown fig13 instance {name!r}")


def vns_schedule_series(
    time_limit: float, seed: int = 0, instance_name: str = "tpcds"
) -> List[Tuple[float, float, float]]:
    """Run VNS; return ``(t, deploy_time, avg_runtime)`` points.

    Each point corresponds to an incumbent improvement (each improving
    relaxation and each improving descent pass); the incumbent order's
    deployment schedule is evaluated exactly (no interpolation).  The
    orders are stored during the solve and scheduled after it, so the
    schedules cost the solve none of its budget.
    """
    instance = _resolve_instance(instance_name)
    report = analyze(instance, time_budget=min(10.0, time_limit))
    constraints = report.constraints
    initial = greedy_order(instance, constraints)
    improvements: List[Tuple[float, List[int]]] = [(0.0, initial)]
    solver = VNSSolver(
        seed=seed,
        initial_order=initial,
        on_improvement=lambda elapsed, order: improvements.append(
            (elapsed, order)
        ),
    )
    solver.solve(instance, constraints, Budget(time_limit=time_limit))
    evaluator = ObjectiveEvaluator(instance)
    points: List[Tuple[float, float, float]] = []
    for elapsed, order in improvements:
        schedule = evaluator.schedule(order)
        points.append(
            (
                elapsed,
                schedule.total_deploy_time,
                schedule.average_runtime_during_deployment,
            )
        )
    return points


def _sampled(
    points: List[Tuple[float, float, float]], time_limit: float
) -> List[Tuple[float, float, float]]:
    """The start, then the last improvement by each tenth of the budget."""
    rows = [points[0]]
    for tenth in range(1, 11):
        latest = [p for p in points if p[0] <= time_limit * tenth / 10]
        if latest[-1] is not rows[-1]:
            rows.append(latest[-1])
    if points[-1] is not rows[-1]:
        rows.append(points[-1])
    return rows


def run(
    time_limit: Optional[float] = None,
    workers: int = 1,
    seeds: Optional[Sequence[int]] = None,
    instance_name: str = "tpcds",
) -> ResultTable:
    """Regenerate Figure 13 as a two-series table.

    With several ``seeds`` the VNS runs race (one grid cell per seed,
    sharded across ``workers`` processes); the table reports the seed
    whose final deployment time is lowest and footnotes the others.
    Per-cell seeds derive deterministically from the cell index, so the
    race is reproducible for any worker count.
    """
    quick = quick_mode()
    if time_limit is None:
        time_limit = 6.0 if quick else 120.0
    if seeds is None:
        seeds = (0,)
    cells = [
        Cell(
            index=position,
            label=f"fig13[seed={seed}]",
            fn=vns_schedule_series,
            args=(time_limit,),
            kwargs={
                "seed": seed if seed is not None else derive_seed(0, position),
                "instance_name": instance_name,
            },
        )
        for position, seed in enumerate(seeds)
    ]
    # Hang guard only: greedy construction and the first VNS descent on
    # the full TPC-DS instance are not bounded by time_limit, so the
    # cap must be generous relative to the nominal budget.
    timeout = (
        None
        if workers <= 1
        else len(cells) * max(600.0, 30.0 * time_limit) + 60.0
    )
    outcomes = run_cells(cells, workers=workers, timeout=timeout)
    racers: List[Tuple[int, List[Tuple[float, float, float]]]] = []
    errors: List[str] = []
    for seed, outcome in zip(seeds, outcomes):
        if outcome.ok and outcome.value:
            racers.append((seed, outcome.value))
        else:
            errors.append(
                f"{outcome.label}: {outcome.error or 'empty series'}"
            )
    if not racers:
        raise RuntimeError(
            "fig13: every seed cell failed: " + "; ".join(errors)
        )
    # The winner is the seed with the lowest final deployment time —
    # ties resolve to the earliest seed, keeping single-seed runs
    # byte-identical to the historical sequential output.
    winner_seed, points = min(
        racers, key=lambda racer: (racer[1][-1][1], racer[0])
    )
    display = {"tpcds": "TPC-DS", "tpch": "TPC-H"}.get(
        instance_name, instance_name
    )
    table = ResultTable(
        title=(
            f"Figure 13: VNS ({display}) — deployment time and average query "
            f"runtime during deployment (budget {time_limit:.0f}s)"
        ),
        headers=["Elapsed [s]", "Deployment time", "Avg query runtime"],
    )
    for elapsed, deploy, average in _sampled(points, time_limit):
        table.add_row(elapsed, deploy, average)
    table.add_note(
        f"{len(points) - 1} improvements; rows show the start and the "
        "last improvement by each tenth of the budget"
    )
    if len(points) >= 2:
        first_deploy = points[0][1]
        last_deploy = points[-1][1]
        table.add_note(
            f"deployment time: {first_deploy:.1f} -> {last_deploy:.1f} "
            f"({100 * (first_deploy - last_deploy) / first_deploy:.1f}% "
            f"reduction)"
        )
    table.add_note(
        "paper shape: deployment time falls early (build interactions), "
        "average runtime keeps improving afterwards (speed-ups pulled "
        "to early steps)"
    )
    if len(racers) > 1:
        finals = ", ".join(
            f"seed {seed}: {series[-1][1]:.1f}" for seed, series in racers
        )
        table.add_note(
            f"seed race (winner seed {winner_seed}): final deployment "
            f"time by seed — {finals}"
        )
    for error in errors:
        table.add_note(f"sharded cell failed: {error}")
    return table

if __name__ == "__main__":
    print(run().render())
