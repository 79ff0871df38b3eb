#!/usr/bin/env python
"""Quickstart: define a small instance, analyze it, and order deployment.

Builds the paper's running example by hand — competing plans, a query
interaction, and a build interaction — then runs the Section-5
pre-analysis and three solvers, and prints the optimized deployment
schedule with its improvement curve.

Run:  python examples/quickstart.py
"""

from repro import (
    Budget,
    BuildInteraction,
    CPSolver,
    GreedySolver,
    IndexDef,
    ObjectiveEvaluator,
    PlanDef,
    ProblemInstance,
    QueryDef,
    VNSSolver,
    analyze,
    normalized_objective,
)


def build_instance() -> ProblemInstance:
    """The Section-4.2 example, slightly enlarged.

    Indexes 0/1 mirror i1(City) and i2(City, Salary): competing plans
    for the salary query, plus a build interaction in both directions.
    Indexes 2/3 mirror the self-join example: only useful together.
    """
    indexes = [
        IndexDef(0, "ix_people_city", create_cost=40.0),
        IndexDef(1, "ix_people_city_salary", create_cost=70.0),
        IndexDef(2, "ix_people_city_only", create_cost=35.0),
        IndexDef(3, "ix_people_empid", create_cost=30.0),
        IndexDef(4, "ix_people_age", create_cost=25.0),
    ]
    queries = [
        QueryDef(0, "avg_salary_by_city", base_runtime=100.0),
        QueryDef(1, "reports_to_join", base_runtime=80.0),
        QueryDef(2, "age_rollup", base_runtime=60.0),
    ]
    plans = [
        # Competing plans: the covering index is strictly better.
        PlanDef(0, 0, frozenset([0]), speedup=20.0),
        PlanDef(1, 0, frozenset([1]), speedup=55.0),
        # Query interaction: the join needs both indexes.
        PlanDef(2, 1, frozenset([2, 3]), speedup=50.0),
        # A plain single-index plan.
        PlanDef(3, 2, frozenset([4]), speedup=25.0),
    ]
    interactions = [
        # i1(City) builds fast from i2(City, Salary) and vice versa.
        BuildInteraction(target=0, helper=1, saving=28.0),
        BuildInteraction(target=1, helper=0, saving=20.0),
    ]
    return ProblemInstance(
        indexes, queries, plans, interactions, name="quickstart"
    )


def main() -> None:
    instance = build_instance()
    print(instance)
    evaluator = ObjectiveEvaluator(instance)

    print("\n-- Section-5 pre-analysis --")
    report = analyze(instance)
    print(report.describe())
    for first, second in report.constraints.precedence_edges:
        print(
            f"  precedence: {instance.indexes[first].name} before "
            f"{instance.indexes[second].name}"
        )
    for first, second in report.constraints.consecutive_pairs:
        print(
            f"  alliance: {instance.indexes[second].name} immediately "
            f"after {instance.indexes[first].name}"
        )

    print("\n-- Solvers --")
    results = {
        "greedy": GreedySolver().solve(instance, report.constraints),
        "cp (exact)": CPSolver().solve(
            instance, report.constraints, Budget(time_limit=10.0)
        ),
        "vns": VNSSolver().solve(
            instance, report.constraints, Budget(time_limit=2.0)
        ),
    }
    for name, result in results.items():
        names = " -> ".join(
            instance.indexes[i].name.replace("ix_people_", "")
            for i in result.solution.order
        )
        print(
            f"  {name:11s} obj={result.solution.objective:9.1f} "
            f"(norm {normalized_objective(instance, result.solution.objective):5.2f})  {names}"
        )

    best = min(results.values(), key=lambda r: r.solution.objective)
    schedule = evaluator.schedule(best.solution.order)
    print("\n-- Best deployment schedule --")
    print(f"{'#':>2} {'index':28s} {'start':>8} {'cost':>8} {'saved':>7} {'runtime':>9}")
    for step in schedule.steps:
        print(
            f"{step.position:2d} {instance.indexes[step.index_id].name:28s} "
            f"{step.start_time:8.1f} {step.build_cost:8.1f} "
            f"{step.saving:7.1f} {step.runtime_after:9.1f}"
        )
    print(f"\ntotal deployment time : {schedule.total_deploy_time:.1f}")
    print(f"objective (area)      : {schedule.objective:.1f}")
    print(
        "improvement curve     : "
        + ", ".join(f"({t:.0f}, {r:.0f})" for t, r in schedule.improvement_curve())
    )


if __name__ == "__main__":
    main()
