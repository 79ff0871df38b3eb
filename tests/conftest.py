"""Shared fixtures and brute-force oracles for the test suite.

The key testing strategy: for small instances (n <= 8) we can compute the
true optimal objective by enumerating every permutation with the
reference :class:`ObjectiveEvaluator`.  Every solver, pruning property,
and evaluator optimization is checked against that oracle.
"""

from __future__ import annotations

import itertools
from typing import Iterable, List, Optional, Sequence, Tuple

import pytest

from repro.analysis.constraints import ConstraintSet
from repro.core.instance import (
    BuildInteraction,
    IndexDef,
    PlanDef,
    PrecedenceRule,
    ProblemInstance,
    QueryDef,
)
from repro.core.objective import ObjectiveEvaluator
from repro.workloads.generator import GeneratorConfig, generate_instance


# ----------------------------------------------------------------------
# Hand-built instances with known structure
# ----------------------------------------------------------------------
def make_paper_example() -> ProblemInstance:
    """The Section 4.2 City/Salary example.

    i0 = ix_city(City), i1 = ix_city_salary(City, Salary); one query with
    base runtime 100; i0 alone saves 5, covering i1 saves 20; i1 helps
    build i0 (saving 28 of its 40-cost build).
    """
    return ProblemInstance(
        indexes=[
            IndexDef(0, "ix_city", create_cost=40.0),
            IndexDef(1, "ix_city_salary", create_cost=70.0),
        ],
        queries=[QueryDef(0, "avg_salary_by_city", base_runtime=100.0)],
        plans=[
            PlanDef(0, 0, frozenset({0}), speedup=5.0),
            PlanDef(1, 0, frozenset({1}), speedup=20.0),
        ],
        build_interactions=[BuildInteraction(target=0, helper=1, saving=28.0)],
        name="paper-4.2",
    )


def make_join_example() -> ProblemInstance:
    """The Section 4.2 query-interaction (self-join) example.

    i0(City) and i1(EmpID) are each useless alone but fast together.
    """
    return ProblemInstance(
        indexes=[
            IndexDef(0, "ix_city", create_cost=30.0),
            IndexDef(1, "ix_empid", create_cost=50.0),
        ],
        queries=[QueryDef(0, "self_join", base_runtime=200.0)],
        plans=[PlanDef(0, 0, frozenset({0, 1}), speedup=150.0)],
        name="paper-join",
    )


def make_tiny3() -> ProblemInstance:
    """Three independent indexes with distinct densities.

    With no interactions the optimal order is by descending density
    (speedup / cost): i2 (10/5=2.0) -> i0 (12/10=1.2) -> i1 (8/20=0.4).
    """
    return ProblemInstance(
        indexes=[
            IndexDef(0, "a", create_cost=10.0),
            IndexDef(1, "b", create_cost=20.0),
            IndexDef(2, "c", create_cost=5.0),
        ],
        queries=[
            QueryDef(0, "q0", base_runtime=50.0),
            QueryDef(1, "q1", base_runtime=40.0),
            QueryDef(2, "q2", base_runtime=30.0),
        ],
        plans=[
            PlanDef(0, 0, frozenset({0}), speedup=12.0),
            PlanDef(1, 1, frozenset({1}), speedup=8.0),
            PlanDef(2, 2, frozenset({2}), speedup=10.0),
        ],
        name="tiny3",
    )


def make_precedence_example() -> ProblemInstance:
    """Clustered-before-secondary precedence (MV example of Section 4.2)."""
    return ProblemInstance(
        indexes=[
            IndexDef(0, "cx_mv", create_cost=60.0),
            IndexDef(1, "ix_mv_a", create_cost=20.0),
            IndexDef(2, "ix_mv_b", create_cost=25.0),
        ],
        queries=[QueryDef(0, "q", base_runtime=100.0)],
        plans=[
            PlanDef(0, 0, frozenset({0}), speedup=10.0),
            PlanDef(1, 0, frozenset({1}), speedup=40.0),
            PlanDef(2, 0, frozenset({2}), speedup=60.0),
        ],
        precedences=[
            PrecedenceRule(0, 1, reason="clustered first"),
            PrecedenceRule(0, 2, reason="clustered first"),
        ],
        name="mv-precedence",
    )


# ----------------------------------------------------------------------
# Brute-force oracles
# ----------------------------------------------------------------------
def order_feasible(
    order: Sequence[int], constraints: Optional[ConstraintSet]
) -> bool:
    """True when ``order`` satisfies all constraints (or there are none)."""
    if constraints is None:
        return True
    return constraints.check_order(order)


def brute_force_best(
    instance: ProblemInstance,
    constraints: Optional[ConstraintSet] = None,
) -> Tuple[Tuple[int, ...], float]:
    """Enumerate every feasible permutation; return (best order, objective).

    Only usable for small ``n`` (8! = 40320 evaluations).
    """
    evaluator = ObjectiveEvaluator(instance)
    best_order: Optional[Tuple[int, ...]] = None
    best_objective = float("inf")
    for order in itertools.permutations(range(instance.n_indexes)):
        if not order_feasible(order, constraints):
            continue
        objective = evaluator.evaluate(order)
        if objective < best_objective:
            best_objective = objective
            best_order = order
    assert best_order is not None, "no feasible permutation"
    return best_order, best_objective


def brute_force_all(
    instance: ProblemInstance,
) -> List[Tuple[Tuple[int, ...], float]]:
    """All (order, objective) pairs, for distribution-level assertions."""
    evaluator = ObjectiveEvaluator(instance)
    return [
        (order, evaluator.evaluate(order))
        for order in itertools.permutations(range(instance.n_indexes))
    ]


def small_synthetic(seed: int, n: int = 6, **overrides) -> ProblemInstance:
    """A deterministic small synthetic instance for oracle comparisons."""
    overrides.setdefault("n_queries", max(3, n - 1))
    config = GeneratorConfig(n_indexes=n, **overrides)
    return generate_instance(seed=seed, config=config)


def tpcds_shaped(n: int = 64) -> ProblemInstance:
    """The extracted TPC-DS matrix's shape scaled to ``n`` indexes.

    TPC-DS has 102 queries, 2564 plans (84% multi-index) and 278 build
    interactions over 139 indexes; plans here have at most 4 members.
    At n=64 (47 queries, 1154 plans) this is the ``search-tpcds``
    benchmark matrix, above the numpy kernel's ``auto`` threshold.
    """
    config = GeneratorConfig(
        n_indexes=n,
        n_queries=round(n * 102 / 139),
        plans_per_query=2564 / 102,
        max_plan_size=4,
        multi_index_fraction=(2564 - 412) / 2564,
        build_interaction_rate=278 / 139,
    )
    return generate_instance(seed=2012, config=config)


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------
@pytest.fixture
def paper_example() -> ProblemInstance:
    return make_paper_example()


@pytest.fixture
def join_example() -> ProblemInstance:
    return make_join_example()


@pytest.fixture
def tiny3() -> ProblemInstance:
    return make_tiny3()


@pytest.fixture
def precedence_example() -> ProblemInstance:
    return make_precedence_example()


@pytest.fixture(scope="session")
def tpch_full() -> ProblemInstance:
    from repro.experiments.instances import tpch_instance

    return tpch_instance()


@pytest.fixture(scope="session")
def tpcds_full() -> ProblemInstance:
    from repro.experiments.instances import tpcds_instance

    return tpcds_instance()


@pytest.fixture(scope="session")
def reduced_tpch_13() -> ProblemInstance:
    from repro.experiments.instances import reduced_tpch

    return reduced_tpch(13, "low")
