"""Unit tests for the interaction-guided greedy (Algorithm 1)."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.constraints import ConstraintSet
from repro.analysis.fixpoint import analyze
from repro.core.objective import ObjectiveEvaluator
from repro.core.solution import SolveStatus
from repro.errors import InfeasibleError
from repro.experiments.instances import reduced_tpch
from repro.solvers import registry
from repro.solvers.base import Budget
from repro.solvers.greedy import GreedySolver, greedy_order
from repro.solvers.random_search import random_statistics
from repro.workloads.generator import GeneratorConfig, generate_instance

from tests.conftest import (
    brute_force_best,
    make_join_example,
    make_precedence_example,
    make_tiny3,
    small_synthetic,
)
from tests.greedy_oracle import oracle_density, oracle_greedy_order


class TestGreedyOrder:
    def test_returns_permutation(self, tiny3):
        assert sorted(greedy_order(tiny3)) == [0, 1, 2]

    def test_density_order_on_independent_indexes(self, tiny3):
        # Densities: c=2.0, a=1.2, b=0.4.
        assert greedy_order(tiny3) == [2, 0, 1]

    def test_interaction_credit_groups_joint_plan(self, join_example):
        # Both indexes only matter together; the greedy must still order
        # them (via the future-opportunity credit) without crashing on
        # zero immediate benefit.
        order = greedy_order(join_example)
        assert sorted(order) == [0, 1]

    def test_respects_precedence_constraints(self, precedence_example):
        constraints = ConstraintSet(3)
        for rule in precedence_example.precedences:
            constraints.add_precedence(rule.before, rule.after)
        order = greedy_order(precedence_example, constraints)
        assert order.index(0) < order.index(1)
        assert order.index(0) < order.index(2)

    def test_respects_consecutive_constraints(self):
        instance = small_synthetic(seed=1, n=6)
        constraints = ConstraintSet(6)
        constraints.add_consecutive(2, 5)
        order = greedy_order(instance, constraints)
        assert order.index(5) == order.index(2) + 1

    @pytest.mark.parametrize("seed", range(6))
    def test_beats_random_average(self, seed):
        # Table 7's claim: greedy better than the random average.
        instance = small_synthetic(seed=seed, n=10, plans_per_query=3.0)
        evaluator = ObjectiveEvaluator(instance)
        greedy_objective = evaluator.evaluate(greedy_order(instance))
        average, _, _ = random_statistics(instance, samples=50, seed=seed)
        assert greedy_objective <= average


class TestGreedySolver:
    def test_solve_result_shape(self, tiny3):
        result = GreedySolver().solve(tiny3)
        assert result.status is SolveStatus.FEASIBLE
        assert result.solution is not None
        result.solution.validate_against(tiny3)

    def test_solver_name(self):
        assert GreedySolver().name == "greedy"

    def test_objective_matches_reference(self, tiny3):
        result = GreedySolver().solve(tiny3)
        reference = ObjectiveEvaluator(tiny3).evaluate(result.solution.order)
        assert result.solution.objective == pytest.approx(reference)

    def test_constraint_feasible_output(self):
        instance = small_synthetic(seed=5, n=8, precedence_rate=5.0)
        constraints = ConstraintSet(8)
        for rule in instance.precedences:
            constraints.add_precedence(rule.before, rule.after)
        result = GreedySolver().solve(instance, constraints=constraints)
        assert constraints.check_order(result.solution.order)


# ----------------------------------------------------------------------
# The incremental greedy against the full-recompute oracle
# ----------------------------------------------------------------------
def _random_constraints(rng, n: int, pairs: int, edges: int) -> ConstraintSet:
    """Random consecutive pairs and precedences; contradictions skipped."""
    constraints = ConstraintSet(n)
    for count, add in (
        (pairs, constraints.add_consecutive),
        (edges, constraints.add_precedence),
    ):
        for _ in range(count):
            a, b = rng.sample(range(n), 2)
            try:
                add(a, b)
            except InfeasibleError:
                continue
    return constraints


@st.composite
def greedy_cases(draw):
    """A generated instance with no, analysis or random constraints."""
    n = draw(st.integers(min_value=2, max_value=10))
    config = GeneratorConfig(
        n_indexes=n,
        n_queries=draw(st.integers(min_value=1, max_value=10)),
        plans_per_query=draw(st.sampled_from([1.0, 2.0, 4.0])),
        max_plan_size=draw(st.integers(min_value=1, max_value=4)),
        multi_index_fraction=draw(st.floats(min_value=0.0, max_value=1.0)),
        build_interaction_rate=draw(st.sampled_from([0.0, 1.0, 2.0])),
    )
    instance = generate_instance(draw(st.integers(0, 10**6)), config)
    mode = draw(st.sampled_from(["none", "analysis", "random"]))
    if mode == "analysis":
        return instance, analyze(instance, time_budget=None).constraints
    if mode == "random":
        rng = draw(st.randoms(use_true_random=False))
        return instance, _random_constraints(
            rng, n, pairs=rng.randint(1, 3), edges=rng.randint(0, 3)
        )
    return instance, None


class TestIncrementalParity:
    @settings(max_examples=80, deadline=None)
    @given(greedy_cases())
    def test_matches_full_recompute_oracle(self, case):
        instance, constraints = case
        got = greedy_order(instance, constraints)
        want = oracle_greedy_order(instance, constraints)
        if got == want:
            return
        # Only a near-tie may resolve differently: at the first
        # divergence both picks must have the same oracle density.
        k = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
        built = set(want[:k])
        assert oracle_density(instance, got[k], built) == pytest.approx(
            oracle_density(instance, want[k], built), rel=1e-9
        ), (got, want)

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=10**6),
        st.randoms(use_true_random=False),
    )
    def test_feasible_whenever_constraints_are(self, n, seed, rng):
        instance = small_synthetic(seed, n=n)
        constraints = _random_constraints(
            rng, n, pairs=rng.randint(1, 3), edges=rng.randint(0, 4)
        )
        satisfiable = any(
            constraints.check_order(order)
            for order in itertools.permutations(range(n))
        )
        order = greedy_order(instance, constraints)
        assert sorted(order) == list(range(n))
        if satisfiable:
            assert constraints.check_order(order), order


#: Today's orders, pinned so a change to the greedy shows up here even
#: when the oracle moves with it.
TPCH_ORDER = [
    1, 5, 0, 13, 14, 26, 9, 2, 3, 21, 25, 30, 16, 12, 18, 8, 4, 6, 7, 11,
    17, 15, 10, 19, 20, 23, 22, 24, 27, 28, 29, 31,
]
TPCDS_ORDER = [
    21, 0, 19, 70, 47, 95, 89, 24, 1, 83, 41, 107, 60, 55, 73, 13, 15, 10,
    108, 2, 59, 6, 29, 98, 74, 61, 77, 79, 106, 46, 110, 111, 12, 17, 92,
    51, 40, 68, 9, 124, 22, 104, 32, 25, 76, 115, 4, 52, 97, 14, 37, 116,
    27, 96, 54, 16, 125, 86, 8, 133, 127, 5, 11, 137, 132, 120, 88, 35,
    117, 7, 3, 121, 28, 18, 26, 23, 129, 20, 30, 31, 33, 135, 39, 82, 44,
    36, 85, 78, 38, 50, 48, 43, 45, 56, 49, 128, 57, 67, 65, 69, 62, 130,
    63, 102, 109, 66, 113, 71, 64, 80, 75, 103, 34, 87, 84, 118, 126, 72,
    81, 90, 91, 94, 93, 114, 136, 99, 100, 101, 122, 105, 134, 112, 123,
    119, 131, 138, 42, 53, 58,
]
#: Reduced TPC-H cells of Tables 5/6, greedy under their analysis.
REDUCED_ORDERS = {
    (9, "low"): [1, 0, 4, 7, 2, 3, 5, 8, 6],
    (13, "mid"): [1, 0, 4, 9, 2, 3, 8, 11, 5, 6, 10, 7, 12],
    (14, "mid"): [1, 0, 4, 10, 2, 3, 9, 5, 8, 12, 6, 11, 7, 13],
    (16, "low"): [1, 0, 9, 5, 2, 12, 4, 10, 6, 3, 14, 7, 11, 13, 8, 15],
    (4, "low"): [1, 0, 2, 3],
}


class TestOrderPins:
    def test_tpch(self, tpch_full):
        assert greedy_order(tpch_full) == TPCH_ORDER
        assert oracle_greedy_order(tpch_full) == TPCH_ORDER

    def test_tpcds(self, tpcds_full):
        assert greedy_order(tpcds_full) == TPCDS_ORDER

    @pytest.mark.parametrize(
        "cell", sorted(REDUCED_ORDERS), ids=lambda cell: "%d-%s" % cell
    )
    def test_reduced_tpch_with_analysis(self, cell):
        instance = reduced_tpch(*cell)
        constraints = analyze(instance, time_budget=None).constraints
        assert greedy_order(instance, constraints) == REDUCED_ORDERS[cell]
        assert oracle_greedy_order(instance, constraints) == REDUCED_ORDERS[cell]


# ----------------------------------------------------------------------
# Consecutive pair (a, b) plus another predecessor c of b
# ----------------------------------------------------------------------
#: (seed, a, b, c) of small_synthetic(seed, n=6) where picking ``a``
#: before ``c`` was once allowed, forcing ``b`` next and breaking c -> b.
CHAIN_CASES = [
    (0, 0, 1, 3), (1, 0, 1, 2), (2, 0, 1, 2), (3, 0, 1, 2), (4, 0, 1, 3),
    (5, 0, 1, 2), (6, 0, 1, 4), (7, 0, 3, 1), (8, 0, 1, 3), (9, 0, 1, 2),
]


class TestConsecutivePairWaitsForOtherPredecessors:
    @pytest.mark.parametrize(
        "name", ["greedy", "vns", "lns", "ts-bswap", "ts-fswap", "portfolio-ls"]
    )
    def test_solvers_return_feasible_orders(self, name):
        stochastic = registry.get_spec(name).stochastic
        for seed, a, b, c in CHAIN_CASES:
            instance = small_synthetic(seed, n=6)
            constraints = ConstraintSet(6)
            constraints.add_consecutive(a, b)
            constraints.add_precedence(c, b)
            solver = registry.create(name, **({"seed": 0} if stochastic else {}))
            result = solver.solve(
                instance, constraints, Budget(time_limit=0.1, node_limit=300)
            )
            assert constraints.check_order(result.solution.order), (
                name, seed, result.solution.order,
            )

    # MIP does not close at n=6; its incumbent must still be feasible.
    @pytest.mark.parametrize(
        "name, time_limit",
        [
            ("exhaustive", 30.0),
            ("cp", 30.0),
            ("astar", 30.0),
            ("subset-dp", 30.0),
            ("mip", 0.5),
        ],
    )
    def test_exact_solvers_return_feasible_optima(self, name, time_limit):
        for seed, a, b, c in CHAIN_CASES:
            instance = small_synthetic(seed, n=6)
            constraints = ConstraintSet(6)
            constraints.add_consecutive(a, b)
            constraints.add_precedence(c, b)
            result = registry.create(name).solve(
                instance, constraints, Budget(time_limit=time_limit)
            )
            order = result.solution.order
            assert constraints.check_order(order), (name, seed, order)
            if result.status is SolveStatus.OPTIMAL:
                _, best = brute_force_best(instance, constraints)
                assert result.solution.objective == pytest.approx(
                    best, rel=1e-9
                ), (name, seed)
