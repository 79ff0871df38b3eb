"""Search pins for the exact solvers on fixed cells.

The DFS (``exhaustive`` and ``cp``) scores
each child before deploying it, A* keeps each heap entry's heuristic,
and a built-set runtime miss is a delta over the previous one.  None of
that may change which nodes a search visits, so these cells pin node
counts, engine counters, orders, objective bits and traces.  The DFS's
learned suffix bounds cut nodes but no incumbent, so its orders,
objective bits and traces are those of the search without them
(``tests/dfs_oracle.py``), in fewer nodes.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.constraints import ConstraintSet
from repro.analysis.fixpoint import analyze
from repro.core.engine import EvalEngine
from repro.core.solution import SolveStatus
from repro.errors import InfeasibleError
from repro.experiments.instances import reduced_tpch, tpch_instance
from repro.solvers.astar import AStarSolver
from repro.solvers.base import Budget
from repro.solvers.cp import CPSolver
from repro.solvers.exhaustive import ExhaustiveSolver

from tests.conftest import small_synthetic, tpcds_shaped
from tests.dfs_oracle import oracle_dfs


def _first(instance, k):
    return instance.restrict_to_indexes(range(k), name=f"first-{k}")


def _solve(solver, instance, constrained, budget=None):
    """Solve on a fresh engine; returns the result and the engine stats."""
    constraints = analyze(instance).constraints if constrained else None
    solver.engine = EvalEngine(instance)
    result = solver.solve(instance, constraints, budget)
    return result, solver.engine.stats


def _trace_digest(result):
    values = " ".join(value.hex() for _, value in result.trace)
    digest = hashlib.sha256(values.encode()).hexdigest()[:16]
    return len(result.trace), digest


DFS_SOLVERS = {
    "exhaustive": ExhaustiveSolver,
    "cp": CPSolver,
}

#: cell -> (instance, with analyze() constraints, (nodes, tt_prunes,
#: tt_states), order, objective bits, (trace points, trace digest)).
DFS_CELLS = {
    "13-mid+": (
        lambda: reduced_tpch(13, "mid"),
        True,
        (39_816, 31_485, 5_703),
        (4, 3, 12, 2, 0, 5, 9, 11, 1, 6, 8, 10, 7),
        "0x1.f5fa047e3c3acp+42",
        (55, "ebbee3685b162364"),
    ),
    "9-low+": (
        lambda: reduced_tpch(9, "low"),
        True,
        (1_138, 762, 296),
        (0, 3, 5, 7, 4, 2, 1, 8, 6),
        "0x1.a76bc931887efp+42",
        (16, "62bef2b587510ec1"),
    ),
    "tpch-first-13": (
        lambda: _first(tpch_instance(), 13),
        False,
        (41_776, 32_418, 7_368),
        (5, 4, 3, 8, 2, 0, 1, 6, 7, 9, 12, 10, 11),
        "0x1.9c9bf051ce687p+42",
        (121, "2f3af3387e1ff297"),
    ),
}


@pytest.mark.parametrize("solver_name", sorted(DFS_SOLVERS))
@pytest.mark.parametrize("cell", sorted(DFS_CELLS))
def test_dfs_pins(cell, solver_name):
    make, constrained, counters, order, objective, trace = DFS_CELLS[cell]
    result, stats = _solve(DFS_SOLVERS[solver_name](), make(), constrained)
    assert result.status is SolveStatus.OPTIMAL
    assert (result.nodes, stats.tt_prunes, stats.tt_states) == counters
    assert result.solution.order == order
    assert result.solution.objective.hex() == objective
    assert _trace_digest(result) == trace


@pytest.mark.parametrize(
    "limit, order, objective, tt",
    [
        pytest.param(
            2,
            (1, 0, 4, 9, 2, 3, 8, 11, 5, 6, 10, 7, 12),
            "0x1.08e511dff2e96p+43",
            (0, 1),
            id="2",
        ),
        pytest.param(
            50,
            (0, 1, 4, 2, 3, 9, 8, 6, 11, 5, 10, 12, 7),
            "0x1.080f21a202acfp+43",
            (8, 34),
            id="50",
        ),
        pytest.param(
            20_000,
            (0, 3, 1, 12, 2, 4, 5, 9, 11, 6, 8, 10, 7),
            "0x1.f7ba01dcb37d8p+42",
            (15_317, 3_375),
            id="20000",
        ),
    ],
)
def test_dfs_stopped_by_node_limit(limit, order, objective, tt):
    """The node that exhausts the budget is counted, then the search
    stops with the incumbent it had."""
    result, stats = _solve(
        ExhaustiveSolver(),
        reduced_tpch(13, "mid"),
        True,
        Budget(node_limit=limit),
    )
    assert result.status is SolveStatus.TIMEOUT
    assert result.nodes == limit
    assert result.solution.order == order
    assert result.solution.objective.hex() == objective
    assert (stats.tt_prunes, stats.tt_states) == tt


def _random_constraints(n, kind, rng):
    """No set, random precedences, or random consecutive pairs; with
    ``"conflicting pairs"`` one index leads two pairs, so no order
    satisfies the set."""
    if kind == "none":
        return None
    constraints = ConstraintSet(n)
    if kind == "conflicting pairs":
        first, second, third = rng.sample(range(n), 3)
        constraints.add_consecutive(first, second)
        constraints.add_consecutive(first, third)
    for _ in range(rng.randint(1, 4)):
        before, after = rng.sample(range(n), 2)
        try:
            if kind == "precedences":
                constraints.add_precedence(before, after)
            else:
                constraints.add_consecutive(before, after)
        except InfeasibleError:
            continue
    return constraints


class TestLearnedBound:
    """The DFS's learned suffix bounds cut only subtrees that hold no
    better leaf: every full search finds the oracle's incumbents, in
    the same order, with no more nodes."""

    @settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=3, max_value=10),
        st.sampled_from(
            ["none", "precedences", "pairs", "conflicting pairs"]
        ),
        st.booleans(),
        st.randoms(use_true_random=False),
    )
    def test_matches_oracle(self, seed, n, kind, interactions, rng):
        instance = small_synthetic(
            seed, n, build_interaction_rate=1.0 if interactions else 0.0
        )
        constraints = _random_constraints(n, kind, rng)
        oracle = oracle_dfs(instance, constraints)
        result = ExhaustiveSolver().solve(instance, constraints)
        if oracle.order is None:
            assert result.status is SolveStatus.INFEASIBLE
            assert result.solution is None
        else:
            assert result.status is SolveStatus.OPTIMAL
            assert list(result.solution.order) == oracle.order
            assert result.solution.objective.hex() == oracle.objective.hex()
        assert [value.hex() for _, value in result.trace] == [
            value.hex() for value in oracle.trace
        ]
        assert result.nodes <= oracle.nodes


#: cell -> (instance, with constraints, nodes, order, objective bits,
#: built-set runtime memo misses).
ASTAR_CELLS = {
    "14-mid+": (
        lambda: reduced_tpch(14, "mid"),
        True,
        29_146,
        (4, 3, 13, 2, 5, 1, 8, 10, 0, 12, 6, 9, 11, 7),
        "0x1.e7148f8d7ff6dp+42",
        6_207,
    ),
    "16-low+": (
        lambda: reduced_tpch(16, "low"),
        True,
        13_781,
        (0, 4, 3, 6, 2, 1, 9, 5, 12, 14, 10, 7, 11, 13, 8, 15),
        "0x1.15bd592b4c6f3p+43",
        2_995,
    ),
    "search-tpcds-first-14": (
        lambda: _first(tpcds_shaped(64), 14),
        False,
        24_176,
        (0, 4, 6, 12, 13, 1, 2, 11, 3, 10, 8, 7, 9, 5),
        "0x1.40c9ae267f554p+22",
        8_153,
    ),
}


@pytest.mark.parametrize("cell", sorted(ASTAR_CELLS))
def test_astar_pins(cell):
    make, constrained, nodes, order, objective, misses = ASTAR_CELLS[cell]
    result, stats = _solve(AStarSolver(), make(), constrained)
    assert result.status is SolveStatus.OPTIMAL
    assert result.nodes == nodes
    assert result.solution.order == order
    assert result.solution.objective.hex() == objective
    assert stats.memo_misses == misses
