"""Unit tests for the local-search solvers (Section 7)."""

from __future__ import annotations

import itertools
import math
import signal
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.constraints import ConstraintSet
from repro.core.engine import EvalEngine
from repro.core.objective import ObjectiveEvaluator
from repro.core.solution import SolveStatus
from repro.errors import InfeasibleError
from repro.solvers.base import Budget
from repro.solvers.exhaustive import DFSState
from repro.solvers.greedy import greedy_order
from repro.solvers.localsearch import LNSSolver, relax_step
from repro.solvers.localsearch.neighborhood import (
    apply_relocate,
    apply_swap,
    relocate_feasible,
    swap_feasible,
)
from repro.solvers.localsearch import vns
from repro.solvers.localsearch.tabu import TabuSolver
from repro.solvers.localsearch.vns import VNSSolver

from tests.conftest import brute_force_best, small_synthetic, tpcds_shaped

LOCAL_SOLVERS = [
    pytest.param(TabuSolver(variant="best"), id="ts-bswap"),
    pytest.param(TabuSolver(variant="first"), id="ts-fswap"),
    pytest.param(LNSSolver(seed=0), id="lns"),
    pytest.param(VNSSolver(seed=0), id="vns"),
]


class TestNeighborhood:
    def test_apply_swap(self):
        assert apply_swap([0, 1, 2, 3], 1, 3) == [0, 3, 2, 1]

    def test_swap_feasible_without_constraints(self):
        assert swap_feasible([0, 1, 2], 0, 2, None)

    def test_swap_feasible_respects_precedence(self):
        constraints = ConstraintSet(3)
        constraints.add_precedence(0, 2)
        order = [0, 1, 2]
        assert not swap_feasible(order, 0, 2, constraints)
        assert swap_feasible(order, 0, 1, constraints)

    def test_swap_feasible_respects_consecutive(self):
        constraints = ConstraintSet(4)
        constraints.add_consecutive(0, 1)
        order = [0, 1, 2, 3]
        # Swapping 1 away from its partner breaks adjacency.
        assert not swap_feasible(order, 1, 3, constraints)
        assert swap_feasible(order, 2, 3, constraints)

    def test_apply_relocate(self):
        assert apply_relocate([0, 1, 2, 3], 0, 2) == [1, 2, 0, 3]
        assert apply_relocate([0, 1, 2, 3], 3, 1) == [0, 3, 1, 2]

    def test_relocate_feasible_without_constraints(self):
        assert relocate_feasible([0, 1, 2], 0, 2, None)

    def test_relocate_feasible_respects_precedence(self):
        constraints = ConstraintSet(3)
        constraints.add_precedence(0, 2)
        order = [0, 1, 2]
        # Moving 0 behind 2 breaks the precedence; behind 1 it holds.
        assert not relocate_feasible(order, 0, 2, constraints)
        assert relocate_feasible(order, 0, 1, constraints)

    def test_relocate_feasible_respects_consecutive(self):
        constraints = ConstraintSet(4)
        constraints.add_consecutive(0, 1)
        order = [0, 1, 2, 3]
        # Moving 1 away from its partner breaks adjacency; moving 3 in
        # front of the pair shifts both members together.
        assert not relocate_feasible(order, 1, 3, constraints)
        assert relocate_feasible(order, 3, 0, constraints)


@pytest.mark.parametrize("solver", LOCAL_SOLVERS)
class TestLocalSearchCommon:
    def test_valid_solution(self, solver):
        instance = small_synthetic(seed=1, n=8)
        result = solver.solve(instance, budget=Budget(time_limit=0.5))
        assert result.solution is not None
        result.solution.validate_against(instance)

    def test_never_worse_than_greedy_start(self, solver):
        instance = small_synthetic(seed=2, n=10)
        evaluator = ObjectiveEvaluator(instance)
        greedy_objective = evaluator.evaluate(greedy_order(instance))
        result = solver.solve(instance, budget=Budget(time_limit=0.5))
        assert result.solution.objective <= greedy_objective + 1e-9

    def test_constraints_respected(self, solver):
        instance = small_synthetic(seed=3, n=8)
        constraints = ConstraintSet(8)
        constraints.add_precedence(7, 0)
        constraints.add_consecutive(1, 4)
        result = solver.solve(
            instance, constraints=constraints, budget=Budget(time_limit=0.5)
        )
        assert constraints.check_order(result.solution.order)

    def test_trace_is_monotone_improving(self, solver):
        instance = small_synthetic(seed=4, n=10)
        result = solver.solve(instance, budget=Budget(time_limit=0.5))
        objectives = [objective for _, objective in result.trace]
        assert objectives == sorted(objectives, reverse=True)

    def test_status_is_feasible_or_timeout(self, solver):
        instance = small_synthetic(seed=5, n=8)
        result = solver.solve(instance, budget=Budget(time_limit=0.3))
        assert result.status in (SolveStatus.FEASIBLE, SolveStatus.TIMEOUT)


class TestLocalSearchQuality:
    @pytest.mark.parametrize(
        "solver",
        [
            pytest.param(TabuSolver(variant="best"), id="ts-bswap"),
            pytest.param(VNSSolver(seed=0), id="vns"),
        ],
    )
    def test_strong_methods_reach_optimum(self, solver):
        # n=6: 720 permutations; the full-scan tabu and the adaptive VNS
        # must find the optimum.
        instance = small_synthetic(seed=6, n=6)
        _, best = brute_force_best(instance)
        result = solver.solve(instance, budget=Budget(time_limit=1.0))
        assert result.solution.objective == pytest.approx(best, rel=1e-9)

    @pytest.mark.parametrize(
        "solver",
        [
            pytest.param(TabuSolver(variant="first"), id="ts-fswap"),
            pytest.param(LNSSolver(seed=0), id="lns"),
        ],
    )
    def test_weak_methods_get_close(self, solver):
        # TS-FSwap and fixed-parameter LNS may stall in local optima
        # (the paper's motivation for VNS); they must still land within
        # 10% of the optimum on a tiny instance.
        instance = small_synthetic(seed=6, n=6)
        _, best = brute_force_best(instance)
        result = solver.solve(instance, budget=Budget(time_limit=1.0))
        assert result.solution.objective <= best * 1.10


class TestTabuSpecifics:
    def test_variant_names(self):
        assert TabuSolver(variant="best").name == "ts-bswap"
        assert TabuSolver(variant="first").name == "ts-fswap"

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            TabuSolver(variant="worst")

    def test_custom_initial_order_used(self):
        instance = small_synthetic(seed=7, n=6)
        initial = list(range(6))
        result = TabuSolver(variant="best", initial_order=initial).solve(
            instance, budget=Budget(time_limit=0.3)
        )
        start_objective = ObjectiveEvaluator(instance).evaluate(initial)
        assert result.solution.objective <= start_objective + 1e-9


class TestVNSSpecifics:
    def test_deterministic_per_seed(self):
        instance = small_synthetic(seed=8, n=10)
        first = VNSSolver(seed=5).solve(instance, budget=Budget(node_limit=300))
        second = VNSSolver(seed=5).solve(instance, budget=Budget(node_limit=300))
        assert first.solution.order == second.solution.order

    def test_improvement_callback_fires(self):
        instance = small_synthetic(seed=9, n=10)
        events = []
        solver = VNSSolver(
            seed=0, on_improvement=lambda elapsed, order: events.append(order)
        )
        solver.solve(instance, budget=Budget(time_limit=0.5))
        assert events  # greedy start improved at least once

    def test_trace_has_a_point_per_improvement(self, tpch_full, monkeypatch):
        # Every improving relaxation starts one descent; the trace holds
        # the start, each improving relaxation and each improving pass.
        descents = []
        passes = []
        descend = vns.batch_swap_descent

        def counted(engine, order, constraints, budget, current, on_pass):
            def on_counted_pass(new_order, objective):
                passes.append(objective)
                on_pass(new_order, objective)

            descents.append(current)
            return descend(
                engine, order, constraints, budget, current, on_counted_pass
            )

        monkeypatch.setattr(vns, "batch_swap_descent", counted)
        events = []
        result = VNSSolver(
            seed=1, on_improvement=lambda elapsed, order: events.append(order)
        ).solve(tpch_full, None, Budget(node_limit=15_000))
        assert passes
        assert len(result.trace) == 1 + len(descents) + len(passes)
        assert len(events) == len(result.trace) - 1
        times = [stamp for stamp, _ in result.trace]
        objectives = [value for _, value in result.trace]
        assert times == sorted(times)
        assert all(b < a for a, b in zip(objectives, objectives[1:]))
        assert objectives[-1] == result.solution.objective
        assert tuple(events[-1]) == result.solution.order

    def test_beats_or_matches_lns_given_same_budget(self):
        # Not a strict theorem, but with the same seed/budget on a rugged
        # instance VNS should not be dramatically worse; guard with a
        # generous factor to stay deterministic.
        instance = small_synthetic(seed=10, n=14, plans_per_query=4.0)
        budget_vns = Budget(node_limit=2000)
        budget_lns = Budget(node_limit=2000)
        vns = VNSSolver(seed=1).solve(instance, budget=budget_vns)
        lns = LNSSolver(seed=1).solve(instance, budget=budget_lns)
        assert vns.solution.objective <= lns.solution.objective * 1.05


class TestLNSPins:
    """LNS order, objective and node count at fixed seeds, recorded
    before LNS became a VNS configuration (``Budget(node_limit=3000)``).
    The 14-mid restart counts were re-recorded when the relaxations
    moved onto the pinned DFS, which charges only the root and the
    free-slot children; the orders and objectives did not move."""

    TPCH = {
        0: (
            (1, 5, 0, 4, 18, 26, 9, 14, 3, 6, 7, 30, 2, 16, 21, 8, 13, 12,
             25, 11, 17, 15, 10, 19, 20, 23, 22, 24, 27, 28, 29, 31),
            12935042054632.596,
            2,
        ),
        1: (
            (1, 5, 4, 13, 14, 26, 9, 0, 3, 30, 6, 7, 21, 2, 18, 12, 8, 25,
             16, 11, 17, 15, 10, 19, 20, 23, 22, 24, 27, 28, 29, 31),
            12948193316425.174,
            1,
        ),
        2: (
            (1, 5, 4, 13, 14, 30, 8, 2, 3, 0, 6, 26, 7, 16, 18, 9, 21, 25,
             12, 11, 17, 15, 10, 19, 20, 23, 22, 24, 27, 28, 29, 31),
            12878244476651.814,
            33,
        ),
    }
    MID_14_ORDER = (4, 3, 2, 0, 5, 1, 8, 10, 12, 6, 9, 11, 7, 13)
    MID_14 = {
        0: (MID_14_ORDER, 8543605863723.954, 473),
        1: (MID_14_ORDER, 8543605863723.954, 519),
        2: (MID_14_ORDER, 8543605863723.954, 518),
    }

    @staticmethod
    def _check(instance, constraints, seed, pin):
        result = LNSSolver(seed=seed).solve(
            instance, constraints, Budget(node_limit=3000)
        )
        order, objective, nodes = pin
        assert result.solver == "lns"
        assert result.solution.order == order
        assert result.solution.objective == objective
        assert result.nodes == nodes

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tpch(self, tpch_full, seed):
        self._check(tpch_full, None, seed, self.TPCH[seed])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reduced_tpch_14_mid_with_constraints(self, seed):
        from repro.analysis.fixpoint import analyze
        from repro.experiments.instances import reduced_tpch

        instance = reduced_tpch(14, "mid")
        constraints = analyze(instance, time_budget=None).constraints
        self._check(instance, constraints, seed, self.MID_14[seed])


class TestTabuPins:
    """Tabu and VNS orders and objective bits at fixed node budgets,
    recorded while TPC-H's swap scans still ran on the scalar kernel.
    TPC-H (n=32) now scores each tabu iteration and descent pass with
    one numpy matrix and charges a node per feasible move;
    ``tpcds_shaped(64)`` charges whole scans."""

    TPCH = {
        "best": (
            (5, 4, 30, 13, 2, 3, 1, 14, 0, 8, 6, 26, 7, 9, 16, 18, 11, 17,
             15, 10, 25, 19, 20, 23, 21, 12, 22, 24, 27, 28, 29, 31),
            "0x1.75fb6bb968613p+43",
        ),
        "first": (
            (5, 4, 30, 13, 2, 3, 6, 1, 26, 7, 9, 0, 8, 14, 16, 18, 11, 17,
             15, 10, 25, 19, 20, 23, 21, 12, 22, 24, 27, 28, 29, 31),
            "0x1.764ab5cd8d816p+43",
        ),
    }
    TPCDS_SHAPED = {
        "best": (
            (57, 26, 47, 33, 12, 37, 25, 4, 0, 16, 31, 56, 27, 24, 21, 36,
             9, 46, 59, 44, 34, 39, 55, 58, 50, 18, 53, 19, 45, 8, 51, 2, 6,
             38, 29, 13, 52, 35, 22, 15, 42, 62, 14, 43, 10, 63, 54, 32, 20,
             23, 61, 5, 28, 40, 48, 7, 30, 60, 49, 11, 1, 17, 3, 41),
            "0x1.6afd6884d79b4p+22",
        ),
        "first": (
            (47, 0, 57, 33, 12, 37, 25, 4, 26, 16, 31, 56, 27, 24, 21, 36,
             9, 46, 59, 51, 34, 39, 55, 58, 8, 18, 53, 19, 45, 50, 44, 2, 6,
             38, 29, 13, 52, 35, 61, 15, 42, 62, 14, 43, 10, 63, 54, 32, 3,
             23, 22, 5, 28, 40, 48, 7, 30, 60, 49, 11, 1, 17, 20, 41),
            "0x1.8186a18e440bap+22",
        ),
    }
    VNS_TPCH = {
        1: (
            (5, 4, 30, 13, 2, 1, 3, 14, 8, 6, 26, 7, 9, 16, 18, 11, 0, 17,
             15, 10, 25, 19, 20, 23, 21, 12, 22, 24, 27, 28, 29, 31),
            "0x1.75fd73caff4cep+43",
        ),
        2: (
            (1, 5, 4, 30, 13, 2, 3, 0, 8, 14, 6, 26, 7, 9, 16, 18, 11, 17,
             15, 10, 25, 19, 20, 23, 21, 12, 22, 24, 27, 28, 29, 31),
            "0x1.7601a38ce61ebp+43",
        ),
        3: (
            (5, 4, 30, 13, 2, 3, 6, 1, 26, 7, 8, 9, 14, 16, 0, 18, 11, 17,
             15, 10, 25, 19, 20, 23, 21, 12, 22, 24, 27, 28, 29, 31),
            "0x1.764b16f0b5562p+43",
        ),
    }

    @staticmethod
    def _check(solver, instance, nodes, pin):
        engine = solver.engine = EvalEngine(instance)
        result = solver.solve(instance, None, Budget(node_limit=nodes))
        order, objective = pin
        assert result.solution.order == order
        assert result.solution.objective.hex() == objective
        return result, engine.stats

    @pytest.mark.parametrize("variant", ["best", "first"])
    def test_tpch(self, tpch_full, variant):
        result, stats = self._check(
            TabuSolver(variant=variant), tpch_full, 40_000, self.TPCH[variant]
        )
        assert stats.batch_numpy > 0
        # One node per evaluated feasible move, not per scored move.
        assert result.nodes == 40_000

    @pytest.mark.parametrize("variant", ["best", "first"])
    def test_tpcds_shaped_n64(self, variant):
        self._check(
            TabuSolver(variant=variant),
            tpcds_shaped(64),
            8_000,
            self.TPCDS_SHAPED[variant],
        )

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_vns_tpch(self, tpch_full, seed):
        _, stats = self._check(
            VNSSolver(seed=seed), tpch_full, 15_000, self.VNS_TPCH[seed]
        )
        assert stats.batch_numpy > 0


@contextmanager
def wall_clock_guard(seconds: int):
    """Fail the block with ``TimeoutError`` after ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestInfeasibleWarmStart:
    """A warm start that breaks the constraints: every 2-index
    relaxation of it conflicts at the CP root."""

    @staticmethod
    def _pairs():
        constraints = ConstraintSet(6)
        for before, after in ((0, 1), (2, 3), (4, 5)):
            constraints.add_precedence(before, after)
        return constraints

    @pytest.mark.parametrize("solver_cls", [LNSSolver, VNSSolver])
    def test_warm_start_is_repaired(self, solver_cls):
        instance = small_synthetic(seed=0, n=6)
        constraints = self._pairs()
        solver = solver_cls(seed=0, initial_order=[1, 0, 3, 2, 5, 4])
        with wall_clock_guard(10):
            result = solver.solve(
                instance, constraints, Budget(node_limit=300)
            )
        assert constraints.check_order(list(result.solution.order))

    def test_root_conflict_charges_the_budget(self):
        instance = small_synthetic(seed=0, n=6)
        search = DFSState(instance, self._pairs(), EvalEngine(instance))
        budget = Budget(node_limit=1)
        found, _, proved = relax_step(
            search, [1, 0, 3, 2, 5, 4], [4, 5], float("inf"), 100, budget
        )
        assert found is None and proved
        assert budget.exhausted


def _random_constraints(n, rng):
    """A few random precedences and consecutive pairs; the pairs may
    admit no order at all."""
    constraints = ConstraintSet(n)
    for _ in range(rng.randint(0, 4)):
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b:
            continue
        try:
            if rng.random() < 0.6:
                constraints.add_precedence(a, b)
            else:
                constraints.add_consecutive(a, b)
        except InfeasibleError:
            continue
    return constraints


class TestRelaxStep:
    """One relaxation with no failure limit is exact over its
    neighborhood: the orders that keep every pinned index in its slot."""

    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=7),
        st.randoms(use_true_random=False),
        st.booleans(),
    )
    def test_matches_brute_force(self, seed, n, rng, against_order):
        instance = small_synthetic(seed, n, build_interaction_rate=1.0)
        constraints = _random_constraints(n, rng)
        order = list(range(n))
        rng.shuffle(order)
        free = rng.sample(range(n), rng.randint(0, n))
        engine = EvalEngine(instance)
        incumbent = engine.evaluate(order) if against_order else math.inf
        pinned = [
            (slot, index_id)
            for slot, index_id in enumerate(order)
            if index_id not in free
        ]
        best = None
        for candidate in itertools.permutations(range(n)):
            if any(candidate[slot] != index_id for slot, index_id in pinned):
                continue
            if not constraints.check_order(candidate):
                continue
            value = engine.evaluate(candidate)
            if value < incumbent and (best is None or value < best):
                best = value

        search = DFSState(instance, constraints, EvalEngine(instance))
        found, objective, proved = relax_step(
            search, order, free, incumbent, math.inf, None
        )
        assert proved
        tolerance = 1e-9 * max(1.0, abs(best or 0.0))
        if found is None:
            # None, or only an order within rounding of the incumbent.
            assert best is None or best >= incumbent - tolerance
            return
        assert best is not None
        assert objective < incumbent
        assert objective == pytest.approx(best, rel=1e-9, abs=1e-9)
        assert constraints.check_order(found)
        assert all(found[slot] == index_id for slot, index_id in pinned)
        # Leaves are exact: the floats of a full replay.
        assert objective == EvalEngine(instance).evaluate(found)
        assert objective == pytest.approx(
            ObjectiveEvaluator(instance).evaluate(found), rel=1e-9, abs=1e-9
        )
