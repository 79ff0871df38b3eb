"""Property-based tests (hypothesis) on the core invariants.

Strategy: generate random valid instances (via the library's own
generator, seeded by hypothesis) and random permutations, then check the
model-level invariants the whole system relies on.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.constraints import ConstraintSet
from repro.analysis.fixpoint import analyze
from repro.core.engine import EvalEngine, PrefixCursor
from repro.core.instance import ProblemInstance
from repro.core.objective import ObjectiveEvaluator, PrefixCachedEvaluator
from repro.core.serialization import instance_from_dict, instance_to_dict
from repro.workloads.generator import GeneratorConfig, generate_instance

from tests.conftest import brute_force_best


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def instances(draw, max_indexes: int = 8) -> ProblemInstance:
    """Random valid instances driven by the library's generator."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    n = draw(st.integers(min_value=2, max_value=max_indexes))
    config = GeneratorConfig(
        n_indexes=n,
        n_queries=draw(st.integers(min_value=1, max_value=6)),
        plans_per_query=draw(
            st.floats(min_value=1.0, max_value=4.0, allow_nan=False)
        ),
        max_plan_size=draw(st.integers(min_value=2, max_value=4)),
        multi_index_fraction=draw(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
        ),
        build_interaction_rate=draw(
            st.floats(min_value=0.0, max_value=2.0, allow_nan=False)
        ),
    )
    return generate_instance(seed=seed, config=config)


@st.composite
def instances_with_order(draw, max_indexes: int = 8):
    instance = draw(instances(max_indexes=max_indexes))
    order = draw(st.permutations(list(range(instance.n_indexes))))
    return instance, list(order)


COMMON_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# Objective invariants
# ----------------------------------------------------------------------
class TestObjectiveProperties:
    @COMMON_SETTINGS
    @given(instances_with_order())
    def test_objective_bounded(self, pair):
        instance, order = pair
        objective = ObjectiveEvaluator(instance).evaluate(order)
        worst = instance.total_base_runtime * instance.total_create_cost()
        assert 0.0 <= objective <= worst + 1e-6

    @COMMON_SETTINGS
    @given(instances_with_order())
    def test_schedule_consistent_with_evaluate(self, pair):
        instance, order = pair
        evaluator = ObjectiveEvaluator(instance)
        schedule = evaluator.schedule(order)
        assert schedule.objective == pytest.approx(
            evaluator.evaluate(order), rel=1e-12
        )
        assert schedule.objective == pytest.approx(
            sum(step.area for step in schedule.steps), rel=1e-9
        )

    @COMMON_SETTINGS
    @given(instances_with_order())
    def test_runtime_curve_monotone(self, pair):
        instance, order = pair
        schedule = ObjectiveEvaluator(instance).schedule(order)
        last = float("inf")
        for step in schedule.steps:
            assert step.runtime_before <= last + 1e-9
            assert step.runtime_after <= step.runtime_before + 1e-9
            last = step.runtime_after

    @COMMON_SETTINGS
    @given(instances_with_order())
    def test_build_costs_within_bounds(self, pair):
        instance, order = pair
        schedule = ObjectiveEvaluator(instance).schedule(order)
        for step in schedule.steps:
            create = instance.indexes[step.index_id].create_cost
            assert 0.0 < step.build_cost <= create + 1e-9
            assert step.saving >= 0.0

    @COMMON_SETTINGS
    @given(instances_with_order())
    def test_prefix_cached_matches_reference(self, pair):
        instance, order = pair
        reference = ObjectiveEvaluator(instance)
        cached = PrefixCachedEvaluator(instance, checkpoint_stride=3)
        cached.set_base(list(range(instance.n_indexes)))
        assert cached.evaluate(order) == pytest.approx(
            reference.evaluate(order), rel=1e-12
        )

    @COMMON_SETTINGS
    @given(instances())
    def test_total_runtime_monotone_in_built_set(self, instance):
        # Adding indexes never makes the workload slower.
        built = set()
        last = instance.total_runtime(built)
        for index_id in range(instance.n_indexes):
            built.add(index_id)
            current = instance.total_runtime(built)
            assert current <= last + 1e-9
            last = current

    @COMMON_SETTINGS
    @given(instances_with_order())
    def test_deploy_time_invariant_total(self, pair):
        # Total deployment time <= sum of create costs (savings only help),
        # and >= sum of minimum build costs.
        instance, order = pair
        schedule = ObjectiveEvaluator(instance).schedule(order)
        upper = instance.total_create_cost()
        lower = sum(
            instance.min_build_cost(i) for i in range(instance.n_indexes)
        )
        assert lower - 1e-9 <= schedule.total_deploy_time <= upper + 1e-9


# ----------------------------------------------------------------------
# Engine delta evaluation: the guard rails of the shared backend.
# Every solver trusts EvalEngine's delta results; these properties pin
# them to the reference full evaluation at 1e-9 over random instances.
# ----------------------------------------------------------------------
@st.composite
def instances_with_base_and_move(draw, max_indexes: int = 8):
    instance = draw(instances(max_indexes=max_indexes))
    n = instance.n_indexes
    base = list(draw(st.permutations(list(range(n)))))
    pos_a = draw(st.integers(min_value=0, max_value=n - 1))
    pos_b = draw(st.integers(min_value=0, max_value=n - 1))
    return instance, base, pos_a, pos_b


class TestEngineDeltaProperties:
    @COMMON_SETTINGS
    @given(instances_with_base_and_move())
    def test_swap_matches_full_evaluation(self, quad):
        instance, base, pos_a, pos_b = quad
        engine = EvalEngine(instance)
        engine.set_base(base)
        candidate = list(base)
        candidate[pos_a], candidate[pos_b] = candidate[pos_b], candidate[pos_a]
        expected = ObjectiveEvaluator(instance).evaluate(candidate)
        assert engine.eval_swap(pos_a, pos_b) == pytest.approx(
            expected, rel=1e-9, abs=1e-9
        )

    @COMMON_SETTINGS
    @given(instances_with_base_and_move())
    def test_relocate_and_insert_match_full_evaluation(self, quad):
        instance, base, src, dst = quad
        engine = EvalEngine(instance)
        engine.set_base(base)
        candidate = list(base)
        moved = candidate.pop(src)
        candidate.insert(dst, moved)
        expected = ObjectiveEvaluator(instance).evaluate(candidate)
        assert engine.eval_relocate(src, dst) == pytest.approx(
            expected, rel=1e-9, abs=1e-9
        )
        assert engine.eval_insert(base[src], dst) == pytest.approx(
            expected, rel=1e-9, abs=1e-9
        )

    @COMMON_SETTINGS
    @given(instances_with_order())
    def test_neighbor_evaluation_matches_full(self, pair):
        instance, order = pair
        engine = EvalEngine(instance)
        engine.set_base(list(range(instance.n_indexes)))
        expected = ObjectiveEvaluator(instance).evaluate(order)
        assert engine.evaluate_neighbor(order) == pytest.approx(
            expected, rel=1e-9, abs=1e-9
        )

    @COMMON_SETTINGS
    @given(instances_with_base_and_move())
    def test_swap_under_analysis_constraints(self, quad):
        # Delta results must stay exact on orders drawn from the
        # constrained search space the solvers actually explore.
        instance, _, pos_a, pos_b = quad
        report = analyze(instance)
        base = report.constraints.topological_order()
        engine = EvalEngine(instance)
        engine.set_base(base)
        candidate = list(base)
        candidate[pos_a], candidate[pos_b] = candidate[pos_b], candidate[pos_a]
        expected = ObjectiveEvaluator(instance).evaluate(candidate)
        assert engine.eval_swap(pos_a, pos_b) == pytest.approx(
            expected, rel=1e-9, abs=1e-9
        )

    @COMMON_SETTINGS
    @given(instances_with_base_and_move())
    def test_memo_survives_rebase(self, quad):
        # Re-basing must invalidate nothing in the built-set memo (it is
        # order-independent) and delta results must stay exact.
        instance, base, pos_a, pos_b = quad
        engine = EvalEngine(instance)
        engine.set_base(list(range(instance.n_indexes)))
        full_mask = engine.mask_of(range(instance.n_indexes))
        runtime_before = engine.runtime_of(full_mask)
        engine.set_base(base)
        assert engine.runtime_of(full_mask) == runtime_before
        candidate = list(base)
        candidate[pos_a], candidate[pos_b] = candidate[pos_b], candidate[pos_a]
        assert engine.eval_swap(pos_a, pos_b) == pytest.approx(
            ObjectiveEvaluator(instance).evaluate(candidate),
            rel=1e-9,
            abs=1e-9,
        )


# ----------------------------------------------------------------------
# PrefixCursor: the exact push/pop state the exhaustive DFS, CP bound
# checks and the delta base all walk.
# ----------------------------------------------------------------------
class TestPrefixCursorProperties:
    @COMMON_SETTINGS
    @given(
        instances(),
        st.lists(st.integers(min_value=-3, max_value=7), max_size=40),
    )
    def test_push_pop_walk_matches_reference(self, instance, walk):
        # Negative steps pop, others push the step-th unbuilt index.
        reference = ObjectiveEvaluator(instance)
        cursor = PrefixCursor(EvalEngine(instance))
        n = instance.n_indexes
        before_push = []
        for step in walk:
            free = [i for i in range(n) if i not in cursor.stack]
            if step < 0 or not free:
                if not cursor.depth:
                    continue
                cursor.pop()
                objective, runtime = before_push.pop()
                assert cursor.objective == objective  # bit for bit
                assert cursor.runtime == runtime
            else:
                before_push.append((cursor.objective, cursor.runtime))
                cursor.push(free[step % len(free)])
            objective, runtime, _ = reference.evaluate_prefix(
                list(cursor.stack)
            )
            assert cursor.objective == pytest.approx(
                objective, rel=1e-9, abs=1e-9
            )
            assert cursor.runtime == pytest.approx(runtime, rel=1e-9, abs=1e-9)


# ----------------------------------------------------------------------
# Batch kernels: vectorized neighborhood scoring must agree elementwise
# with the scalar delta path, and the vectorized feasibility mask with
# the scalar predicate, on arbitrary generated instances.
# ----------------------------------------------------------------------
class TestBatchKernelProperties:
    @COMMON_SETTINGS
    @given(instances_with_order())
    def test_eval_all_swaps_matches_scalar_elementwise(self, pair):
        instance, base = pair
        n = instance.n_indexes
        vector_engine = EvalEngine(instance, kernel="numpy")
        vector_engine.set_base(base)
        scalar_engine = EvalEngine(instance, kernel="scalar")
        scalar_engine.set_base(base)
        matrix, feasible = vector_engine.eval_all_swaps()
        assert all(feasible[a][b] for a in range(n) for b in range(n))
        for pos_a in range(n):
            for pos_b in range(n):
                assert matrix[pos_a][pos_b] == pytest.approx(
                    scalar_engine.eval_swap(pos_a, pos_b),
                    rel=1e-9,
                    abs=1e-7,
                )

    @COMMON_SETTINGS
    @given(instances())
    def test_feasibility_mask_matches_swap_feasible(self, instance):
        from repro.core.batch import swap_feasibility_mask
        from repro.solvers.localsearch.neighborhood import swap_feasible

        report = analyze(instance)
        constraints = report.constraints
        base = constraints.topological_order()
        mask = swap_feasibility_mask(base, constraints, swap_feasible)
        n = instance.n_indexes
        for pos_a in range(n):
            for pos_b in range(n):
                assert bool(mask[pos_a][pos_b]) == swap_feasible(
                    base, pos_a, pos_b, constraints
                )


# ----------------------------------------------------------------------
# swap_feasible: the windowed check must agree with the full scan on
# feasible orders (its documented domain).
# ----------------------------------------------------------------------
class TestSwapFeasibleProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=2, max_value=12),
        st.randoms(use_true_random=False),
    )
    def test_matches_full_scan_on_feasible_orders(self, n, rng):
        from repro.errors import InfeasibleError
        from repro.solvers.base import repair_order
        from repro.solvers.localsearch.neighborhood import swap_feasible

        constraints = ConstraintSet(n)
        for _ in range(rng.randint(0, 4)):
            a, b = rng.randrange(n), rng.randrange(n)
            if a == b:
                continue
            try:
                if rng.random() < 0.5:
                    constraints.add_precedence(a, b)
                else:
                    constraints.add_consecutive(a, b)
            except InfeasibleError:
                continue
        order = list(range(n))
        rng.shuffle(order)
        order = repair_order(order, constraints)
        if not constraints.check_order(order):
            return  # an unsatisfiable set has no feasible order to scan
        position_free = list(range(n))
        for _ in range(15):
            pos_a = rng.randrange(n)
            pos_b = rng.randrange(n)
            got = swap_feasible(order, pos_a, pos_b, constraints)
            swapped = list(order)
            swapped[pos_a], swapped[pos_b] = swapped[pos_b], swapped[pos_a]
            want = constraints.check_order(swapped)
            assert got == want, (order, pos_a, pos_b)
        assert swap_feasible(position_free, 0, n - 1, None)


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------
class TestSerializationProperties:
    @COMMON_SETTINGS
    @given(instances())
    def test_roundtrip_preserves_objective(self, instance):
        again = instance_from_dict(instance_to_dict(instance))
        order = list(range(instance.n_indexes))
        assert ObjectiveEvaluator(again).evaluate(order) == pytest.approx(
            ObjectiveEvaluator(instance).evaluate(order)
        )

    @COMMON_SETTINGS
    @given(instances())
    def test_roundtrip_preserves_structure(self, instance):
        again = instance_from_dict(instance_to_dict(instance))
        assert again.indexes == instance.indexes
        assert again.queries == instance.queries
        assert again.plans == instance.plans
        assert again.build_interactions == instance.build_interactions


# ----------------------------------------------------------------------
# Pruning soundness (the paper's Theorems 1-10 in aggregate)
# ----------------------------------------------------------------------
class TestPruningProperties:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(instances(max_indexes=6))
    def test_analysis_never_loses_the_optimum(self, instance):
        _, unconstrained = brute_force_best(instance)
        report = analyze(instance)
        _, constrained = brute_force_best(instance, report.constraints)
        assert constrained == pytest.approx(unconstrained, rel=1e-9)

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(instances(max_indexes=6))
    def test_constraints_remain_satisfiable(self, instance):
        report = analyze(instance)
        order = report.constraints.topological_order()
        assert sorted(order) == list(range(instance.n_indexes))


# ----------------------------------------------------------------------
# ConstraintSet algebra
# ----------------------------------------------------------------------
class TestConstraintSetProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=2, max_value=10),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=9),
                st.integers(min_value=0, max_value=9),
            ),
            max_size=12,
        ),
    )
    def test_closure_is_transitive_and_acyclic(self, n, raw_edges):
        from repro.errors import InfeasibleError, ValidationError

        constraints = ConstraintSet(n)
        for a, b in raw_edges:
            if a >= n or b >= n or a == b:
                continue
            try:
                constraints.add_precedence(a, b)
            except InfeasibleError:
                continue
        # Transitivity.
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if constraints.is_before(a, b) and constraints.is_before(
                        b, c
                    ):
                        assert constraints.is_before(a, c)
        # Antisymmetry (acyclicity of the closure).
        for a in range(n):
            for b in range(n):
                if a != b and constraints.is_before(a, b):
                    assert not constraints.is_before(b, a)
        # A witness order exists and satisfies everything.
        order = constraints.topological_order()
        position = {ix: pos for pos, ix in enumerate(order)}
        for a in range(n):
            for b in range(n):
                if constraints.is_before(a, b):
                    assert position[a] < position[b]
