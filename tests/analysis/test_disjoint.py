"""Unit tests for disjoint indexes and clusters (Section 5.4, Figure 8)."""

from __future__ import annotations

import pytest

from repro.analysis.constraints import ConstraintSet
from repro.analysis.disjoint import (
    apply_disjoint,
    disjoint_clusters,
    index_density,
    interaction_graph,
)
from repro.core.instance import (
    BuildInteraction,
    IndexDef,
    PlanDef,
    ProblemInstance,
    QueryDef,
)

from tests.conftest import brute_force_best


def figure8_instance() -> ProblemInstance:
    """Figure 8 shape: cluster M1={i1,i2,i3} and a disjoint index i4.

    (0-based: i1->0, i2->1, i3->2, i4->3.)
    """
    return ProblemInstance(
        indexes=[
            IndexDef(0, "i1", 10.0),
            IndexDef(1, "i2", 10.0),
            IndexDef(2, "i3", 10.0),
            IndexDef(3, "i4", 10.0),
        ],
        queries=[
            QueryDef(0, "q1", 100.0),
            QueryDef(1, "q2", 100.0),
            QueryDef(2, "q3", 100.0),
        ],
        plans=[
            PlanDef(0, 0, frozenset({0, 1}), 30.0),
            PlanDef(1, 1, frozenset({1, 2}), 20.0),
            PlanDef(2, 2, frozenset({3}), 25.0),
        ],
        name="figure8",
    )


class TestInteractionGraph:
    def test_plan_comembership_connects(self):
        adjacency = interaction_graph(figure8_instance())
        assert 1 in adjacency[0]
        assert 0 in adjacency[1]

    def test_competing_plans_connect(self):
        instance = ProblemInstance(
            indexes=[IndexDef(0, "a", 1.0), IndexDef(1, "b", 1.0)],
            queries=[QueryDef(0, "q", 100.0)],
            plans=[
                PlanDef(0, 0, frozenset({0}), 10.0),
                PlanDef(1, 0, frozenset({1}), 20.0),
            ],
        )
        adjacency = interaction_graph(instance)
        assert 1 in adjacency[0]

    def test_build_interactions_connect(self):
        instance = ProblemInstance(
            indexes=[IndexDef(0, "a", 10.0), IndexDef(1, "b", 10.0)],
            queries=[QueryDef(0, "q", 100.0)],
            plans=[PlanDef(0, 0, frozenset({0}), 10.0)],
            build_interactions=[BuildInteraction(1, 0, 2.0)],
        )
        adjacency = interaction_graph(instance)
        assert 1 in adjacency[0]

    def test_disjoint_index_isolated(self):
        adjacency = interaction_graph(figure8_instance())
        assert adjacency[3] == set()


class TestDisjointClusters:
    def test_figure8_clusters(self):
        clusters = disjoint_clusters(interaction_graph(figure8_instance()))
        as_sets = sorted(clusters, key=lambda c: min(c))
        assert {0, 1, 2} in as_sets
        assert {3} in as_sets

    def test_clusters_partition_indexes(self):
        instance = figure8_instance()
        clusters = disjoint_clusters(interaction_graph(instance))
        members = sorted(m for cluster in clusters for m in cluster)
        assert members == list(range(instance.n_indexes))


class TestIndexDensity:
    def test_density_definition(self):
        instance = figure8_instance()
        # i4 alone: speedup 25, cost 10.
        assert index_density(instance, 3, set()) == pytest.approx(2.5)

    def test_density_depends_on_context(self):
        instance = figure8_instance()
        # i1 alone unlocks nothing; with i2 built it unlocks plan 0.
        assert index_density(instance, 0, set()) == pytest.approx(0.0)
        assert index_density(instance, 0, {1}) == pytest.approx(3.0)

    def test_density_uses_interacted_build_cost(self):
        instance = ProblemInstance(
            indexes=[IndexDef(0, "a", 10.0), IndexDef(1, "b", 10.0)],
            queries=[QueryDef(0, "q", 100.0)],
            plans=[PlanDef(0, 0, frozenset({0}), 10.0)],
            build_interactions=[BuildInteraction(0, 1, 5.0)],
        )
        assert index_density(instance, 0, set()) == pytest.approx(1.0)
        assert index_density(instance, 0, {1}) == pytest.approx(2.0)


class TestApplyDisjoint:
    def test_orders_pure_disjoint_indexes_by_density(self):
        instance = ProblemInstance(
            indexes=[
                IndexDef(0, "slow", 10.0),
                IndexDef(1, "fast", 10.0),
            ],
            queries=[QueryDef(0, "q0", 100.0), QueryDef(1, "q1", 100.0)],
            plans=[
                PlanDef(0, 0, frozenset({0}), 10.0),  # density 1.0
                PlanDef(1, 1, frozenset({1}), 30.0),  # density 3.0
            ],
        )
        constraints = ConstraintSet(2)
        added = apply_disjoint(instance, constraints)
        assert added == 1
        assert constraints.is_before(1, 0)

    def test_preserves_optimality_on_disjoint_instances(self):
        instance = ProblemInstance(
            indexes=[IndexDef(i, f"ix{i}", 10.0 + i) for i in range(5)],
            queries=[QueryDef(q, f"q{q}", 100.0) for q in range(5)],
            plans=[
                PlanDef(q, q, frozenset({q}), 10.0 + 3 * q) for q in range(5)
            ],
        )
        _, unconstrained = brute_force_best(instance)
        constraints = ConstraintSet(5)
        apply_disjoint(instance, constraints)
        _, constrained = brute_force_best(instance, constraints)
        assert constrained == pytest.approx(unconstrained)

    def test_total_order_on_disjoint_instance(self):
        instance = ProblemInstance(
            indexes=[IndexDef(i, f"ix{i}", 10.0) for i in range(4)],
            queries=[QueryDef(q, f"q{q}", 100.0) for q in range(4)],
            plans=[
                PlanDef(q, q, frozenset({q}), 10.0 + q) for q in range(4)
            ],
        )
        constraints = ConstraintSet(4)
        apply_disjoint(instance, constraints)
        # All 4 singletons become totally ordered: C(4,2) implied pairs.
        assert constraints.implied_pair_count() == 6

    def test_figure8_constrains_only_disjoint_index(self):
        instance = figure8_instance()
        constraints = ConstraintSet(instance.n_indexes)
        apply_disjoint(instance, constraints)
        # No constraint may be added inside the M1 cluster by tier 1.
        for a in (0, 1, 2):
            for b in (0, 1, 2):
                if a != b:
                    assert not constraints.is_before(a, b)

    def test_idempotent(self):
        instance = ProblemInstance(
            indexes=[IndexDef(i, f"ix{i}", 10.0) for i in range(3)],
            queries=[QueryDef(q, f"q{q}", 100.0) for q in range(3)],
            plans=[
                PlanDef(q, q, frozenset({q}), 10.0 + q) for q in range(3)
            ],
        )
        constraints = ConstraintSet(3)
        apply_disjoint(instance, constraints)
        assert apply_disjoint(instance, constraints) == 0
