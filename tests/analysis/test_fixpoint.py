"""Unit tests for the iterate-and-recurse analysis driver (Section 5.6).

The central guarantee: for every property subset, the emitted constraints
never exclude all optimal solutions — the constrained optimum equals the
unconstrained optimum (checked by brute force on small instances).
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.analysis import fixpoint
from repro.analysis.fixpoint import PROPERTY_ORDER, analyze
from repro.errors import ValidationError
from repro.experiments.instances import (
    reduced_tpch,
    tpcds_instance,
    tpch_instance,
)

from tests.conftest import (
    brute_force_best,
    make_paper_example,
    make_precedence_example,
    small_synthetic,
)


class TestAnalyzeBasics:
    def test_report_shape(self):
        report = analyze(make_paper_example())
        assert report.iterations >= 1
        assert report.elapsed >= 0.0
        assert set(report.added_by_property) <= set(PROPERTY_ORDER)
        assert report.total_added == sum(report.added_by_property.values())

    def test_describe_mentions_counts(self):
        report = analyze(make_paper_example())
        text = report.describe()
        assert "iterations=" in text
        assert "implied_pairs=" in text

    def test_unknown_property_letter_rejected(self):
        with pytest.raises(ValidationError, match="unknown property"):
            analyze(make_paper_example(), properties="AXZ")

    def test_property_subset_selection(self):
        instance = small_synthetic(seed=2, n=7)
        report = analyze(instance, properties="A")
        assert set(report.added_by_property) <= {"A"}

    def test_empty_property_string(self):
        instance = small_synthetic(seed=2, n=7)
        report = analyze(instance, properties="")
        assert report.total_added == 0

    def test_hard_precedences_included(self):
        instance = make_precedence_example()
        report = analyze(instance, properties="")
        assert report.constraints.is_before(0, 1)
        assert report.constraints.is_before(0, 2)

    def test_case_insensitive_properties(self):
        instance = small_synthetic(seed=2, n=7)
        upper = analyze(instance, properties="ACM")
        lower = analyze(instance, properties="acm")
        assert upper.constraints.summary() == lower.constraints.summary()


class TestOptimalityPreservation:
    """The paper's claim: pruning never loses every optimal solution."""

    @pytest.mark.parametrize("seed", range(8))
    def test_full_analysis_preserves_optimum(self, seed):
        instance = small_synthetic(seed=seed, n=6)
        _, unconstrained = brute_force_best(instance)
        report = analyze(instance)
        _, constrained = brute_force_best(instance, report.constraints)
        assert constrained == pytest.approx(unconstrained, rel=1e-9)

    @pytest.mark.parametrize("properties", ["A", "AC", "ACM", "ACMD", "ACMDT"])
    def test_each_prefix_preserves_optimum(self, properties):
        instance = small_synthetic(seed=13, n=7)
        _, unconstrained = brute_force_best(instance)
        report = analyze(instance, properties=properties)
        _, constrained = brute_force_best(instance, report.constraints)
        assert constrained == pytest.approx(unconstrained, rel=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_preserves_optimum_with_build_interactions(self, seed):
        instance = small_synthetic(
            seed=seed, n=6, build_interaction_rate=2.0
        )
        _, unconstrained = brute_force_best(instance)
        report = analyze(instance)
        _, constrained = brute_force_best(instance, report.constraints)
        assert constrained == pytest.approx(unconstrained, rel=1e-9)

    def test_preserves_optimum_with_hard_precedences(self):
        instance = small_synthetic(seed=9, n=6, precedence_rate=5.0)
        baseline = analyze(instance, properties="")
        _, unconstrained = brute_force_best(instance, baseline.constraints)
        report = analyze(instance)
        _, constrained = brute_force_best(instance, report.constraints)
        assert constrained == pytest.approx(unconstrained, rel=1e-9)


class TestSearchSpaceReduction:
    def test_analysis_adds_constraints_on_reduced_tpch(self, reduced_tpch_13):
        report = analyze(reduced_tpch_13)
        assert report.total_added > 0
        assert report.constraints.implied_pair_count() > 0

    def test_fixpoint_terminates(self):
        instance = small_synthetic(seed=4, n=10, plans_per_query=4.0)
        report = analyze(instance)
        assert report.iterations < 20

    def test_time_budget_respected(self):
        instance = small_synthetic(seed=4, n=10)
        report = analyze(instance, time_budget=0.0)
        # Zero budget: the loop stops after the first pass round.
        assert report.iterations == 1


class TestStoppingRule:
    """The loop stops once every enabled pass has run since the last
    pass that added a constraint."""

    def _record_calls(self, monkeypatch, adds):
        # The passes are looked up as module globals at call time, so a
        # wrapper installed there (as a tracer does) sees every call.
        calls = []
        for letter, name in zip(PROPERTY_ORDER, (
            "apply_alliances",
            "apply_colonized",
            "apply_dominated",
            "apply_disjoint",
            "apply_tails",
        )):
            def fake(instance, constraints, letter=letter, **kwargs):
                calls.append(letter)
                return adds.pop((letter, calls.count(letter)), 0)

            monkeypatch.setattr(fixpoint, name, fake)
        return calls

    def test_stops_after_a_quiet_cycle(self, monkeypatch):
        calls = self._record_calls(monkeypatch, {("A", 1): 2})
        report = analyze(small_synthetic(seed=2, n=5))
        # A changed the set in round 1; C, M, D, T and A then add
        # nothing, so round 2 ends after A.
        assert "".join(calls) == "ACMDTA"
        assert report.iterations == 2
        assert report.added_by_property == {
            "A": 2, "C": 0, "M": 0, "D": 0, "T": 0,
        }

    def test_pass_that_changed_the_set_runs_again(self, monkeypatch):
        calls = self._record_calls(monkeypatch, {("T", 1): 1})
        report = analyze(small_synthetic(seed=2, n=5))
        assert "".join(calls) == "ACMDTACMDT"
        assert report.iterations == 2

    def test_no_change_is_one_round(self, monkeypatch):
        calls = self._record_calls(monkeypatch, {})
        report = analyze(small_synthetic(seed=2, n=5), properties="MT")
        assert "".join(calls) == "MT"
        assert report.iterations == 1

    def test_no_passes_is_one_round(self):
        assert analyze(small_synthetic(seed=2, n=5), "").iterations == 1


def _digest(report):
    constraints = report.constraints
    payload = {
        "before": [
            constraints.predecessor_mask(i) for i in range(constraints.n)
        ],
        "edges": sorted(constraints.precedence_edges),
        "consecutive": constraints.consecutive_pairs,
        "added": sorted(report.added_by_property.items()),
        "iterations": report.iterations,
    }
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "make, digest",
    [
        pytest.param(
            lambda: reduced_tpch(4, "low"), "945acce174f468c8", id="4-low"
        ),
        pytest.param(
            lambda: reduced_tpch(9, "low"), "8a2d31dcb46468ff", id="9-low"
        ),
        pytest.param(
            lambda: reduced_tpch(13, "low"), "a6de23d1964dbb57", id="13-low"
        ),
        pytest.param(
            lambda: reduced_tpch(22, "low"), "cc4a646401a3ad09", id="22-low"
        ),
        pytest.param(
            lambda: reduced_tpch(13, "mid"), "3332c0558637ef08", id="13-mid"
        ),
        pytest.param(tpch_instance, "311fe4ea8ae5f321", id="tpch"),
        pytest.param(tpcds_instance, "60d775cc9200ce07", id="tpcds"),
        pytest.param(
            lambda: small_synthetic(seed=0, n=10),
            "7510d2839c7e2578",
            id="syn-10",
        ),
    ],
)
def test_constraint_set_digest(make, digest):
    """Constraints, per-property counts and rounds of ``analyze()``."""
    assert _digest(analyze(make())) == digest
