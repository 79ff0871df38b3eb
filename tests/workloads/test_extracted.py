"""Tests for the packaged TPC-H / TPC-DS extracted instances.

These check the Table-4 shape claims the benchmarks rely on: instance
sizes within the paper's ballpark and a clear density gap between TPC-H
and TPC-DS.  They also check that the packaged matrix files are what
the pipeline extracts today.
"""

from __future__ import annotations

import pytest

from repro.core.serialization import save_instance
from repro.core.validation import check_precedence_feasibility, lint_instance
from repro.workloads import extracted


class TestPackagedArtifacts:
    @pytest.mark.parametrize("stem", ["tpch", "tpcds"])
    def test_re_extraction_reproduces_artifact(self, stem, tmp_path):
        # Regenerate with ``python tools/build_artifacts.py`` when a
        # deliberate dbms or workload change moves the extraction.
        extract = getattr(extracted, f"extract_{stem}_instance")
        fresh = tmp_path / f"{stem}.json"
        save_instance(extract(), fresh)
        packaged = extracted.DATA_DIR / f"{stem}.json"
        assert fresh.read_bytes() == packaged.read_bytes()


class TestTPCHInstance:
    def test_shape_near_paper(self, tpch_full):
        counts = tpch_full.interaction_counts()
        assert counts["queries"] == 22
        assert 25 <= counts["indexes"] <= 40  # paper: 31
        assert 100 <= counts["plans"] <= 350  # paper: 221
        assert 4 <= counts["largest_plan"] <= 7  # paper: 5

    def test_has_build_and_query_interactions(self, tpch_full):
        counts = tpch_full.interaction_counts()
        assert counts["build_interactions"] > 0
        assert counts["query_interactions"] > 0

    def test_precedences_feasible(self, tpch_full):
        check_precedence_feasibility(tpch_full)

    def test_no_duplicate_plans(self, tpch_full):
        warnings = lint_instance(tpch_full)
        assert not [w for w in warnings if "duplicate" in w]


class TestTPCDSInstance:
    def test_shape_near_paper(self, tpcds_full):
        counts = tpcds_full.interaction_counts()
        assert counts["queries"] == 102
        assert 100 <= counts["indexes"] <= 160  # paper: 148
        assert 1500 <= counts["plans"] <= 5000  # paper: 3386
        assert counts["largest_plan"] >= 5  # paper: 13

    def test_denser_than_tpch(self, tpch_full, tpcds_full):
        tpch = tpch_full.interaction_counts()
        tpcds = tpcds_full.interaction_counts()
        assert tpcds["indexes"] > 3 * tpch["indexes"]
        assert tpcds["plans"] > 5 * tpch["plans"]
        assert tpcds["query_interactions"] > 5 * tpch["query_interactions"]
        assert tpcds["build_interactions"] > tpch["build_interactions"]

    def test_precedences_feasible(self, tpcds_full):
        check_precedence_feasibility(tpcds_full)


class TestReducedInstances:
    def test_reduced_size(self, reduced_tpch_13):
        assert reduced_tpch_13.n_indexes == 13

    def test_low_density_semantics(self, reduced_tpch_13):
        # low density: no build interactions, one plan per served query.
        assert len(reduced_tpch_13.build_interactions) == 0
        for query in reduced_tpch_13.queries:
            assert len(reduced_tpch_13.plans_of_query(query.query_id)) <= 1

    @pytest.mark.parametrize("n", [6, 11, 16])
    def test_varied_sizes(self, n):
        from repro.experiments.instances import reduced_tpch

        instance = reduced_tpch(n, "low")
        assert instance.n_indexes == n

    def test_mid_density_keeps_some_interactions(self):
        from repro.experiments.instances import reduced_tpch

        instance = reduced_tpch(16, "mid")
        for query in instance.queries:
            assert len(instance.plans_of_query(query.query_id)) <= 2
