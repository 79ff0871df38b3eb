"""Smoke tests for the experiment modules behind the benchmarks.

Each experiment must run end to end under tiny budgets and produce a
paper-shaped table.  These tests pin the *structure* (headers, row
labels, shape claims) rather than timing values.
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    ablation,
    build_savings,
    fig9,
    fig11,
    fig12,
    fig13,
    table4,
    table5,
    table6,
    table7,
)
from repro.experiments.harness import ResultTable


class TestTable4:
    def test_rows_and_headers(self):
        table = table4.run()
        assert isinstance(table, ResultTable)
        labels = [row[0] for row in table.rows]
        assert "TPC-H" in labels
        assert "TPC-DS" in labels
        assert any("paper" in str(label) for label in labels)

    def test_measured_matches_instance(self, tpch_full):
        table = table4.run()
        tpch_row = next(row for row in table.rows if row[0] == "TPC-H")
        counts = tpch_full.interaction_counts()
        assert tpch_row[1] == counts["queries"]
        assert tpch_row[2] == counts["indexes"]


class TestTable5:
    def test_small_grid_runs(self):
        table = table5.run(time_limit=3.0, grid=[(6, "low"), (7, "low")])
        methods = [row[0] for row in table.rows]
        assert methods == ["MIP", "CP", "MIP+", "CP+", "VNS"]
        assert len(table.headers) == 3
        # A VNS cell is the time to its best order, not its 3 s budget.
        vns = table.rows[-1][1:]
        assert all(cell.endswith("*") for cell in vns)
        assert all(float(cell[:-1]) < 3.0 for cell in vns)

    def test_closed_model_note(self):
        from repro.core.solution import SolveStatus

        def payload(status, objective):
            return {"status": status, "objective": objective}

        payloads = {
            ("mip", 0): payload(SolveStatus.FEASIBLE, 101.0),
            ("cp", 0): payload(SolveStatus.OPTIMAL, 100.0),
            ("mip+", 0): payload(SolveStatus.TIMEOUT, 102.0),
            ("vns", 0): payload(SolveStatus.FEASIBLE, 100.0),
        }
        note = table5._closed_model_note([(6, "low")], payloads)
        assert "MIP |I|=6 low +1.000%, VNS's best equals it" in note
        assert "MIP+" not in note  # a timeout is not a closed model
        assert table5._closed_model_note([(6, "low")], {}) is None

    def test_cp_solves_small_low_density(self):
        table = table5.run(time_limit=5.0, grid=[(6, "low")])
        by_method = {row[0]: row[1] for row in table.rows}
        # CP and CP+ must close a 6-index low-density instance quickly.
        assert by_method["CP"] != "DF"
        assert by_method["CP+"] != "DF"


class TestTable6:
    def test_property_drilldown_rows(self):
        table = table6.run(time_limit=3.0, sizes=[6, 7])
        labels = [row[0] for row in table.rows]
        assert labels == ["CP", "+A", "+AC", "+ACM", "+ACMD", "+ACMDT"]

    def test_implied_pairs_monotone_down_the_ladder(self):
        table = table6.run(time_limit=3.0, sizes=[7])
        implied = [row[-1] for row in table.rows]
        assert implied == sorted(implied)


class TestTable7:
    def test_initial_solution_comparison(self):
        table = table7.run(samples=20)
        labels = [row[0] for row in table.rows]
        assert "TPC-H" in labels
        assert "TPC-DS" in labels
        assert [h.lower() for h in table.headers[1:5]] == [
            "greedy",
            "dp",
            "random (avg)",
            "random (min)",
        ]

    def test_greedy_beats_dp_and_random(self):
        # The paper's Table-7 ordering: Greedy < DP and Greedy < both
        # random statistics, on both workloads.
        table = table7.run(samples=30)
        for row in table.rows:
            label, greedy, dp, random_avg, random_min = row[:5]
            assert greedy <= dp, label
            assert greedy <= random_avg, label
            assert greedy <= random_min, label


class TestFig9:
    def test_tail_listing_structure(self):
        table = fig9.run(n_indexes=8, tail_length=2, max_rows=16)
        assert table.headers[0] == "Tail pattern"
        # Champion markers appear.
        champions = [row for row in table.rows if row[2]]
        assert champions


class TestFig11:
    def test_anytime_series(self):
        table = fig11.run(time_limit=1.5, n_runs=1)
        methods = [row[0] for row in table.rows]
        assert "VNS" in methods
        assert "LNS" in methods
        assert "TS-BSWAP" in methods
        assert "CP" in methods

    def test_series_monotone_nonincreasing(self):
        table = fig11.run(time_limit=1.5, n_runs=1)
        # Each method's row must be non-increasing over time.
        for row in table.rows:
            series = [cell for cell in row[1:] if isinstance(cell, float)]
            assert series == sorted(series, reverse=True), row[0]


class TestFig12:
    def test_tpcds_anytime_series(self):
        table = fig12.run(time_limit=2.0, n_runs=1)
        methods = [row[0] for row in table.rows]
        assert "VNS" in methods
        assert "TS-BSWAP" in methods
        assert "TS-FSWAP" in methods


class TestFig13:
    def test_decomposition_series(self):
        table = fig13.run(time_limit=1.5)
        assert table.rows
        headers = [h.lower() for h in table.headers]
        assert any("deploy" in h for h in headers)
        assert any("runtime" in h for h in headers)

    def test_deployment_time_improves(self):
        table = fig13.run(time_limit=2.0)
        deploy = [row[1] for row in table.rows if isinstance(row[1], float)]
        assert deploy[-1] <= deploy[0] + 1e-9


class TestBuildSavings:
    def test_section12_claims_measured(self):
        table = build_savings.run(time_limit=1.5)
        quantities = [str(row[0]).lower() for row in table.rows]
        assert any("single-index" in q or "build" in q for q in quantities)
        assert any("deployment" in q for q in quantities)

    def test_best_single_saving_substantial(self, tpcds_full):
        best = max(
            (
                bi.saving / tpcds_full.indexes[bi.target].create_cost
                for bi in tpcds_full.build_interactions
            ),
            default=0.0,
        )
        # Paper: up to ~80%.
        assert best >= 0.4


class TestAblation:
    def test_interactions_matter(self):
        table = ablation.run(time_limit=1.0)
        assert table.rows
        # Full-model objective must not be worse than interaction-blind.
        for row in table.rows:
            label, full, naive = row[0], row[1], row[2]
            if isinstance(full, float) and isinstance(naive, float):
                assert full <= naive * 1.02, label
