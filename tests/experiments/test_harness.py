"""Unit tests for the experiment harness utilities."""

from __future__ import annotations

import pytest

from repro.experiments.harness import (
    DF,
    ResultTable,
    engine_stats_note,
    format_cell,
    make_solver,
    quick_mode,
)


class TestFormatCell:
    def test_none_is_empty(self):
        assert format_cell(None) == ""

    def test_float_two_decimals(self):
        assert format_cell(3.14159) == "3.14"

    def test_tiny_positive_float(self):
        assert format_cell(0.001) == "<0.01"

    def test_zero(self):
        assert format_cell(0.0) == "0.00"

    def test_nan_is_empty(self):
        assert format_cell(float("nan")) == ""

    def test_string_passthrough(self):
        assert format_cell(DF) == "DF"

    def test_int(self):
        assert format_cell(42) == "42"


class TestResultTable:
    def test_render_contains_all_cells(self):
        table = ResultTable("T", headers=["a", "b"])
        table.add_row("x", 1.5)
        table.add_row("y", None)
        text = table.render()
        assert "T" in text
        assert "x" in text
        assert "1.50" in text

    def test_columns_aligned(self):
        table = ResultTable("T", headers=["method", "t"])
        table.add_row("very-long-method-name", 1.0)
        table.add_row("m", 2.0)
        lines = table.render().splitlines()
        data = [line for line in lines if "|" in line]
        pipes = {line.index("|") for line in data}
        assert len(pipes) == 1  # every row breaks at the same column

    def test_notes_rendered(self):
        table = ResultTable("T", headers=["a"])
        table.add_note("hello note")
        assert "hello note" in table.render()

    def test_row_wider_than_headers_renders_every_cell(self):
        # Merged shard tables can carry more cells per row than headers;
        # this used to raise IndexError while sizing the extra columns.
        table = ResultTable("T", headers=["method", "t"])
        table.add_row("base", 1.0)
        table.add_row("wide", 2.0, 3.0, "extra")
        text = table.render()
        assert "2.00" in text
        assert "3.00" in text
        assert "extra" in text

    def test_wide_rows_stay_aligned(self):
        table = ResultTable("T", headers=["m"])
        table.add_row("a", 1.0)
        table.add_row("bb", 22.0)
        lines = table.render().splitlines()
        data = [line for line in lines if "|" in line]
        pipes = {line.index("|") for line in data}
        assert len(pipes) == 1

    def test_as_dict_roundtrip_fields(self):
        table = ResultTable("T", headers=["a"])
        table.add_row(1.0)
        payload = table.as_dict()
        assert payload["title"] == "T"
        assert payload["headers"] == ["a"]
        assert payload["rows"] == [[1.0]]


class TestQuickMode:
    def test_default_quick(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        assert quick_mode()

    def test_full_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "1")
        assert not quick_mode()


class TestMakeSolver:
    def test_resolves_through_registry(self):
        from repro.solvers.localsearch.vns import VNSSolver

        solver = make_solver("vns", seed=9)
        assert isinstance(solver, VNSSolver)
        assert solver.seed == 9

    def test_unknown_name_raises(self):
        from repro.errors import SolverError

        with pytest.raises(SolverError):
            make_solver("nope")


class TestEngineStatsNote:
    def test_none_for_missing_stats(self):
        assert engine_stats_note("x", None) is None
        assert engine_stats_note("x", {}) is None

    def test_delta_format_is_parseable(self):
        import re

        note = engine_stats_note(
            "ts-bswap",
            {
                "delta_evals": 10,
                "replayed_steps": 40,
                "memo_hits": 0,
                "memo_misses": 0,
            },
        )
        match = re.search(r"10 delta evals, replayed (\d+) steps", note)
        assert match is not None
        assert int(match.group(1)) == 40
        assert "baseline" not in note

    def test_scan_kernels_reported_separately(self):
        scalar = engine_stats_note(
            "ts-bswap",
            {
                "batch_evals": 32,
                "batch_moves": 0,
                "batch_numpy": 0,
                "delta_evals": 100,
                "replayed_steps": 5,
            },
        )
        assert "32 scalar neighborhood scans" in scalar
        assert "moves" not in scalar
        vector = engine_stats_note(
            "vns",
            {
                "batch_evals": 3,
                "batch_moves": 30,
                "batch_numpy": 3,
                "full_evals": 1,
            },
        )
        assert "3 numpy batch scans (30 moves)" in vector
        assert "scalar" not in vector

    def test_full_eval_only_stats(self):
        note = engine_stats_note("cp", {"full_evals": 7, "delta_evals": 0})
        assert note.startswith("engine[cp]:")
        assert "7 full evals" in note

    def test_memo_misses_without_hits_key(self):
        # Partial stats dicts (e.g. from a trimmed as_dict) used to
        # raise KeyError on the missing memo_hits key.
        note = engine_stats_note(
            "vns", {"full_evals": 3, "memo_misses": 5}
        )
        assert "memo 0/5 hits" in note

    def test_memo_hits_without_misses_key(self):
        note = engine_stats_note(
            "vns", {"full_evals": 3, "memo_hits": 4}
        )
        assert "memo 4/4 hits" in note
