"""Tests for result rendering (repro.harness.reporting)."""

from __future__ import annotations

import csv

import pytest

from repro.harness.experiments import ExperimentResult
from repro.harness.reporting import (format_experiment, format_table,
                                     pivot_table, to_csv)


def sample_result() -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="figX", title="Sample", parameters={"scale": "quick"})
    result.rows = [
        {"speed": 5.0, "validity": 30.0, "reliability": 0.61,
         "reliability_std": 0.05},
        {"speed": 5.0, "validity": 90.0, "reliability": 0.92,
         "reliability_std": 0.02},
        {"speed": 10.0, "validity": 30.0, "reliability": 0.74,
         "reliability_std": 0.04},
        {"speed": 10.0, "validity": 90.0, "reliability": 0.97,
         "reliability_std": 0.01},
    ]
    return result


class TestFormatTable:
    def test_renders_header_and_rows(self):
        text = format_table([{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}])
        lines = text.splitlines()
        assert lines[0].split("|")[0].strip() == "a"
        assert len(lines) == 4          # header, separator, 2 rows

    def test_alignment_consistent(self):
        text = format_table([{"col": 1}, {"col": 1000}])
        lines = text.splitlines()
        assert len({len(line) for line in lines}) == 1

    def test_bools_and_floats_rendered(self):
        text = format_table([{"flag": True, "v": 0.123456}])
        assert "yes" in text
        assert "0.1235" in text

    def test_empty(self):
        assert format_table([]) == "(no rows)"

    def test_explicit_column_selection(self):
        text = format_table([{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in text.splitlines()[0]


class TestFormatExperiment:
    def test_includes_title_and_hides_std_columns(self):
        text = format_experiment(sample_result())
        assert "figX" in text and "Sample" in text
        assert "reliability_std" not in text

    def test_explicit_columns_respected(self):
        text = format_experiment(sample_result(), columns=["speed"])
        assert "reliability" not in text.splitlines()[2]


class TestToCsv:
    def test_round_trips_all_columns(self, tmp_path):
        path = tmp_path / "out.csv"
        to_csv(sample_result(), str(path))
        with open(path) as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 4
        assert "reliability_std" in rows[0]
        assert float(rows[0]["reliability"]) == 0.61

    def test_empty_result_rejected(self, tmp_path):
        empty = ExperimentResult("x", "t", {})
        with pytest.raises(ValueError):
            to_csv(empty, str(tmp_path / "no.csv"))


class TestPivotTable:
    """The multi-key pivot every grid rendering routes through."""

    def test_pivots_rows_to_matrix(self):
        text = pivot_table(sample_result().rows, "speed", "validity",
                           "reliability")
        lines = text.splitlines()
        assert "validity=30" in lines[0]
        assert "validity=90" in lines[0]
        assert len(lines) == 4          # header, sep, 2 speed rows

    def test_fixed_filter(self):
        text = pivot_table(sample_result().filter(speed=5.0), "speed",
                           "validity", "reliability")
        assert len(text.splitlines()) == 3

    def test_single_key_byte_identical_to_historical_grid(self):
        # Golden output of the first single-key grid implementation:
        # the single-key path must never drift.
        expected = ("speed | validity=30 | validity=90\n"
                    "------+-------------+------------\n"
                    "    5 |        0.61 |        0.92\n"
                    "   10 |        0.74 |        0.97")
        assert pivot_table(sample_result().rows, "speed", "validity",
                           "reliability") == expected

    def test_multi_key_rows_and_cols(self):
        rows = [{"p": p, "duty": d, "churn": c, "rel": 0.5}
                for p in ("a", "b") for d in (1.0, 0.5) for c in (0.0, 2.0)]
        text = pivot_table(rows, ("p", "duty"), ("churn",), "rel")
        lines = text.splitlines()
        # One label column per row key, one line per (p, duty) combo.
        assert lines[0].startswith("p | duty")
        assert len(lines) == 2 + 4
        assert "churn=0" in lines[0] and "churn=2" in lines[0]

    def test_multi_key_col_labels_join_keys(self):
        rows = [{"p": "a", "duty": d, "churn": c, "rel": 0.5}
                for d in (1.0, 0.5) for c in (0.0, 2.0)]
        text = pivot_table(rows, "p", ("duty", "churn"), "rel")
        assert "duty=0.5,churn=0" in text.splitlines()[0]

    def test_missing_combination_renders_nan(self):
        rows = [{"r": 1, "c": 1, "v": 0.5}, {"r": 2, "c": 2, "v": 0.7}]
        text = pivot_table(rows, "r", "c", "v")
        assert "nan" in text

    def test_unknown_key_raises_with_known_columns(self):
        rows = [{"r": 1, "c": 1, "v": 0.5}]
        with pytest.raises(KeyError, match="known columns"):
            pivot_table(rows, "r", "c", "reliabilty")

    def test_empty_rows(self):
        assert pivot_table([], "r", "c", "v") == "(no rows)"


class TestExperimentPivot:
    """The one pivot mechanism: a declaration's ``PivotSpec``, rendered
    by ``pivot_report`` into the result's notes."""

    ROWS = [{"protocol": "frugal", "churn_per_min": 0.0,
             "churn_reliability": 1.0},
            {"protocol": "gossip", "churn_per_min": 0.0,
             "churn_reliability": 0.9}]

    def pivot(self, study_id):
        from repro.study import build_study
        from tests.test_experiments import TINY
        return build_study(study_id, TINY).pivot

    def test_protocol_matrix_gets_a_pivot(self):
        from repro.study import pivot_report
        text = pivot_report(self.ROWS, self.pivot("protocol-matrix"))
        assert "churn_reliability by protocol" in text
        assert "frugal" in text and "gossip" in text

    def test_protocol_matrix_rendering_byte_identical(self):
        """Golden output from before pivot generalisation: the
        declared protocol-matrix pivot must render the same grid (the
        title line names the column key since it became a PivotSpec)."""
        from repro.study import pivot_report
        assert pivot_report(self.ROWS, self.pivot("protocol-matrix")) == (
            "-- churn_reliability by protocol over churn_per_min --\n"
            "protocol | churn_per_min=0\n"
            "---------+----------------\n"
            "  frugal |               1\n"
            "  gossip |             0.9")

    def test_unregistered_experiment_has_none(self):
        assert self.pivot("fig13") is None
