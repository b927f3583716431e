"""Tests for the declarative study subsystem (repro.study).

Unit tests for field-path setting, grid expansion determinism,
component-toggle composition, folded axes and Pareto-dominance edge
cases, plus the serial == parallel == cached identity of a study run.
That every registered declaration reproduces the CSV bytes of the
hand-written loop it replaced is ``tests/test_golden_experiments.py``.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys

import pytest

import repro
from repro.harness import parallel
from repro.harness.cache import ResultCache
from repro.harness.experiments import rwp_scenario, with_publisher
from repro.harness.runner import aggregate
from repro.harness.scenario import ScenarioConfig
from repro.study import (ALL_EXPERIMENTS, Axis, Component, Metric,
                         Objective, PivotSpec, StudySpec, Toggles, Variant,
                         dominates, expand, pareto_frontier, run_study,
                         set_field_path)
from repro.study.analysis import frontier_report
from repro.study.studies import STUDIES, build_study, get_study, ids_study
from tests.test_experiments import TINY

# Expansion-only registry tests never run a scenario; one seed keeps
# their specs small.
TINY1 = dataclasses.replace(TINY, seeds=1)


def tiny_config(**changes) -> ScenarioConfig:
    """A minimal scenario config for expansion-only tests (never run)."""
    cfg = rwp_scenario(TINY, 10.0, 10.0, validity=30.0, interest=0.5)
    return cfg.with_changes(**changes) if changes else cfg


def tiny_spec(grid, **overrides) -> StudySpec:
    """A one-metric spec over ``grid`` for expansion-only tests."""
    spec = dict(study_id="test-study", title="t", base=tiny_config(),
                grid=grid, seeds=(0,), metrics=(Metric("reliability"),))
    spec.update(overrides)
    return StudySpec(**spec)


class TestSetFieldPath:
    def test_sets_top_level_field(self):
        cfg = set_field_path(tiny_config(), "protocol", "gossip")
        assert cfg.protocol == "gossip"

    def test_sets_nested_field_immutably(self):
        base = tiny_config()
        cfg = set_field_path(base, "frugal.eviction_policy", "fifo")
        assert cfg.frugal.eviction_policy == "fifo"
        assert base.frugal.eviction_policy != "fifo"

    def test_unknown_field_names_known_fields(self):
        with pytest.raises(ValueError, match="'evicton_policy' in path "
                           "'frugal.evicton_policy'; known fields"):
            set_field_path(tiny_config(), "frugal.evicton_policy", "fifo")

    def test_none_intermediate_rejected(self):
        # The plain rwp config carries no energy instrumentation.
        with pytest.raises(ValueError, match="is None"):
            set_field_path(tiny_config(), "energy.duty_cycle", None)

    def test_non_dataclass_descent_rejected(self):
        with pytest.raises(ValueError,
                           match="of path 'protocol.x': not a dataclass"):
            set_field_path(tiny_config(), "protocol.x", 1)


class TestAxis:
    def test_path_defaults_to_name(self):
        axis = Axis(name="protocol", values=("frugal", "gossip"))
        assert axis.paths() == ("protocol",)

    def test_tuple_path_sets_every_field(self):
        axis = Axis(name="speed", values=(7.0,),
                    path=("mobility.speed_min", "mobility.speed_max"))
        (_, transform), = axis.points()
        cfg = transform(tiny_config())
        assert cfg.mobility.speed_min == cfg.mobility.speed_max == 7.0

    def test_cells_override_explodes_composite_values(self):
        axis = Axis(name="outage", values=(("crash", 0.5),),
                    apply=lambda cfg, v: cfg,
                    cells=lambda v: {"outage": v[0], "radius_frac": v[1]})
        (cells, _), = axis.points()
        assert cells == {"outage": "crash", "radius_frac": 0.5}

    def test_path_and_apply_mutually_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            Axis(name="x", values=(1,), path="protocol",
                 apply=lambda cfg, v: cfg)

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            Axis(name="x", values=())


class TestToggles:
    def two_components(self):
        return (Component("backoff", off={"frugal.use_backoff": False}),
                Component("ids",
                          off={"frugal.announce_on_new_neighbor": False}))

    def test_default_variants_all_on_then_leave_one_out(self):
        toggles = Toggles(components=self.two_components())
        labels = [toggles.label(v) for v in toggles.resolved_variants()]
        assert labels == ["backoff+ids", "no-backoff", "no-ids"]

    def test_explicit_label_wins(self):
        toggles = Toggles(components=self.two_components(),
                          variants=(Variant(enabled=(), label="bare"),))
        assert [toggles.label(v)
                for v in toggles.resolved_variants()] == ["bare"]

    def test_transforms_compose_in_component_order(self):
        toggles = Toggles(components=self.two_components())
        points = dict((cells["variant"], transform)
                      for cells, transform in toggles.points())
        cfg = points["no-backoff"](tiny_config())
        assert cfg.frugal.use_backoff is False
        assert cfg.frugal.announce_on_new_neighbor is True
        cfg = points["backoff+ids"](tiny_config())
        assert cfg.frugal.use_backoff is True

    def test_later_component_wins_on_shared_path(self):
        toggles = Toggles(components=(
            Component("a", off={"frugal.hb_upper_bound": 3.0}),
            Component("b", off={"frugal.hb_upper_bound": 7.0})))
        points = dict((cells["variant"], transform)
                      for cells, transform in toggles.points())
        cfg = points["no-a"](tiny_config())
        assert cfg.frugal.hb_upper_bound == 3.0

    def test_unknown_variant_component_rejected(self):
        with pytest.raises(ValueError, match="unknown components"):
            Toggles(components=self.two_components(),
                    variants=(Variant(enabled=("bakcoff",)),))

    def test_duplicate_component_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Toggles(components=(Component("a"), Component("a")))


class TestExpand:
    def test_rightmost_dimension_varies_fastest(self):
        spec = tiny_spec(grid=(
            Axis(name="protocol", values=("frugal", "gossip")),
            Axis(name="speed", values=(5.0, 10.0),
                 path=("mobility.speed_min", "mobility.speed_max"))))
        cells = [c.cells for c in expand(spec)]
        assert cells == [
            {"protocol": "frugal", "speed": 5.0},
            {"protocol": "frugal", "speed": 10.0},
            {"protocol": "gossip", "speed": 5.0},
            {"protocol": "gossip", "speed": 10.0}]

    def test_expansion_is_deterministic(self):
        spec = tiny_spec(grid=(
            Axis(name="protocol", values=("frugal", "gossip")),
            Toggles(components=(Component(
                "ids", off={"frugal.announce_on_new_neighbor": False}),))))
        first, second = expand(spec), expand(spec)
        assert [c.cells for c in first] == [c.cells for c in second]
        assert [c.config for c in first] == [c.config for c in second]

    def test_configs_reflect_cell_coordinates(self):
        spec = tiny_spec(grid=(
            Axis(name="protocol", values=("frugal", "gossip")),))
        for cell in expand(spec):
            assert cell.config.protocol == cell.cells["protocol"]

    def test_row_key_clash_rejected(self):
        spec = tiny_spec(grid=(
            Axis(name="protocol", values=("frugal",)),
            Axis(name="protocol2", values=("gossip",),
                 cells=lambda v: {"protocol": v})))
        with pytest.raises(ValueError, match="more than one grid"):
            expand(spec)


class TestSpecValidation:
    def test_empty_grid_seeds_metrics_rejected(self):
        with pytest.raises(ValueError, match="empty grid"):
            tiny_spec(grid=())
        with pytest.raises(ValueError, match="no seeds"):
            tiny_spec(grid=(Axis(name="protocol", values=("frugal",)),),
                      seeds=())
        with pytest.raises(ValueError, match="no metrics"):
            tiny_spec(grid=(Axis(name="protocol", values=("frugal",)),),
                      metrics=())

    def test_duplicate_metric_columns_rejected(self):
        with pytest.raises(ValueError, match="repeats metric"):
            tiny_spec(grid=(Axis(name="protocol", values=("frugal",)),),
                      metrics=(Metric("reliability"),
                               Metric("reliability")))

    def test_objective_goal_validated(self):
        with pytest.raises(ValueError, match="max.*min|'max' or 'min'"):
            Objective("reliability", "maximise")

    def test_pivot_coerces_single_keys(self):
        pivot = PivotSpec(rows="protocol", cols="churn", value="rel")
        assert pivot.rows == ("protocol",) and pivot.cols == ("churn",)


class TestPareto:
    R_MAX_J_MIN = (Objective("rel", "max"), Objective("joules", "min"))

    def test_simple_dominance(self):
        rows = [{"rel": 0.9, "joules": 10.0},
                {"rel": 0.8, "joules": 12.0},   # worse in both
                {"rel": 0.95, "joules": 20.0}]  # a trade-off: survives
        result = pareto_frontier(rows, self.R_MAX_J_MIN)
        assert list(result.frontier) == [rows[0], rows[2]]
        assert [d.row for d in result.dominated] == [rows[1]]
        assert result.dominated[0].by == rows[0]

    def test_exact_ties_both_survive(self):
        rows = [{"rel": 0.9, "joules": 10.0}, {"rel": 0.9, "joules": 10.0}]
        result = pareto_frontier(rows, self.R_MAX_J_MIN)
        assert len(result.frontier) == 2 and not result.dominated
        assert not dominates([0.9, 10.0], [0.9, 10.0], self.R_MAX_J_MIN)

    def test_partial_tie_decided_by_strict_objective(self):
        rows = [{"rel": 0.9, "joules": 10.0}, {"rel": 0.9, "joules": 11.0}]
        result = pareto_frontier(rows, self.R_MAX_J_MIN)
        assert list(result.frontier) == [rows[0]]

    def test_non_finite_values_rejected(self):
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="non-finite"):
                pareto_frontier([{"rel": bad, "joules": 1.0}],
                                self.R_MAX_J_MIN)

    def test_missing_objective_key_names_columns(self):
        with pytest.raises(KeyError, match="known columns"):
            pareto_frontier([{"rel": 0.9}], self.R_MAX_J_MIN)

    def test_no_objectives_rejected(self):
        with pytest.raises(ValueError, match="at least one objective"):
            pareto_frontier([{"rel": 0.9}], ())

    def test_frontier_report_accounts_for_every_point(self):
        rows = [{"p": "a", "rel": 0.9, "joules": 10.0},
                {"p": "b", "rel": 0.8, "joules": 12.0}]
        text = frontier_report(pareto_frontier(rows, self.R_MAX_J_MIN),
                               cell_keys=("p",))
        assert "frontier: 1 of 2 points; 1 dominated" in text
        assert "rel max, joules min" in text
        assert "p=a" in text            # the dominating witness label


class TestFoldedAxis:
    """``Axis(folded=True)``: swept, reduced into one row, no cells."""

    PROTOCOLS = Axis(name="protocol", values=("frugal", "gossip"))

    @staticmethod
    def publishers(*values) -> Axis:
        return Axis(name="publisher", values=values, folded=True,
                    apply=with_publisher)

    def test_width_one_fold_equals_unfolded_spec(self):
        metrics = (Metric("reliability"), Metric("bandwidth_bytes"))
        flat = run_study(tiny_spec(grid=(self.PROTOCOLS,),
                                   metrics=metrics))
        folded = run_study(tiny_spec(
            grid=(self.PROTOCOLS, self.publishers(0)), metrics=metrics))
        assert folded.experiment.rows == flat.experiment.rows

    def test_fold_reduces_point_means_in_declaration_order(self):
        seen = []

        def spread(values):
            seen.append(list(values))
            return max(values) - min(values)

        result = run_study(tiny_spec(
            grid=(self.PROTOCOLS, self.publishers(2, 0, 1)), seeds=(0, 1),
            metrics=(Metric("reliability", std=True),
                     Metric("spread", key="reliability", fold=spread))))
        assert len(result.cells) == 6 and len(result.experiment.rows) == 2
        for i, row in enumerate(result.experiment.rows):
            means = [multi.reliability.mean
                     for multi in result.per_cell[3 * i:3 * i + 3]]
            assert seen[i] == means     # exactly the per-point seed-means
            across = aggregate(means)
            assert row == {"protocol": self.PROTOCOLS.values[i],
                           "reliability": across.mean,
                           "reliability_std": across.std,
                           "spread": max(means) - min(means)}
        publishers = [cell.config.publications[0].publisher
                      for cell in result.cells]
        assert publishers == [2, 0, 1, 2, 0, 1]

    def test_folded_axis_must_be_rightmost(self):
        with pytest.raises(ValueError, match="'publisher'.*rightmost"):
            tiny_spec(grid=(self.publishers(0, 1), self.PROTOCOLS))

    def test_folded_axis_contributes_no_row_keys(self):
        spec = tiny_spec(grid=(self.PROTOCOLS, self.publishers(0, 1)))
        assert spec.axis_keys() == ("protocol",)
        assert all(cell.cells.keys() == {"protocol"}
                   for cell in expand(spec))


class TestRegistry:
    def test_every_study_registered_as_experiment(self):
        assert set(ALL_EXPERIMENTS) - set(STUDIES) == {"loopback-bridge"}
        assert "study-frontier" in STUDIES

    @pytest.mark.parametrize("first", ["repro.study", "repro.harness",
                                       "repro.rt"])
    def test_packages_import_in_any_order(self, first):
        """harness never imports study (only its CLI does), so each
        package can be the first import of a fresh interpreter."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", f"import {first}"],
                              env=env, capture_output=True, text=True,
                              timeout=60)
        assert done.returncode == 0, done.stderr

    def test_unknown_study_names_known_ones(self):
        with pytest.raises(KeyError, match="known studies"):
            get_study("abl-typo")

    def test_build_study_ids_match(self):
        for study_id in STUDIES:
            assert build_study(study_id, TINY1).study_id == study_id

    def test_frontier_spec_shape(self):
        spec = build_study("study-frontier", TINY1)
        assert len(spec.objectives) >= 3
        assert spec.pivot is not None
        assert len(expand(spec)) == 18  # 3 protocols x 3 churn x 2 duty
        assert spec.axis_keys() == ("protocol", "churn_per_min",
                                    "awake_fraction")


class TestDeclarationEquivalence:
    """One study, three schedulers, identical rows."""

    def test_serial_parallel_and_cached_runs_identical(self, tmp_path):
        spec = ids_study(TINY)
        serial = run_study(spec, parallel.ParallelRunner(jobs=1))
        workers = run_study(spec, parallel.ParallelRunner(jobs=2))
        cached_runner = parallel.ParallelRunner(
            jobs=1, cache=ResultCache(tmp_path / "cache"))
        cold = run_study(spec, cached_runner)
        assert workers.experiment.rows == serial.experiment.rows
        assert cold.experiment.rows == serial.experiment.rows

        # A warm-cache re-run must execute zero scenarios.
        cached_runner.stats.reset()
        warm = run_study(spec, cached_runner)
        assert warm.experiment.rows == serial.experiment.rows
        assert cached_runner.stats.executed == 0
        assert cached_runner.stats.cache_hits == len(expand(spec)) * len(
            spec.seeds)


class TestRunStudy:
    def test_unknown_metric_key_names_summary_keys(self):
        spec = tiny_spec(
            grid=(Axis(name="protocol", values=("frugal",)),),
            metrics=(Metric("joules_per_node"),))
        with pytest.raises(KeyError, match="known keys"):
            run_study(spec)

    def test_notes_carry_pivot_and_frontier(self):
        spec = tiny_spec(
            grid=(Axis(name="protocol", values=("frugal", "gossip")),),
            metrics=(Metric("reliability"), Metric("bandwidth_bytes")),
            objectives=(Objective("reliability", "max"),
                        Objective("bandwidth_bytes", "min")),
            pivot=PivotSpec(rows="protocol", cols="protocol",
                            value="reliability"))
        result = run_study(spec)
        assert any("Pareto frontier" in note
                   for note in result.experiment.notes)
        assert any("reliability by protocol" in note
                   for note in result.experiment.notes)
        assert result.frontier().frontier

    def test_frontier_requires_objectives(self):
        spec = tiny_spec(grid=(Axis(name="protocol", values=("frugal",)),))
        with pytest.raises(ValueError, match="no objectives"):
            run_study(spec).frontier()

    def test_std_metric_emits_std_column(self):
        spec = tiny_spec(
            grid=(Axis(name="protocol", values=("frugal",)),),
            seeds=(0, 1),
            metrics=(Metric("reliability", std=True),))
        result = run_study(spec)
        assert "reliability_std" in result.experiment.rows[0]


class TestExperimentResultErrors:
    """Regression: typo'd column names must raise, not return nothing."""

    def result(self):
        from repro.harness.experiments import ExperimentResult
        return ExperimentResult(
            experiment_id="x", title="t", parameters={},
            rows=[{"protocol": "frugal", "reliability": 1.0}])

    def test_column_typo_raises_with_known_columns(self):
        with pytest.raises(KeyError, match="known columns.*protocol"):
            self.result().column("reliabilty")

    def test_filter_typo_raises_with_known_columns(self):
        with pytest.raises(KeyError, match="known columns.*reliability"):
            self.result().filter(protocl="frugal")

    def test_valid_lookups_still_work(self):
        result = self.result()
        assert result.column("reliability") == [1.0]
        assert result.filter(protocol="frugal") == result.rows
        assert result.filter(protocol="gossip") == []
