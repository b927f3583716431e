"""Tests for the registered experiments and their scenario factories.

These run miniature versions of each experiment — a dedicated `tiny`
scale far smaller than `quick` — to verify the sweep structure, row
schemas and the qualitative trends the benchmarks rely on.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.harness.experiments import (churn_scenario, city_scale_scenario,
                                       city_scenario, rwp_scenario)
from repro.harness.presets import PAPER, QUICK, SMOKE, Scale, get_scale
from repro.sim.shard import ShardConfig
from repro.study import (ALL_EXPERIMENTS, Axis, Metric, build_study,
                         run_study)
from repro.study.studies import CHURN_PROTOCOLS

TINY = Scale(
    name="tiny",
    rwp_processes=10, rwp_area_m=1200.0, rwp_warmup=10.0,
    city_processes=6, city_warmup=10.0, city_publisher_rotations=2,
    seeds=2, sweep_density="coarse",
)


class TestPresets:
    def test_registry(self):
        assert get_scale("quick") is QUICK
        assert get_scale("paper") is PAPER
        assert get_scale("smoke") is SMOKE
        with pytest.raises(ValueError):
            get_scale("huge")

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "paper")
        assert get_scale() is PAPER
        monkeypatch.delenv("REPRO_SCALE")
        assert get_scale() is QUICK

    def test_pick_by_density(self):
        assert QUICK.pick([1, 2, 3], [1, 3]) == [1, 3]
        assert PAPER.pick([1, 2, 3], [1, 3]) == [1, 2, 3]

    def test_seed_list(self):
        assert TINY.seed_list() == [0, 1]
        assert TINY.seed_list(base=10) == [10, 11]


class TestScenarioBuilders:
    def test_rwp_scenario_duration_covers_validity(self):
        cfg = rwp_scenario(TINY, 10.0, 10.0, validity=50.0, interest=0.5)
        pub = cfg.publications[0]
        assert cfg.duration >= pub.at + pub.validity

    def test_rwp_scenario_zero_speed_is_stationary(self):
        from repro.harness.scenario import StationarySpec
        cfg = rwp_scenario(TINY, 0.0, 0.0, validity=30.0, interest=0.5)
        assert isinstance(cfg.mobility, StationarySpec)

    def test_rwp_multi_event_publishers_rotate(self):
        cfg = rwp_scenario(TINY, 10.0, 10.0, validity=30.0, interest=1.0,
                           n_events=3)
        assert [p.publisher for p in cfg.publications] == [0, 1, 2]

    def test_city_scenario_uses_urban_radio(self):
        cfg = city_scenario(TINY, validity=60.0, interest=1.0)
        assert cfg.radio.communication_range_m() == 44.0
        assert cfg.n_processes == TINY.city_processes

    def test_city_scenario_hb_bound_plumbs_through(self):
        cfg = city_scenario(TINY, validity=60.0, interest=1.0, hb_upper=3.0)
        assert cfg.frugal.hb_upper_bound == 3.0

    def test_scale_shard_plan_reaches_every_factory(self):
        """``--shards`` rides on the scale: all three factories stamp
        it, and city-scale names it in its parameters."""
        plan = ShardConfig(shards=4, rows=2)
        scale = dataclasses.replace(TINY, shards=plan)
        assert rwp_scenario(scale, 10.0, 10.0, validity=30.0,
                            interest=0.5).shards == plan
        assert city_scenario(scale, validity=60.0, interest=1.0).shards \
            == plan
        assert city_scale_scenario(scale, 40).shards == plan
        assert build_study("city-scale", scale).parameters["shards"] == "2x2"
        assert not rwp_scenario(TINY, 10.0, 10.0, validity=30.0,
                                interest=0.5).shards


class TestReliabilityExperiments:
    def test_fig11_rows_cover_sweep(self):
        result = ALL_EXPERIMENTS["fig11"](TINY)
        assert result.experiment_id == "fig11"
        speeds = set(result.column("speed"))
        assert speeds == set(TINY.pick([0.0, 1.0, 5.0, 10.0, 20.0, 30.0,
                                        40.0], [0.0, 5.0, 10.0, 30.0]))
        interests = set(result.column("interest"))
        assert interests == {0.2, 0.8}
        for row in result.rows:
            assert 0.0 <= row["reliability"] <= 1.0

    def test_fig11_more_subscribers_not_worse(self):
        """The paper's headline: 80% interest reaches far higher
        reliability than 20% at equal speed/validity (sparse networks
        fail)."""
        result = ALL_EXPERIMENTS["fig11"](TINY)
        high = [r["reliability"] for r in result.filter(interest=0.8)]
        low = [r["reliability"] for r in result.filter(interest=0.2)]
        assert sum(high) / len(high) >= sum(low) / len(low)

    def test_fig13_row_schema(self):
        result = ALL_EXPERIMENTS["fig13"](TINY)
        assert set(result.column("hb_upper")) == {1.0, 3.0, 5.0}
        assert all("reliability" in row for row in result.rows)

    def test_fig15_spread_is_max_minus_min(self):
        result = ALL_EXPERIMENTS["fig15"](TINY)
        for row in result.rows:
            assert row["spread"] == pytest.approx(
                row["best"] - row["worst"])
            assert 0.0 <= row["spread"] <= 1.0


class TestFrugalityExperiments:
    @pytest.fixture(scope="class")
    def result(self):
        """The Fig. 17 declaration, narrowed to two protocols and widened
        to all four frugality metrics — declarations are data."""
        spec = build_study("fig17", TINY)
        spec = dataclasses.replace(
            spec,
            grid=(Axis(name="protocol",
                       values=("frugal", "simple-flooding")),)
            + spec.grid[1:],
            metrics=tuple(Metric(name) for name in (
                "bandwidth_bytes", "events_sent", "duplicates",
                "parasites")))
        return run_study(spec).experiment

    def test_comparison_runs_all_protocols(self, result):
        assert set(r["protocol"] for r in result.rows) == \
            {"frugal", "simple-flooding"}

    def test_frugal_beats_flooding_on_all_four_metrics(self, result):
        """The paper's core claim, at any scale."""
        frugal = result.filter(protocol="frugal", events=20, interest=1.0)[0]
        flood = result.filter(protocol="simple-flooding", events=20,
                              interest=1.0)[0]
        assert frugal["bandwidth_bytes"] < flood["bandwidth_bytes"]
        assert frugal["events_sent"] < flood["events_sent"]
        assert frugal["duplicates"] < flood["duplicates"]
        assert frugal["parasites"] <= flood["parasites"]


class TestAblations:
    def test_gc_ablation_covers_all_policies(self):
        result = run_study(build_study("abl-gc", TINY,
                                       capacity=4)).experiment
        assert set(result.column("policy")) == {
            "validity-forward", "remaining-validity", "fifo", "random"}

    def test_backoff_ablation_variants(self):
        result = ALL_EXPERIMENTS["abl-backoff"](TINY)
        variants = set(result.column("variant"))
        assert variants == {"backoff+suppression", "no-suppression",
                            "no-backoff"}

    def test_heartbeat_ablation_shape(self):
        result = ALL_EXPERIMENTS["abl-adaptive-hb"](TINY)
        assert len(result.rows) == 6      # 2 variants x 3 speeds

    def test_ids_ablation_shape(self):
        result = ALL_EXPERIMENTS["abl-ids"](TINY)
        assert [r["id_exchange"] for r in result.rows] == [True, False]


class TestChurnExperiments:
    def test_churn_scenario_none_is_instrumented_noop(self):
        cfg = churn_scenario(TINY, "frugal", None)
        assert cfg.faults is not None
        assert cfg.faults.churn is None and not cfg.faults.plan.events

    def test_churn_resilience_shape_and_trends(self):
        result = ALL_EXPERIMENTS["churn-resilience"](TINY)
        rates = sorted({r["churn_per_min"] for r in result.rows})
        assert rates[0] == 0.0 and len(rates) == 3
        assert {r["protocol"] for r in result.rows} == set(CHURN_PROTOCOLS)
        for row in result.rows:
            # Churn-aware denominators only remove unservable nodes.
            assert row["churn_reliability"] >= row["reliability"] - 1e-12
            if row["churn_per_min"] == 0.0:
                assert row["availability"] == 1.0
                assert row["downtime_s"] == 0.0
            else:
                assert row["availability"] < 1.0
                assert row["downtime_s"] > 0.0

    def test_protocol_matrix_covers_every_visible_protocol(self):
        from repro.core import registry
        result = ALL_EXPERIMENTS["protocol-matrix"](TINY)
        measured = {r["protocol"] for r in result.rows}
        assert measured == set(registry.names())
        assert "gossip" in measured                    # the new baseline
        assert not any(p.startswith("legacy-") for p in measured)
        rates = sorted({r["churn_per_min"] for r in result.rows})
        assert rates[0] == 0.0 and len(rates) == 3
        for row in result.rows:
            assert 0.0 <= row["reliability"] <= 1.0
            assert row["churn_reliability"] >= row["reliability"] - 1e-12

    def test_outage_ablation_shape(self):
        result = ALL_EXPERIMENTS["abl-outage"](TINY)
        kinds = [r["outage"] for r in result.rows]
        assert kinds[0] == "none"
        assert set(kinds) == {"none", "silence", "crash"}
        for row in result.rows:
            if row["outage"] == "none":
                assert row["availability"] == 1.0
            else:
                assert row["availability"] < 1.0


class TestRegistry:
    def test_all_figures_and_ablations_registered(self):
        expected = {f"fig{i}" for i in range(11, 21)} | {
            "abl-gc", "abl-backoff", "abl-adaptive-hb", "abl-ids",
            "abl-dutycycle", "abl-outage", "related-work",
            "energy-lifetime", "churn-resilience", "protocol-matrix",
            "loopback-bridge", "city-scale", "study-frontier"}
        assert set(ALL_EXPERIMENTS) == expected
