"""Tests for the loopback-bridge experiment (repro.rt.bridge)."""

from __future__ import annotations

import math
from types import SimpleNamespace

import pytest

from repro.harness.presets import Scale
from repro.harness.scenario import FixedPositionsSpec, StationarySpec
from repro.rt.bridge import (RELIABILITY_TOLERANCE, bridge_scenario,
                             grid_positions, loopback_bridge)
from repro.rt.cluster import LoopbackCluster

TINY = Scale(
    name="tiny",
    rwp_processes=10, rwp_area_m=1200.0, rwp_warmup=10.0,
    city_processes=6, city_warmup=10.0, city_publisher_rotations=2,
    seeds=2, sweep_density="coarse",
)


class TestGrid:
    def test_positions_count_and_spacing(self):
        pts = grid_positions(20, spacing=20.0)
        assert len(pts) == 20
        assert len(set(pts)) == 20

    def test_grid_is_single_hop_for_paper_radio(self):
        # Every pair must be within the paper radio's communication
        # range, so the sim medium sees the same full mesh as the UDP
        # peer table.
        from repro.net import RadioConfig
        radio_range = RadioConfig.paper_random_waypoint()
        pts = grid_positions(40)
        diameter = max(math.dist(a, b) for a in pts for b in pts)
        assert diameter < radio_range.communication_range_m()

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            grid_positions(0)


class TestBridgeScenario:
    def test_population_floor_and_shape(self):
        import dataclasses
        for name in ("smoke", "quick", "paper"):
            cfg = bridge_scenario("frugal",
                                  dataclasses.replace(TINY, name=name))
            assert cfg.n_processes >= 20
            assert isinstance(cfg.mobility, FixedPositionsSpec)
            assert not isinstance(cfg.mobility, StationarySpec)
            assert len(cfg.publications) == 3
            assert not cfg.speed_sensor

    def test_unknown_scale_defaults_to_20(self):
        cfg = bridge_scenario("frugal", TINY)
        assert cfg.n_processes == 20

    def test_documented_tolerances_cover_all_scales(self):
        assert set(RELIABILITY_TOLERANCE) == {"smoke", "quick", "paper"}
        assert all(0 < t <= 0.25 for t in RELIABILITY_TOLERANCE.values())


class TestBridgeRun:
    def test_frugal_bridge_within_band(self):
        # One protocol, tiny scale, high compression: the full
        # sim-vs-UDP pipeline end to end.
        result = loopback_bridge(TINY, protocols=("frugal",),
                                 time_scale=20.0)
        assert result.experiment_id == "loopback-bridge"
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row["protocol"] == "frugal"
        assert row["n"] >= 20
        assert 0.0 <= row["sim_reliability"] <= 1.0
        assert 0.0 <= row["rt_reliability"] <= 1.0
        assert row["within_band"] and result.notes == []
        assert abs(row["delta"]) <= row["tolerance"]
        assert row["rt_msgs_per_node"] > 0
        assert row["sim_msgs_per_node"] > 0

    def test_unknown_protocol_fails_fast_with_known_names(self):
        with pytest.raises(ValueError) as err:
            loopback_bridge(TINY, protocols=("frugal", "nope"))
        assert "nope" in str(err.value)
        assert "frugal" in str(err.value)

    def test_registered_in_all_experiments(self):
        from repro.study import ALL_EXPERIMENTS
        assert "loopback-bridge" in ALL_EXPERIMENTS


class TestBandWarning:
    """A row outside the tolerance band is named in one note, which the
    harness CLI prints after the table.  The cluster is stubbed — gossip
    "measures" reliability 0, everything else 1 — so no socket opens."""

    @pytest.fixture(autouse=True)
    def gossip_drifts(self, monkeypatch):
        def run(cluster):
            reliability = 0.0 if cluster.config.protocol == "gossip" else 1.0
            return SimpleNamespace(reliability=lambda: reliability,
                                   messages_per_node=lambda: 1.0)
        monkeypatch.setattr(LoopbackCluster, "run", run)

    def test_one_note_names_the_protocol_outside_the_band(self):
        result = loopback_bridge(TINY, protocols=("frugal", "gossip"))
        assert [row["within_band"] for row in result.rows] == [True, False]
        [note] = result.notes
        assert "gossip" in note and "frugal" not in note

    def test_harness_cli_prints_the_note(self, capsys):
        from repro.harness.cli import main
        assert main(["loopback-bridge", "--scale", "smoke",
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert out.count("WARNING") == 1
        note = out.index("WARNING: measured reliability outside the ±0.25 "
                         "band for: gossip\n")
        assert out.index("simple-flooding |") < note < out.index("engine:")
