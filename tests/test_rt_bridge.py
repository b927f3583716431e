"""Tests for the loopback-bridge experiment and the rt CLI
(repro.rt.bridge, repro.rt.cli)."""

from __future__ import annotations

import math

import pytest

from repro.harness.presets import Scale
from repro.harness.scenario import FixedPositionsSpec, StationarySpec
from repro.rt.bridge import (BRIDGE_PROTOCOLS, RELIABILITY_TOLERANCE,
                             bridge_scenario, grid_positions,
                             loopback_bridge)
from repro.rt.cli import build_parser, main

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
        assert row["within_band"]
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


class TestCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["loopback-bridge"])
        assert args.command == "loopback-bridge"
        assert args.protocols == ",".join(BRIDGE_PROTOCOLS)
        assert args.time_scale > 0

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bad_time_scale_exits_2(self, capsys):
        assert main(["loopback-bridge", "--time-scale", "0"]) == 2
        assert "time-scale" in capsys.readouterr().err

    def test_unknown_protocol_exits_2(self, capsys):
        assert main(["loopback-bridge", "--protocols", "frugal,zzz"]) == 2
        err = capsys.readouterr().err
        assert "zzz" in err and "frugal" in err

    @pytest.mark.parametrize("argv, env", [(["--jobs", "-1"], None),
                                           ([], "two")])
    def test_bad_worker_count_exits_2(self, capsys, monkeypatch, argv, env):
        """One line on stderr and exit 2, before a pool or a socket."""
        from repro.rt import cli
        monkeypatch.setattr(cli, "loopback_bridge", lambda *a, **k: (
            pytest.fail("bridge ran with a bad worker count")))
        if env is not None:
            monkeypatch.setenv("REPRO_JOBS", env)
        assert main(["loopback-bridge", *argv]) == 2
        err = capsys.readouterr().err
        assert "worker count" in err and len(err.splitlines()) == 1
