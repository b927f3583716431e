"""Tests for the UDP loopback cluster (repro.rt.cluster).

These bind real ``127.0.0.1`` datagram sockets: small populations, high
time compression, generous assertions — the point is that registered
protocol stacks deliver over an actual kernel network path, not exact
timing.
"""

from __future__ import annotations

import pytest

from repro.core.base import ProtocolCounters
from repro.harness.scenario import (FixedPositionsSpec, Publication,
                                    ScenarioConfig)
from repro.metrics import MetricsRecord, event_reliability
from repro.rt.bridge import grid_positions
from repro.rt.cluster import (RT_FAULT_KINDS, LoopbackCluster, RtFault,
                              RtResult)
from tests.helpers import make_event


def tiny_config(protocol: str = "frugal", n: int = 5,
                seed: int = 0, **changes) -> ScenarioConfig:
    """A minimal full-mesh scenario: one publication, short window."""
    cfg = ScenarioConfig(
        n_processes=n,
        mobility=FixedPositionsSpec(grid_positions(n)),
        duration=10.0, warmup=4.0, seed=seed, protocol=protocol,
        subscriber_fraction=0.8, speed_sensor=False,
        publications=(Publication(at=1.0, validity=8.0),))
    return cfg.with_changes(**changes) if changes else cfg


class TestClusterDelivery:
    def test_frugal_delivers_over_real_udp(self):
        result = LoopbackCluster(tiny_config(), time_scale=20.0).run()
        assert result.reliability() == 1.0
        assert result.datagrams_sent > 0
        assert result.wire_bytes_sent > 0
        assert result.frames_rejected == 0
        counters = result.counters()
        assert counters.heartbeats_sent > 0
        assert counters.delivered_count >= counters.batches_sent > 0

    def test_counters_are_windowed_per_node(self):
        cfg = tiny_config()
        result = LoopbackCluster(cfg, time_scale=20.0).run()
        assert len(result.per_node_counters) == cfg.n_processes
        # The warm-up baseline was subtracted: the measurement window is
        # 10 virtual seconds of ~1 Hz heartbeats, so per-node heartbeat
        # counts must be nowhere near the lifetime (14 s) tally.
        for c in result.per_node_counters:
            assert isinstance(c, ProtocolCounters)
            assert 0 <= c.heartbeats_sent <= 13

    def test_non_subscribers_drop_parasites(self):
        result = LoopbackCluster(tiny_config(), time_scale=20.0).run()
        reports = result.per_event_reports()
        assert len(reports) == 1
        assert reports[0].subscribers == len(result.subscriber_ids) == 4

    def test_same_seed_same_subscriber_draw_as_sim(self):
        from repro.harness.scenario import select_subscribers
        from repro.sim import RngRegistry
        cfg = tiny_config()
        result = LoopbackCluster(cfg, time_scale=20.0).run()
        expected = select_subscribers(cfg, RngRegistry(cfg.seed))
        assert result.subscriber_ids == expected

    def test_summary_schema(self):
        result = LoopbackCluster(tiny_config(), time_scale=20.0).run()
        summary = result.summary()
        for key in ("reliability", "messages_per_node", "datagrams_sent",
                    "wire_bytes_sent", "frames_rejected", "wallclock_s"):
            assert key in summary
        assert summary["messages_per_node"] > 0


class TestClusterFaults:
    def test_crashed_subscriber_misses_the_event(self):
        cfg = tiny_config()
        result = LoopbackCluster(cfg, time_scale=20.0).run()
        victim = [i for i in result.subscriber_ids][-1]
        faulted = LoopbackCluster(
            cfg, time_scale=20.0,
            faults=(RtFault(at=0.2, kind="crash", node=victim),)).run()
        n_subs = len(faulted.subscriber_ids)
        assert faulted.reliability() == pytest.approx((n_subs - 1) / n_subs)

    def test_recovered_subscriber_catches_up(self):
        # Crash before the publication, recover mid-validity: the
        # store-and-forward layers must replay the event to the
        # returning node (the paper's core catch-up behaviour), so
        # reliability recovers to 1.0.  The window is generous —
        # rediscovery (1 s heartbeats) plus the 2 s forwarding backoff
        # put the catch-up several virtual seconds after the fault ends.
        cfg = tiny_config(
            duration=16.0,
            publications=(Publication(at=1.0, validity=14.0),))
        probe = LoopbackCluster(cfg, time_scale=20.0).run()
        victim = [i for i in probe.subscriber_ids][-1]
        result = LoopbackCluster(
            cfg, time_scale=20.0,
            faults=(RtFault(at=0.2, kind="crash", node=victim),
                    RtFault(at=4.0, kind="recover", node=victim))).run()
        assert result.reliability() == 1.0

    def test_silence_window_is_survivable(self):
        # Silence outlives the 2.5 s neighbour-eviction horizon, so both
        # sides rediscover each other after the restore and the id
        # exchange replays the missed event (same budget as above).
        cfg = tiny_config(
            duration=16.0,
            publications=(Publication(at=1.0, validity=14.0),))
        probe = LoopbackCluster(cfg, time_scale=20.0).run()
        victim = [i for i in probe.subscriber_ids][-1]
        result = LoopbackCluster(
            cfg, time_scale=20.0,
            faults=(RtFault(at=0.2, kind="silence", node=victim),
                    RtFault(at=4.0, kind="restore", node=victim))).run()
        assert result.reliability() == 1.0


class TestReportsWithoutSockets:
    def test_hand_built_result_reports_like_the_sim(self):
        """RtResult scores deliveries by the sim's own function: in time
        up to and including expiry, late after, missing not at all."""
        published = [make_event(seq=0, validity=60.0),
                     make_event(seq=1, validity=60.0)]
        times = {published[0].event_id: {1: 10.0, 2: 60.0, 3: 61.0,
                                         9: 5.0}}   # 9: not a subscriber
        result = RtResult(
            config=tiny_config(), time_scale=1.0,
            published_events=published, subscriber_ids=[1, 2, 3, 4],
            delivery_times=times, per_node_counters=[], frames_sent=0,
            datagrams_sent=0, wire_bytes_sent=0, frames_rejected=0,
            wallclock_s=0.0)
        record = MetricsRecord(stats={}, delivery_times=times, published={},
                               protocol_totals=ProtocolCounters())
        assert result.per_event_reports() == [
            event_reliability(record, event, [1, 2, 3, 4])
            for event in published]
        first, second = result.per_event_reports()
        assert (first.delivered_in_time, first.delivered_late) == (2, 1)
        assert (second.delivered_in_time, second.delivered_late) == (0, 0)
        assert result.reliability() == pytest.approx((2 / 4 + 0) / 2)


class TestValidation:
    def test_fault_vocabulary(self):
        assert RT_FAULT_KINDS == ("crash", "recover", "silence", "restore")
        with pytest.raises(ValueError):
            RtFault(at=1.0, kind="drain", node=0)
        with pytest.raises(ValueError):
            RtFault(at=-1.0, kind="crash", node=0)
        with pytest.raises(ValueError):
            RtFault(at=1.0, kind="crash", node=-1)

    def test_fault_node_out_of_range(self):
        with pytest.raises(ValueError, match="only 5 nodes"):
            LoopbackCluster(tiny_config(),
                            faults=(RtFault(at=1.0, kind="crash", node=9),))

    def test_bad_time_scale_rejected(self):
        with pytest.raises(ValueError):
            LoopbackCluster(tiny_config(), time_scale=0.0)

    def test_unknown_protocol_error_lists_known_names(self):
        # ScenarioConfig validates protocol itself, so sneak an unknown
        # name past it to prove the cluster's own guard also reports
        # the full registry (satellite: registry ergonomics).
        cfg = tiny_config()
        object.__setattr__(cfg, "protocol", "bogus-proto")
        with pytest.raises(ValueError) as err:
            LoopbackCluster(cfg)
        assert "bogus-proto" in str(err.value)
        assert "frugal" in str(err.value)
        assert "gossip" in str(err.value)


class TestRegistryErgonomics:
    """Unknown-protocol errors on every surface list the known names."""

    def test_scenario_config_lists_known_protocols(self):
        with pytest.raises(ValueError) as err:
            tiny_config(protocol="no-such-protocol")
        assert "frugal" in str(err.value)
        assert "simple-flooding" in str(err.value)

    def test_registry_get_lists_known_protocols(self):
        from repro.core import registry
        with pytest.raises(ValueError) as err:
            registry.get("no-such-protocol")
        assert "no-such-protocol" in str(err.value)
        assert "frugal" in str(err.value)

    def test_rt_cli_lists_known_protocols(self, capsys):
        from repro.rt.cli import main
        code = main(["loopback-bridge", "--protocols", "no-such-protocol"])
        assert code == 2
        err = capsys.readouterr().err
        assert "no-such-protocol" in err
        assert "frugal" in err

    def test_harness_cli_unknown_experiment_exits_2(self, capsys):
        from repro.harness.cli import main
        assert main(["no-such-experiment"]) == 2
