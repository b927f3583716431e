"""Unit tests for the measurement layer (repro.metrics)."""

from __future__ import annotations

import pickle

import pytest

from repro.core import FrugalConfig, FrugalPubSub
from repro.metrics import (MetricsCollector, event_reliability,
                           mean_reliability, reliability_spread)
from repro.metrics.reliability import ReliabilityReport
from repro.mobility import Stationary
from repro.net import Node, RadioConfig, WirelessMedium
from repro.net.messages import EventBatch, Heartbeat
from repro.sim import RngRegistry, Simulator
from repro.sim.space import Vec2

from tests.helpers import make_event


def build_pair(sim, rngs, subscribe=(".a", ".a"), distance=50.0):
    medium = WirelessMedium(sim, RadioConfig(range_override_m=100.0),
                            rng=rngs.stream("medium"))
    collector = MetricsCollector(medium)
    nodes = []
    for i, topic in enumerate(subscribe):
        proto = FrugalPubSub(FrugalConfig())
        node = Node(i, sim, medium,
                    Stationary(position=Vec2(i * distance, 0.0)),
                    proto, rngs.stream("node", i))
        proto.subscribe(topic)
        collector.track_node(node)
        nodes.append(node)
    for n in nodes:
        n.start()
    return medium, collector, nodes


class TestTransmitAccounting:
    def test_bytes_and_frames_counted_per_sender(self, sim, rngs):
        medium, collector, nodes = build_pair(sim, rngs)
        sim.run(until=3.2)
        stats = collector.stats[0]
        assert stats.frames_sent >= 3                # heartbeats at least
        assert stats.bytes_sent >= 3 * 50
        assert stats.bytes_by_kind["Heartbeat"] >= 150

    def test_event_payloads_counted(self, sim, rngs):
        medium, collector, nodes = build_pair(sim, rngs)
        sim.run(until=2.5)
        event = make_event(publisher=0, topic=".a.x", validity=60.0,
                           now=sim.now)
        collector.record_publication(event)
        nodes[0].protocol.publish(event)
        sim.run(until=4.0)
        assert collector.stats[0].events_sent >= 1
        assert collector.record(nodes).bytes_by_kind().get(
            "EventBatch", 0) >= 400

    def test_freeze_suspends_counting(self, sim, rngs):
        medium, collector, nodes = build_pair(sim, rngs)
        collector.freeze()
        sim.run(until=5.0)
        assert collector.record(nodes).total_bytes() == 0
        collector.resume()
        sim.run(until=8.0)
        assert collector.record(nodes).total_bytes() > 0

    def test_freeze_suspends_delivery_timestamps(self, sim, rngs):
        """Deliveries outside the measurement window must not leak into
        the reliability figures."""
        medium, collector, nodes = build_pair(sim, rngs)
        event = make_event(publisher=0, topic=".a.x", validity=600.0,
                           now=0.0)
        collector.record_publication(event)
        collector.freeze()
        nodes[1].deliver(event)
        assert collector.record(nodes).deliveries_of(event.event_id) == {}
        collector.resume()
        nodes[1].deliver(event)
        assert 1 in collector.record(nodes).deliveries_of(event.event_id)


class TestReceptionClassification:
    def test_first_reception_useful_second_duplicate(self, sim, rngs):
        medium, collector, nodes = build_pair(sim, rngs)
        event = make_event(publisher=9, topic=".a.x", validity=600.0,
                           now=0.0)
        # Deliver the same payload twice to node 1 via raw medium hooks.
        msg = EventBatch(sender=0, events=(event,))
        collector._on_receive(1, msg)
        collector._on_receive(1, msg)
        stats = collector.stats[1]
        assert stats.useful_receptions == 1
        assert stats.duplicates_received == 1
        assert stats.parasites_received == 0

    def test_parasite_reception_counted_every_time(self, sim, rngs):
        medium, collector, nodes = build_pair(sim, rngs,
                                              subscribe=(".a", ".zzz"))
        event = make_event(publisher=9, topic=".a.x", validity=600.0,
                           now=0.0)
        msg = EventBatch(sender=0, events=(event,))
        collector._on_receive(1, msg)
        collector._on_receive(1, msg)
        assert collector.stats[1].parasites_received == 2
        assert collector.stats[1].duplicates_received == 0

    def test_heartbeats_are_not_event_receptions(self, sim, rngs):
        medium, collector, nodes = build_pair(sim, rngs)
        collector._on_receive(1, Heartbeat(sender=0,
                                           subscriptions=frozenset()))
        stats = collector.stats[1]
        assert stats.useful_receptions == 0
        assert stats.parasites_received == 0


class TestPerProcessAggregates:
    def test_division_by_node_count(self, sim, rngs):
        medium, collector, nodes = build_pair(sim, rngs)
        sim.run(until=2.2)
        record = collector.record(nodes)
        total = record.total_bytes()
        assert record.bandwidth_per_process_bytes() == \
            pytest.approx(total / 2)

    def test_empty_collector_returns_zero(self, sim, rngs):
        medium = WirelessMedium(sim, RadioConfig(range_override_m=10.0))
        record = MetricsCollector(medium).record([])
        assert record.bandwidth_per_process_bytes() == 0.0
        assert record.duplicates_per_process() == 0.0


class TestRecord:
    def test_record_is_a_snapshot_that_pickles_equal(self, sim, rngs):
        medium, collector, nodes = build_pair(sim, rngs)
        sim.run(until=3.2)
        record = collector.record(nodes)
        sent = record.total_bytes()
        assert sent > 0
        assert record.frames["frames_sent"] == medium.frames_sent
        sim.run(until=8.0)
        assert collector.record(nodes).total_bytes() > sent
        assert record.total_bytes() == sent        # counting moved on
        assert pickle.loads(pickle.dumps(record)) == record


class TestDeliveryTimes:
    def test_delivery_timestamps_recorded(self, sim, rngs):
        medium, collector, nodes = build_pair(sim, rngs)
        sim.run(until=2.5)
        event = make_event(publisher=0, topic=".a.x", validity=60.0,
                           now=sim.now)
        collector.record_publication(event)
        nodes[0].protocol.publish(event)
        publish_time = sim.now
        sim.run(until=6.0)
        times = collector.record(nodes).deliveries_of(event.event_id)
        assert times[0] == publish_time          # local delivery
        assert times[1] > publish_time           # over the air

    def test_first_delivery_wins(self, sim, rngs):
        medium, collector, nodes = build_pair(sim, rngs)
        event = make_event(publisher=0, topic=".a.x", validity=60.0,
                           now=0.0)
        collector._on_deliver(nodes[1], event)
        t_first = collector.record(nodes).deliveries_of(event.event_id)[1]
        sim.run(until=1.0)
        collector._on_deliver(nodes[1], event)
        assert collector.record(nodes).deliveries_of(
            event.event_id)[1] == t_first


class TestReliabilityMath:
    def make_report(self, **kw):
        defaults = dict(event_id=make_event().event_id, subscribers=10,
                        delivered_in_time=5, delivered_late=1)
        defaults.update(kw)
        return ReliabilityReport(**defaults)

    def test_reliability_fraction(self):
        assert self.make_report().reliability == 0.5

    def test_zero_subscribers(self):
        assert self.make_report(subscribers=0,
                                delivered_in_time=0).reliability == 0.0

    def test_event_reliability_respects_validity(self, sim, rngs):
        medium, collector, nodes = build_pair(sim, rngs)
        event = make_event(publisher=0, topic=".a.x", validity=10.0,
                           now=0.0)
        collector._on_deliver(nodes[0], event)          # t=0, in time
        sim.run(until=50.0)
        collector._on_deliver(nodes[1], event)          # t=50, too late
        report = event_reliability(collector.record(nodes), event, [0, 1])
        assert report.delivered_in_time == 1
        assert report.delivered_late == 1
        assert report.reliability == 0.5

    def test_mean_and_spread(self):
        reports = [self.make_report(delivered_in_time=n)
                   for n in (2, 5, 8)]
        assert mean_reliability(reports) == pytest.approx(0.5)
        assert reliability_spread(reports) == pytest.approx(0.6)

    def test_empty_sequences(self):
        assert mean_reliability([]) == 0.0
        assert reliability_spread([]) == 0.0
