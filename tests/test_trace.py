"""Tests for protocol tracing (repro.metrics.trace) and the bounded
neighbourhood table (paper footnote 5)."""

from __future__ import annotations

import pytest

from repro.core import FrugalConfig, FrugalPubSub
from repro.core.events import EventFactory
from repro.core.tables import NeighborhoodTable
from repro.core.topics import Topic
from repro.metrics import MetricsCollector, ProtocolTracer
from repro.mobility import Stationary
from repro.net import Node, RadioConfig, WirelessMedium
from repro.sim import RngRegistry, Simulator
from repro.sim.space import Vec2


def build_traced_pair(sim, rngs):
    medium = WirelessMedium(sim, RadioConfig(range_override_m=100.0),
                            rng=rngs.stream("medium"))
    collector = MetricsCollector(medium)
    tracer = ProtocolTracer(medium)
    nodes = []
    for i in range(2):
        proto = FrugalPubSub(FrugalConfig())
        node = Node(i, sim, medium,
                    Stationary(position=Vec2(i * 50.0, 0.0)), proto,
                    rngs.stream("node", i))
        proto.subscribe(".a")
        collector.track_node(node)
        tracer.track_node(node)
        nodes.append(node)
    for n in nodes:
        n.start()
    return medium, collector, tracer, nodes


class TestTracer:
    def test_records_transmissions_and_receptions(self, sim, rngs):
        _, _, tracer, _ = build_traced_pair(sim, rngs)
        sim.run(until=2.5)
        assert tracer.of_kind("tx")
        assert tracer.of_kind("rx")
        kinds = {r.detail for r in tracer.of_kind("tx")}
        assert "Heartbeat" in kinds

    def test_chains_existing_hooks(self, sim, rngs):
        """Installing the tracer after a collector must keep the collector
        counting."""
        _, collector, tracer, nodes = build_traced_pair(sim, rngs)
        sim.run(until=2.5)
        assert collector.record(nodes).total_bytes() > 0   # still counting
        assert len(tracer) > 0

    def test_delivery_records_event_id(self, sim, rngs):
        _, _, tracer, nodes = build_traced_pair(sim, rngs)
        sim.run(until=2.5)
        event = EventFactory(0).create(".a.x", validity=60.0, now=sim.now)
        nodes[0].protocol.publish(event)
        sim.run(until=6.0)
        deliveries = tracer.of_kind("deliver")
        assert {r.node for r in deliveries} == {0, 1}
        assert all(r.event_ids == (event.event_id,) for r in deliveries)

    def test_timeline_tells_the_story(self, sim, rngs):
        _, _, tracer, nodes = build_traced_pair(sim, rngs)
        sim.run(until=2.5)
        event = EventFactory(0).create(".a.x", validity=60.0, now=sim.now)
        nodes[0].protocol.publish(event)
        sim.run(until=6.0)
        timeline = tracer.dissemination_timeline(event.event_id)
        assert "tx" in timeline and "deliver" in timeline
        assert str(event.event_id) in timeline

    def test_timeline_empty_for_unknown_event(self, sim, rngs):
        _, _, tracer, _ = build_traced_pair(sim, rngs)
        from repro.core.events import EventId
        assert "no trace records" in \
            tracer.dissemination_timeline(EventId(99, 99))

    def test_max_records_bound(self, sim, rngs):
        medium = WirelessMedium(sim, RadioConfig(range_override_m=100.0),
                                rng=rngs.stream("medium"))
        tracer = ProtocolTracer(medium, max_records=5)
        proto = FrugalPubSub(FrugalConfig())
        node = Node(0, sim, medium, Stationary(position=Vec2(0, 0)),
                    proto, rngs.stream("node", 0))
        proto.subscribe(".a")
        node.start()
        sim.run(until=30.0)
        assert len(tracer) == 5


class TestBoundedNeighborhood:
    def test_capacity_evicts_stalest(self):
        table = NeighborhoodTable(capacity=2)
        table.upsert(1, [Topic(".a")], None, now=1.0)
        table.upsert(2, [Topic(".a")], None, now=2.0)
        table.upsert(3, [Topic(".a")], None, now=3.0)
        assert table.ids() == [2, 3]

    def test_refresh_does_not_evict(self):
        table = NeighborhoodTable(capacity=2)
        table.upsert(1, [Topic(".a")], None, now=1.0)
        table.upsert(2, [Topic(".a")], None, now=2.0)
        table.upsert(1, [Topic(".a")], None, now=3.0)   # refresh, not new
        assert table.ids() == [1, 2]

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            NeighborhoodTable(capacity=0)

    def test_config_plumbs_capacity_into_protocol(self):
        proto = FrugalPubSub(FrugalConfig(neighborhood_capacity=3))
        assert proto.neighborhood.capacity == 3

    def test_config_validates_capacity(self):
        with pytest.raises(ValueError):
            FrugalConfig(neighborhood_capacity=0)

    def test_protocol_with_tiny_table_still_disseminates(self, sim, rngs):
        """Four neighbours through a 2-slot table: eviction churn causes
        re-announcements but must not break delivery."""
        medium = WirelessMedium(sim, RadioConfig(range_override_m=300.0),
                                rng=rngs.stream("medium"))
        nodes = []
        for i in range(5):
            proto = FrugalPubSub(FrugalConfig(neighborhood_capacity=2))
            node = Node(i, sim, medium,
                        Stationary(position=Vec2(i * 40.0, 0.0)), proto,
                        rngs.stream("node", i))
            proto.subscribe(".a")
            nodes.append(node)
        for n in nodes:
            n.start()
        sim.run(until=3.3)
        event = EventFactory(0).create(".a.x", validity=300.0, now=sim.now)
        nodes[0].protocol.publish(event)
        sim.run(until=60.0)
        delivered = sum(1 for n in nodes if event in n.delivered_events)
        assert delivered == 5
