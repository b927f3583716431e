"""Subscription dynamics: the paper allows a process to change its
subscription list at any time (Section 4.1, footnote 3).  These tests
verify the protocol tracks such changes live — heartbeats, matching,
entitlement and task lifecycle all follow the current subscription set."""

from __future__ import annotations

from repro.core import FrugalConfig, FrugalPubSub
from repro.core.events import EventFactory
from repro.core.topics import Topic
from repro.mobility import Stationary
from repro.net import Node, RadioConfig, WirelessMedium
from repro.net.messages import EventBatch, EventIdList, Heartbeat
from repro.sim.space import Vec2

from tests.helpers import FakeHost, make_event
from tests.test_protocol_unit import attach, heartbeat


class TestUnitLevel:
    def test_heartbeats_carry_current_subscriptions(self):
        host = FakeHost(exact=True)
        proto = attach(host, ".a")
        host.advance(1.5)
        assert host.sent_of_kind(Heartbeat)[-1].subscriptions == \
            {Topic(".a")}
        proto.subscribe(".b")
        proto.unsubscribe(".a")
        host.advance(1.0)
        assert host.sent_of_kind(Heartbeat)[-1].subscriptions == \
            {Topic(".b")}

    def test_new_subscription_enables_matching(self):
        host = FakeHost(exact=True)
        proto = attach(host, ".a")
        proto.on_message(heartbeat(5, ".z"))
        assert 5 not in proto.neighborhood
        proto.subscribe(".z")
        proto.on_message(heartbeat(5, ".z"))
        assert 5 in proto.neighborhood

    def test_unsubscribe_stops_delivery_of_that_topic(self):
        host = FakeHost(exact=True)
        proto = attach(host, ".a", ".b")
        proto.unsubscribe(".a")
        event = make_event(topic=".a.x", validity=60.0, now=host.now)
        proto.on_message(EventBatch(sender=5, events=(event,)))
        assert host.delivered == []
        assert proto.counters.parasites_dropped == 1

    def test_resubscribe_restarts_tasks(self):
        host = FakeHost(exact=True)
        proto = attach(host, ".a")
        proto.unsubscribe(".a")
        host.advance(3.0)
        host.clear()
        proto.subscribe(".a")
        host.advance(1.5)
        assert host.sent_of_kind(Heartbeat)

    def test_events_kept_but_serving_stops_after_unsubscribe(self):
        """Unsubscribing does not purge the event table — but the process
        no longer *matches* neighbours of that topic (its heartbeats stop
        advertising it), so it also stops serving them: the frugal
        protocol only burdens processes with topics they currently care
        about (Section 3, phase 1)."""
        host = FakeHost(exact=True)
        proto = attach(host, ".a", ".keep")
        event = make_event(topic=".a.x", validity=120.0, now=host.now)
        proto.on_message(EventBatch(sender=9, events=(event,)))
        proto.unsubscribe(".a")
        assert event.event_id in proto.events      # storage survives
        proto.on_message(heartbeat(5, ".a"))       # ... but no match,
        assert 5 not in proto.neighborhood
        proto.on_message(EventIdList(sender=5, event_ids=()))
        host.advance(2.0)
        assert host.sent_of_kind(EventBatch) == []  # ... so no serving


class TestEndToEnd:
    def test_late_subscriber_catches_up(self, sim, rngs):
        """A process that subscribes after publication still receives the
        event while it is valid — time decoupling via validity periods."""
        medium = WirelessMedium(sim, RadioConfig(range_override_m=150.0),
                                rng=rngs.stream("medium"))
        nodes = []
        for i in range(3):
            proto = FrugalPubSub(FrugalConfig())
            node = Node(i, sim, medium,
                        Stationary(position=Vec2(i * 60.0, 0.0)), proto,
                        rngs.stream("node", i))
            nodes.append(node)
        nodes[0].protocol.subscribe(".news")
        nodes[1].protocol.subscribe(".news")
        nodes[2].protocol.subscribe(".other")       # not yet interested
        for n in nodes:
            n.start()
        sim.run(until=2.5)
        event = EventFactory(0).create(".news.flash", validity=120.0,
                                       now=sim.now)
        nodes[0].protocol.publish(event)
        sim.run(until=10.0)
        assert event not in nodes[2].delivered_events
        nodes[2].protocol.subscribe(".news")        # change of interest
        sim.run(until=30.0)
        assert event in nodes[2].delivered_events

    def test_unsubscribed_node_becomes_parasite_free(self, sim, rngs):
        medium = WirelessMedium(sim, RadioConfig(range_override_m=150.0),
                                rng=rngs.stream("medium"))
        from repro.metrics import MetricsCollector
        collector = MetricsCollector(medium)
        nodes = []
        for i in range(3):
            proto = FrugalPubSub(FrugalConfig())
            node = Node(i, sim, medium,
                        Stationary(position=Vec2(i * 60.0, 0.0)), proto,
                        rngs.stream("node", i))
            proto.subscribe(".news")
            collector.track_node(node)
            nodes.append(node)
        for n in nodes:
            n.start()
        sim.run(until=2.5)
        nodes[2].protocol.unsubscribe(".news")
        nodes[2].protocol.subscribe(".quiet")
        event = EventFactory(0).create(".news.flash", validity=60.0,
                                       now=sim.now)
        nodes[0].protocol.publish(event)
        sim.run(until=20.0)
        assert event not in nodes[2].delivered_events


class TestBluetoothPreset:
    def test_preset_values(self):
        cfg = RadioConfig.bluetooth()
        assert cfg.communication_range_m() == 10.0
        assert cfg.tx_power_dbm == 4.0

    def test_protocol_runs_on_bluetooth(self, sim, rngs):
        """Portability: the identical protocol binary works on the tiny
        Bluetooth radius — only the physics change."""
        medium = WirelessMedium(sim, RadioConfig.bluetooth(),
                                rng=rngs.stream("medium"))
        nodes = []
        for i in range(2):
            proto = FrugalPubSub(FrugalConfig())
            node = Node(i, sim, medium,
                        Stationary(position=Vec2(i * 8.0, 0.0)), proto,
                        rngs.stream("node", i))
            proto.subscribe(".a")
            nodes.append(node)
        for n in nodes:
            n.start()
        sim.run(until=2.5)
        event = EventFactory(0).create(".a.x", validity=30.0, now=sim.now)
        nodes[0].protocol.publish(event)
        sim.run(until=6.0)
        assert event in nodes[1].delivered_events
