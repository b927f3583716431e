"""Unit + integration tests for the broadcast-storm baselines
(repro.baselines.storm)."""

from __future__ import annotations

import pytest

from repro.baselines import CounterFlooding, GossipFlooding
from repro.core import registry
from repro.core.events import EventFactory
from repro.mobility import Stationary
from repro.net import Node, RadioConfig, WirelessMedium
from repro.net.messages import EventBatch
from repro.sim.space import Vec2

from tests.helpers import FakeHost, make_event


def attach(cls, host, *topics, **kwargs):
    proto = cls(**kwargs)
    proto.attach(host)
    for t in topics:
        proto.subscribe(t)
    proto.on_start()
    return proto


def batch(sender, *events):
    return EventBatch(sender=sender, events=tuple(events))


class TestGossipFlooding:
    def test_publish_always_broadcasts(self):
        host = FakeHost()
        proto = attach(GossipFlooding, host, ".a", probability=0.0)
        proto.publish(make_event(topic=".a.x", validity=60.0, now=host.now))
        assert len(host.sent_of_kind(EventBatch)) == 1

    def test_probability_one_always_forwards(self):
        host = FakeHost()
        proto = attach(GossipFlooding, host, ".a", probability=1.0)
        proto.on_message(batch(5, make_event(topic=".a.x", validity=60.0,
                                             now=host.now)))
        host.advance(0.2)
        assert len(host.sent_of_kind(EventBatch)) == 1

    def test_probability_zero_never_forwards(self):
        host = FakeHost()
        proto = attach(GossipFlooding, host, ".a", probability=0.0)
        proto.on_message(batch(5, make_event(topic=".a.x", validity=60.0,
                                             now=host.now)))
        host.advance(1.0)
        assert host.sent_of_kind(EventBatch) == []

    def test_forwards_at_most_once(self):
        host = FakeHost()
        proto = attach(GossipFlooding, host, ".a", probability=1.0)
        event = make_event(topic=".a.x", validity=60.0, now=host.now)
        proto.on_message(batch(5, event))
        proto.on_message(batch(6, event))
        proto.on_message(batch(7, event))
        host.advance(1.0)
        assert len(host.sent_of_kind(EventBatch)) == 1
        assert proto.counters.duplicates_dropped == 2

    def test_forwards_parasites_but_does_not_deliver(self):
        """Storm schemes are routing-layer: interests gate delivery only."""
        host = FakeHost()
        proto = attach(GossipFlooding, host, ".a", probability=1.0)
        parasite = make_event(topic=".z", validity=60.0, now=host.now)
        proto.on_message(batch(5, parasite))
        host.advance(0.2)
        assert host.delivered == []
        assert proto.counters.parasites_dropped == 1
        assert len(host.sent_of_kind(EventBatch)) == 1

    def test_expired_event_not_forwarded(self):
        host = FakeHost()
        proto = attach(GossipFlooding, host, ".a", probability=1.0,
                       forward_delay_max=0.0)
        event = make_event(topic=".a.x", validity=2.0, now=0.0)
        host.advance(5.0)
        proto.on_message(batch(5, event))
        host.advance(0.2)
        assert host.sent_of_kind(EventBatch) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            GossipFlooding(probability=1.5)
        with pytest.raises(ValueError):
            GossipFlooding(forward_delay_max=-1.0)


class TestCounterFlooding:
    def test_quiet_neighborhood_triggers_rebroadcast(self):
        host = FakeHost()
        proto = attach(CounterFlooding, host, ".a", threshold=3)
        proto.on_message(batch(5, make_event(topic=".a.x", validity=60.0,
                                             now=host.now)))
        host.advance(1.0)
        assert len(host.sent_of_kind(EventBatch)) == 1

    def test_busy_neighborhood_suppresses(self):
        host = FakeHost()
        proto = attach(CounterFlooding, host, ".a", threshold=3)
        event = make_event(topic=".a.x", validity=60.0, now=host.now)
        proto.on_message(batch(5, event))
        proto.on_message(batch(6, event))   # copies heard during assessment
        proto.on_message(batch(7, event))
        host.advance(1.0)
        assert host.sent_of_kind(EventBatch) == []

    def test_threshold_boundary(self):
        host = FakeHost()
        proto = attach(CounterFlooding, host, ".a", threshold=2)
        event = make_event(topic=".a.x", validity=60.0, now=host.now)
        proto.on_message(batch(5, event))
        proto.on_message(batch(6, event))   # exactly threshold: suppress
        host.advance(1.0)
        assert host.sent_of_kind(EventBatch) == []

    def test_delivers_exactly_once(self):
        host = FakeHost()
        proto = attach(CounterFlooding, host, ".a")
        event = make_event(topic=".a.x", validity=60.0, now=host.now)
        proto.on_message(batch(5, event))
        proto.on_message(batch(6, event))
        assert len(host.delivered) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            CounterFlooding(threshold=0)
        with pytest.raises(ValueError):
            CounterFlooding(assessment_delay_max=0.0)


class TestScenarioIntegration:
    def test_protocol_factory_builds_storm_schemes(self):
        from repro.harness.scenario import ScenarioConfig, \
            RandomWaypointSpec, Publication
        base = ScenarioConfig(
            n_processes=4,
            mobility=RandomWaypointSpec(300.0, 300.0, 5.0, 5.0),
            duration=30.0,
            publications=(Publication(at=1.0, validity=20.0),))
        gossip = registry.create("gossip-flooding", base)
        assert isinstance(gossip, GossipFlooding)
        assert gossip.probability == 0.6
        counter = registry.create("counter-flooding", base)
        assert isinstance(counter, CounterFlooding)
        assert counter.threshold == 3

    def test_gossip_disseminates_in_connected_cluster(self, sim, rngs):
        medium = WirelessMedium(sim, RadioConfig(range_override_m=200.0),
                                rng=rngs.stream("medium"))
        nodes = []
        for i in range(6):
            proto = GossipFlooding(probability=1.0)
            node = Node(i, sim, medium,
                        Stationary(position=Vec2(i * 60.0, 0.0)), proto,
                        rngs.stream("node", i))
            proto.subscribe(".a")
            nodes.append(node)
        for n in nodes:
            n.start()
        event = EventFactory(0).create(".a.x", validity=60.0, now=sim.now)
        nodes[0].protocol.publish(event)
        sim.run(until=10.0)
        delivered = sum(1 for n in nodes if event in n.delivered_events)
        assert delivered == 6
