"""The lpbcast-style gossip baseline (repro.baselines.gossip).

Unit behaviour with a scripted host (rounds, fanout, bounded buffer,
dedup/parasite accounting) plus the acceptance-criterion property:
gossip results are seed-deterministic — every coin comes from the
node-local seeded rng streams, so re-running a config reproduces the
summary *exactly*, across serial, parallel and cached execution.
"""

from __future__ import annotations

import pytest

from repro.baselines import GossipConfig, GossipPubSub
from repro.core import registry
from repro.harness.parallel import ParallelRunner
from repro.harness.scenario import (Publication, RandomWaypointSpec,
                                    ScenarioConfig, run_scenario)
from repro.net.messages import EventBatch

from tests.helpers import FakeHost, make_event


def attach(host: FakeHost, *topics: str, **config) -> GossipPubSub:
    proto = GossipPubSub(GossipConfig(jitter=0.0, **config))
    proto.attach(host)
    for t in topics:
        proto.subscribe(t)
    proto.on_start()
    return proto


def batch(sender: int, *events) -> EventBatch:
    return EventBatch(sender=sender, events=tuple(events))


class TestGossipUnit:
    def test_publish_broadcasts_and_delivers(self):
        host = FakeHost()
        proto = attach(host, ".a")
        event = make_event(topic=".a.x", validity=60.0, now=host.now)
        proto.publish(event)
        assert host.delivered == [event]
        assert len(host.sent_of_kind(EventBatch)) == 1

    def test_rounds_regossip_buffered_events(self):
        host = FakeHost()
        proto = attach(host, ".a", forward_probability=1.0)
        proto.on_message(batch(5, make_event(topic=".a.x", validity=60.0,
                                             now=host.now)))
        host.advance(3.5)
        assert len(host.sent_of_kind(EventBatch)) == 3   # one per round
        assert proto.counters.batches_sent == 3

    def test_fanout_caps_the_batch_to_newest(self):
        host = FakeHost()
        proto = attach(host, ".a", forward_probability=1.0, fanout=2)
        events = [make_event(seq=i, topic=".a.x", validity=60.0,
                             now=host.now) for i in range(5)]
        proto.on_message(batch(5, *events))
        host.advance(1.0)
        sent = host.sent_of_kind(EventBatch)[-1]
        assert sent.events == tuple(events[-2:])

    def test_buffer_bounded_oldest_evicted(self):
        host = FakeHost()
        proto = attach(host, ".a", buffer_capacity=3)
        events = [make_event(seq=i, topic=".a.x", validity=60.0,
                             now=host.now) for i in range(5)]
        proto.on_message(batch(5, *events))
        assert len(proto.buffered_event_ids) == 3
        assert events[0].event_id not in proto.buffered_event_ids
        assert events[-1].event_id in proto.buffered_event_ids

    def test_duplicates_and_parasites_counted(self):
        host = FakeHost()
        proto = attach(host, ".a")
        event = make_event(topic=".a.x", validity=60.0, now=host.now)
        proto.on_message(batch(5, event))
        proto.on_message(batch(6, event))
        assert proto.counters.duplicates_dropped == 1
        parasite = make_event(seq=7, topic=".z", validity=60.0,
                              now=host.now)
        proto.on_message(batch(5, parasite))
        assert proto.counters.parasites_dropped == 1
        assert host.delivered == [event]
        # Parasites are still buffered (routing-layer forwarding).
        assert parasite.event_id in proto.buffered_event_ids

    def test_expired_event_neither_buffered_nor_delivered(self):
        host = FakeHost()
        proto = attach(host, ".a")
        stale = make_event(topic=".a.x", validity=1.0, now=-5.0)
        proto.on_message(batch(5, stale))
        assert host.delivered == []
        assert stale.event_id not in proto.buffered_event_ids

    def test_crash_loses_buffer_and_history(self):
        host = FakeHost()
        proto = attach(host, ".a")
        event = make_event(topic=".a.x", validity=60.0, now=host.now)
        proto.on_message(batch(5, event))
        proto.on_stop()
        assert proto.buffered_event_ids == set()
        proto.on_start()
        proto.on_message(batch(5, event))      # re-learned after recovery
        assert len(host.delivered) == 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GossipConfig(period=0.0)
        with pytest.raises(ValueError):
            GossipConfig(forward_probability=1.5)
        with pytest.raises(ValueError):
            GossipConfig(fanout=0)
        with pytest.raises(ValueError):
            GossipConfig(buffer_capacity=0)
        with pytest.raises(ValueError):
            GossipConfig(jitter=-0.1)


def gossip_scenario(seed: int = 0) -> ScenarioConfig:
    return ScenarioConfig(
        n_processes=8,
        mobility=RandomWaypointSpec(width=900.0, height=900.0,
                                    speed_min=10.0, speed_max=10.0),
        duration=30.0, warmup=3.0, seed=seed,
        protocol="gossip",
        subscriber_fraction=0.75,
        publications=(Publication(at=2.0, validity=25.0),))


class TestGossipDeterminism:
    def test_reruns_are_exactly_equal(self):
        """Acceptance criterion: dedicated seeded rng streams make every
        rerun reproduce the summary bit for bit."""
        a = run_scenario(gossip_scenario())
        b = run_scenario(gossip_scenario())
        assert a.summary() == b.summary()
        assert a.sim_events_processed == b.sim_events_processed
        assert a.protocol_counters() == b.protocol_counters()

    def test_seed_changes_the_outcome(self):
        a = run_scenario(gossip_scenario(seed=0))
        b = run_scenario(gossip_scenario(seed=1))
        assert a.summary() != b.summary()

    def test_serial_equals_parallel(self):
        config = gossip_scenario()
        serial = ParallelRunner(jobs=1).run_seeds(config, [0, 1, 2])
        with ParallelRunner(jobs=2) as pool:
            fanned = pool.run_seeds(config, [0, 1, 2])
        for ours, theirs in zip(serial.results, fanned.results):
            assert ours.summary() == theirs.summary()

    def test_gossip_probability_knob_changes_traffic(self):
        """A gossip variant is a composition registered under its own
        name; its forward probability still drives the traffic."""
        variants = {"test-gossip-eager": 1.0, "test-gossip-lazy": 0.1}
        for name, p in variants.items():
            registry.register(name, lambda c, p=p: GossipPubSub(
                GossipConfig(forward_probability=p)))
        try:
            eager, lazy = (
                run_scenario(gossip_scenario().with_changes(protocol=name))
                for name in variants)
            assert eager.events_sent_per_process() > \
                lazy.events_sent_per_process()
        finally:
            for name in variants:
                registry.unregister(name)
