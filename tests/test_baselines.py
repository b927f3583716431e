"""Unit tests for the flooding baselines (repro.baselines)."""

from __future__ import annotations

import pytest

from repro.baselines import (InterestAwareFlooding, NeighborInterestFlooding,
                             SimpleFlooding)
from repro.core.topics import Topic
from repro.net.messages import EventBatch, Heartbeat

from tests.helpers import FakeHost, make_event


def attach(cls, host: FakeHost, *topics: str, **kwargs):
    proto = cls(flood_jitter=0.0, **kwargs)
    proto.attach(host)
    for t in topics:
        proto.subscribe(t)
    proto.on_start()
    return proto


def batch(sender: int, *events) -> EventBatch:
    return EventBatch(sender=sender, events=tuple(events))


class TestFloodingCommon:
    def test_publish_floods_immediately_and_delivers(self):
        host = FakeHost()
        proto = attach(SimpleFlooding, host, ".a")
        event = make_event(topic=".a.x", validity=60.0, now=host.now)
        proto.publish(event)
        assert host.delivered == [event]
        assert len(host.sent_of_kind(EventBatch)) == 1

    def test_periodic_reflooding_every_second(self):
        host = FakeHost()
        proto = attach(SimpleFlooding, host, ".a")
        proto.publish(make_event(topic=".a.x", validity=60.0, now=host.now))
        host.advance(5.5)
        # 1 immediate + 5 periodic ticks.
        assert len(host.sent_of_kind(EventBatch)) == 6

    def test_expired_events_leave_the_flood(self):
        host = FakeHost()
        proto = attach(SimpleFlooding, host, ".a")
        proto.publish(make_event(topic=".a.x", validity=3.0, now=host.now))
        host.advance(10.0)
        sent = host.sent_of_kind(EventBatch)
        # immediate + ticks at 1, 2 s (the 3 s tick finds it expired).
        assert len(sent) == 3

    def test_duplicate_reception_counted_and_dropped(self):
        host = FakeHost()
        proto = attach(SimpleFlooding, host, ".a")
        event = make_event(topic=".a.x", validity=60.0, now=host.now)
        proto.on_message(batch(5, event))
        proto.on_message(batch(6, event))
        assert len(host.delivered) == 1
        assert proto.counters.duplicates_dropped == 1

    def test_stop_clears_state(self):
        host = FakeHost()
        proto = attach(SimpleFlooding, host, ".a")
        proto.publish(make_event(topic=".a.x", validity=60.0, now=host.now))
        proto.on_stop()
        host.clear()
        host.advance(5.0)
        assert host.sent == []
        assert proto.stored_event_ids == set()

    def test_invalid_flood_period(self):
        with pytest.raises(ValueError):
            SimpleFlooding(flood_period=0.0)


class TestSimpleFlooding:
    def test_refloods_parasites(self):
        """Simple flooding propagates irrespective of interests."""
        host = FakeHost()
        proto = attach(SimpleFlooding, host, ".a")
        parasite = make_event(topic=".z", validity=60.0, now=host.now)
        proto.on_message(batch(5, parasite))
        assert host.delivered == []            # not subscribed
        assert proto.counters.parasites_dropped == 1    # counted
        host.advance(1.5)
        sent = host.sent_of_kind(EventBatch)
        assert sent and parasite in sent[0].events   # ... but re-flooded


class TestInterestAwareFlooding:
    def test_drops_parasites_from_the_flood(self):
        host = FakeHost()
        proto = attach(InterestAwareFlooding, host, ".a")
        parasite = make_event(topic=".z", validity=60.0, now=host.now)
        interesting = make_event(publisher=50, topic=".a.x", validity=60.0,
                                 now=host.now)
        proto.on_message(batch(5, parasite, interesting))
        host.advance(1.5)
        sent = host.sent_of_kind(EventBatch)
        flooded = {e.event_id for b in sent for e in b.events}
        assert interesting.event_id in flooded
        assert parasite.event_id not in flooded

    def test_delivers_interesting_events(self):
        host = FakeHost()
        proto = attach(InterestAwareFlooding, host, ".a")
        event = make_event(topic=".a.x", validity=60.0, now=host.now)
        proto.on_message(batch(5, event))
        assert host.delivered == [event]


class TestNeighborInterestFlooding:
    def test_sends_heartbeats(self):
        host = FakeHost()
        proto = attach(NeighborInterestFlooding, host, ".a")
        host.advance(2.5)
        assert len(host.sent_of_kind(Heartbeat)) == 2

    def test_silent_without_interested_neighbors(self):
        host = FakeHost()
        proto = attach(NeighborInterestFlooding, host, ".a")
        proto.publish(make_event(topic=".a.x", validity=60.0, now=host.now))
        host.clear()
        host.advance(3.5)
        assert host.sent_of_kind(EventBatch) == []

    def test_floods_while_an_interested_neighbor_exists(self):
        host = FakeHost()
        proto = attach(NeighborInterestFlooding, host, ".a")
        proto.publish(make_event(topic=".a.x", validity=60.0, now=host.now))
        proto.on_message(Heartbeat(sender=5,
                                   subscriptions=frozenset({Topic(".a")})))
        host.clear()
        host.advance(2.5)
        assert len(host.sent_of_kind(EventBatch)) == 2

    def test_uninterested_neighbors_do_not_unlock_flooding(self):
        host = FakeHost()
        proto = attach(NeighborInterestFlooding, host, ".a")
        proto.publish(make_event(topic=".a.x", validity=60.0, now=host.now))
        proto.on_message(Heartbeat(sender=5,
                                   subscriptions=frozenset({Topic(".z")})))
        host.clear()
        host.advance(2.5)
        assert host.sent_of_kind(EventBatch) == []

    def test_neighbor_expiry_stops_the_flood(self):
        host = FakeHost()
        proto = attach(NeighborInterestFlooding, host, ".a",
                       neighbor_ttl=2.0)
        proto.publish(make_event(topic=".a.x", validity=600.0,
                                 now=host.now))
        proto.on_message(Heartbeat(sender=5,
                                   subscriptions=frozenset({Topic(".a")})))
        host.advance(1.5)
        flooding_while_fresh = len(host.sent_of_kind(EventBatch))
        assert flooding_while_fresh >= 1
        host.advance(3.0)          # neighbour is stale now
        host.clear()
        host.advance(3.0)
        assert host.sent_of_kind(EventBatch) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            NeighborInterestFlooding(heartbeat_period=0.0)
        with pytest.raises(ValueError):
            NeighborInterestFlooding(neighbor_ttl=-1.0)
