"""Unit tests for the frugal protocol (repro.core.protocol).

These tests drive a single protocol instance through a scripted
:class:`tests.helpers.FakeHost` — no medium, no mobility — and check the
paper's pseudocode behaviours phase by phase: heartbeats (Fig. 6),
event retrieval and back-off (Figs. 7-8), dissemination (Fig. 9) and
garbage collection (Fig. 10).
"""

from __future__ import annotations

import pytest

from repro.core.config import FrugalConfig
from repro.core.events import EventId
from repro.core.protocol import FrugalPubSub
from repro.core.topics import Topic
from repro.net.messages import EventBatch, EventIdList, Heartbeat

from tests.helpers import FakeHost, make_event


def attach(host: FakeHost, *topics: str,
           config: FrugalConfig | None = None) -> FrugalPubSub:
    proto = FrugalPubSub(config)
    proto.attach(host)
    for topic in topics:
        proto.subscribe(topic)
    proto.on_start()
    return proto


def heartbeat(sender: int, *topics: str, speed=None) -> Heartbeat:
    return Heartbeat(sender=sender,
                     subscriptions=frozenset(Topic(t) for t in topics),
                     speed=speed)


class TestLifecycle:
    def test_heartbeats_run_while_subscribed(self):
        host = FakeHost(exact=True)
        proto = attach(host, ".a")
        host.advance(3.5)
        assert len(host.sent_of_kind(Heartbeat)) == 3

    def test_no_heartbeats_without_subscriptions(self):
        host = FakeHost(exact=True)
        proto = FrugalPubSub()
        proto.attach(host)
        proto.on_start()
        host.advance(5.0)
        assert host.sent == []

    def test_unsubscribe_to_empty_stops_heartbeats(self):
        host = FakeHost(exact=True)
        proto = attach(host, ".a")
        host.advance(2.0)
        proto.unsubscribe(".a")
        before = len(host.sent_of_kind(Heartbeat))
        host.advance(5.0)
        assert len(host.sent_of_kind(Heartbeat)) == before

    def test_heartbeat_carries_subscriptions_and_speed(self):
        host = FakeHost(exact=True, speed=12.5)
        attach(host, ".a", ".b.c")
        host.advance(1.5)
        hb = host.sent_of_kind(Heartbeat)[0]
        assert hb.subscriptions == {Topic(".a"), Topic(".b.c")}
        assert hb.speed == 12.5

    def test_attach_twice_rejected(self):
        proto = FrugalPubSub()
        proto.attach(FakeHost(exact=True))
        with pytest.raises(RuntimeError):
            proto.attach(FakeHost(host_id=2))

    def test_publish_unattached_rejected(self):
        with pytest.raises(RuntimeError):
            FrugalPubSub().publish(make_event())

    def test_crash_loses_volatile_state(self):
        host = FakeHost(exact=True)
        proto = attach(host, ".a")
        proto.on_message(heartbeat(7, ".a"))
        proto.events.store(make_event(topic=".a"), now=host.now)
        proto.on_stop()
        assert len(proto.neighborhood) == 0
        assert len(proto.events) == 0


class TestNeighborhoodDetection:
    def test_matching_heartbeat_enters_table(self):
        host = FakeHost(exact=True)
        proto = attach(host, ".t0.t1")
        proto.on_message(heartbeat(5, ".t0.t1.t2", speed=3.0))
        entry = proto.neighborhood.get(5)
        assert entry is not None
        assert entry.speed == 3.0

    def test_non_matching_heartbeat_ignored(self):
        host = FakeHost(exact=True)
        proto = attach(host, ".t0.t1")
        proto.on_message(heartbeat(5, ".t0.t4"))
        assert 5 not in proto.neighborhood

    def test_super_topic_neighbor_matches(self):
        """Fig. 1: T1 subscriber and T0 subscriber are neighbours."""
        host = FakeHost(exact=True)
        proto = attach(host, ".t0.t1")
        proto.on_message(heartbeat(3, ".t0"))
        assert 3 in proto.neighborhood

    def test_new_neighbor_triggers_id_announcement(self):
        host = FakeHost(exact=True)
        proto = attach(host, ".t0.t1")
        stored = make_event(topic=".t0.t1.x", validity=60.0, now=host.now)
        proto.events.store(stored, now=host.now)
        proto.on_message(heartbeat(5, ".t0.t1"))
        lists = host.sent_of_kind(EventIdList)
        assert len(lists) == 1
        assert lists[0].event_ids == (stored.event_id,)

    def test_known_neighbor_heartbeat_does_not_reannounce(self):
        host = FakeHost(exact=True)
        proto = attach(host, ".a")
        proto.on_message(heartbeat(5, ".a"))
        host.clear()
        proto.on_message(heartbeat(5, ".a"))
        assert host.sent_of_kind(EventIdList) == []

    def test_expired_events_not_announced(self):
        host = FakeHost(exact=True)
        proto = attach(host, ".a")
        proto.events.store(make_event(topic=".a", validity=5.0, now=0.0),
                           now=0.0)
        host.advance(10.0)
        host.clear()
        proto.on_message(heartbeat(5, ".a"))
        assert host.sent_of_kind(EventIdList)[0].event_ids == ()

    def test_id_list_from_stranger_ignored(self):
        host = FakeHost(exact=True)
        proto = attach(host, ".a")
        proto.events.store(make_event(topic=".a"), now=host.now)
        proto.on_message(EventIdList(sender=9, event_ids=(EventId(1, 1),)))
        assert not proto.backoff_pending

    def test_id_list_records_neighbor_knowledge(self):
        host = FakeHost(exact=True)
        proto = attach(host, ".a")
        proto.on_message(heartbeat(5, ".a"))
        known = EventId(2, 7)
        proto.on_message(EventIdList(sender=5, event_ids=(known,)))
        assert proto.neighborhood.get(5).knows(known)

    def test_ngc_collects_silent_neighbors(self):
        host = FakeHost(exact=True)
        proto = attach(host, ".a")
        proto.on_message(heartbeat(5, ".a"))
        # NGC delay = hb_delay * 2.5 = 2.5 s at the 1 s bound; a neighbour
        # silent for longer than that disappears.
        host.advance(6.0)
        assert 5 not in proto.neighborhood

    def test_refreshed_neighbors_survive_ngc(self):
        host = FakeHost(exact=True)
        proto = attach(host, ".a")
        for _ in range(8):
            proto.on_message(heartbeat(5, ".a"))
            host.advance(1.0)
        assert 5 in proto.neighborhood


class TestAdaptiveHeartbeat:
    def test_period_follows_average_speed(self):
        host = FakeHost(exact=True, speed=20.0)
        proto = attach(host, ".a",
                       config=FrugalConfig(hb_upper_bound=10.0))
        proto.on_message(heartbeat(5, ".a", speed=20.0))
        # x / avg = 40 / 20 = 2 s.
        assert proto.hb_delay == 2.0

    def test_period_clamped_to_paper_upper_bound(self):
        host = FakeHost(exact=True, speed=10.0)
        proto = attach(host, ".a")
        proto.on_message(heartbeat(5, ".a", speed=10.0))
        assert proto.hb_delay == 1.0       # 40/10 = 4 s, clamped to 1 s

    def test_static_network_converges_to_upper_bound(self):
        host = FakeHost(exact=True, speed=None)
        proto = attach(host, ".a")
        proto.on_message(heartbeat(5, ".a"))
        assert proto.hb_delay == 1.0


class TestDissemination:
    def setup_neighbor_needing_event(self, host, proto, topic=".a.x"):
        """Make neighbour 5 known, holding nothing; store one event."""
        event = make_event(topic=topic, validity=60.0, now=host.now)
        proto.events.store(event, now=host.now)
        proto.on_message(heartbeat(5, ".a"))
        host.clear()
        # Receiving the neighbour's (empty) id list triggers retrieval.
        proto.on_message(EventIdList(sender=5, event_ids=()))
        return event

    def test_needy_neighbor_gets_event_after_backoff(self):
        host = FakeHost(exact=True)
        proto = attach(host, ".a")
        event = self.setup_neighbor_needing_event(host, proto)
        assert proto.backoff_pending
        assert host.sent_of_kind(EventBatch) == []    # not yet: back-off
        host.advance(1.0)                             # BODelay = 1/(2*1)=0.5
        batches = host.sent_of_kind(EventBatch)
        assert len(batches) == 1
        assert batches[0].events == (event,)
        assert batches[0].neighbor_ids == (5,)

    def test_forward_counter_incremented_on_send(self):
        host = FakeHost(exact=True)
        proto = attach(host, ".a")
        event = self.setup_neighbor_needing_event(host, proto)
        host.advance(1.0)
        assert proto.events.get(event.event_id).forward_count == 1

    def test_neighbor_marked_as_knowing_after_send(self):
        host = FakeHost(exact=True)
        proto = attach(host, ".a")
        event = self.setup_neighbor_needing_event(host, proto)
        host.advance(1.0)
        assert proto.neighborhood.get(5).knows(event.event_id)
        # A second id list from the same neighbour finds nothing to send.
        host.clear()
        proto.on_message(EventIdList(sender=5, event_ids=()))
        host.advance(2.0)
        assert host.sent_of_kind(EventBatch) == []

    def test_known_events_not_resent(self):
        host = FakeHost(exact=True)
        proto = attach(host, ".a")
        event = make_event(topic=".a.x", validity=60.0, now=host.now)
        proto.events.store(event, now=host.now)
        proto.on_message(heartbeat(5, ".a"))
        proto.on_message(EventIdList(sender=5,
                                     event_ids=(event.event_id,)))
        host.advance(2.0)
        assert host.sent_of_kind(EventBatch) == []

    def test_not_entitled_neighbor_not_served(self):
        """A subtopic subscriber is not entitled to super-topic events."""
        host = FakeHost(exact=True)
        proto = attach(host, ".t0.t1")
        event = make_event(topic=".t0.t1", validity=60.0, now=host.now)
        proto.events.store(event, now=host.now)
        proto.on_message(heartbeat(5, ".t0.t1.t2"))   # matches, not entitled
        proto.on_message(EventIdList(sender=5, event_ids=()))
        host.advance(2.0)
        assert host.sent_of_kind(EventBatch) == []

    def test_expired_events_not_sent(self):
        host = FakeHost(exact=True)
        proto = attach(host, ".a")
        event = make_event(topic=".a.x", validity=2.0, now=host.now)
        proto.events.store(event, now=host.now)
        host.advance(5.0)                      # expires mid-way
        proto.on_message(heartbeat(5, ".a"))
        proto.on_message(EventIdList(sender=5, event_ids=()))
        host.advance(2.0)
        assert host.sent_of_kind(EventBatch) == []

    def test_validity_rechecked_at_backoff_expiry(self):
        """The paper recomputes events-to-send when the back-off fires."""
        host = FakeHost(exact=True)
        proto = attach(host, ".a",
                       config=FrugalConfig(hb_upper_bound=10.0))
        # HBDelay = min(15, 10) = 10 s -> BODelay = 10/(HB2BO*1) = 5 s,
        # longer than the validity.
        event = make_event(topic=".a.x", validity=3.0, now=host.now)
        proto.events.store(event, now=host.now)
        proto.on_message(heartbeat(5, ".a"))
        proto.on_message(EventIdList(sender=5, event_ids=()))
        assert proto.backoff_pending
        host.advance(15.0)
        assert host.sent_of_kind(EventBatch) == []

    def test_backoff_shorter_with_more_events(self):
        times = {}
        for n_events in (1, 4):
            host = FakeHost(exact=True)
            proto = attach(host, ".a")
            for i in range(n_events):
                proto.events.store(
                    make_event(seq=i, topic=".a.x", validity=60.0,
                               now=host.now), now=host.now)
            proto.on_message(heartbeat(5, ".a"))
            host.clear()
            proto.on_message(EventIdList(sender=5, event_ids=()))
            assert proto.backoff_pending
            times[n_events] = proto._backoff_timer.time - host.now
        assert times[4] < times[1]
        assert times[1] == pytest.approx(0.5)      # 1 / (2 * 1)
        assert times[4] == pytest.approx(0.125)    # 1 / (2 * 4)


class TestEventReception:
    def test_subscribed_event_delivered_and_stored(self):
        host = FakeHost(exact=True)
        proto = attach(host, ".a")
        event = make_event(topic=".a.x", validity=60.0, now=host.now)
        proto.on_message(EventBatch(sender=5, events=(event,)))
        assert host.delivered == [event]
        assert event.event_id in proto.events

    def test_parasite_event_dropped(self):
        host = FakeHost(exact=True)
        proto = attach(host, ".a")
        event = make_event(topic=".z", validity=60.0, now=host.now)
        proto.on_message(EventBatch(sender=5, events=(event,)))
        assert host.delivered == []
        assert event.event_id not in proto.events
        assert proto.counters.parasites_dropped == 1

    def test_duplicate_event_dropped(self):
        host = FakeHost(exact=True)
        proto = attach(host, ".a")
        event = make_event(topic=".a.x", validity=60.0, now=host.now)
        proto.on_message(EventBatch(sender=5, events=(event,)))
        proto.on_message(EventBatch(sender=6, events=(event,)))
        assert len(host.delivered) == 1
        assert proto.counters.duplicates_dropped == 1

    def test_expired_event_not_delivered(self):
        host = FakeHost(exact=True)
        proto = attach(host, ".a")
        event = make_event(topic=".a.x", validity=5.0, now=0.0)
        host.advance(10.0)
        proto.on_message(EventBatch(sender=5, events=(event,)))
        assert host.delivered == []

    def test_batch_updates_neighbor_knowledge(self):
        """Fig. 1 part III: p2 overhears what p1 sent to p3 and learns
        p3 now has the events."""
        host = FakeHost(exact=True)
        proto = attach(host, ".a")
        proto.on_message(heartbeat(3, ".a"))
        proto.on_message(heartbeat(1, ".a"))
        event = make_event(topic=".a.x", validity=60.0, now=host.now)
        proto.on_message(EventBatch(sender=1, events=(event,),
                                    neighbor_ids=(3, 0)))
        assert proto.neighborhood.get(1).knows(event.event_id)
        assert proto.neighborhood.get(3).knows(event.event_id)

    def test_interesting_event_cancels_backoff(self):
        host = FakeHost(exact=True)
        proto = attach(host, ".a")
        held = make_event(seq=0, topic=".a.x", validity=60.0, now=host.now)
        proto.events.store(held, now=host.now)
        proto.on_message(heartbeat(5, ".a"))
        proto.on_message(EventIdList(sender=5, event_ids=()))
        assert proto.backoff_pending
        incoming = make_event(publisher=42, topic=".a.y", validity=60.0,
                              now=host.now)
        proto.on_message(EventBatch(sender=5, events=(incoming,),
                                    neighbor_ids=()))
        # Back-off restarted from scratch via retrieve (suppress + recompute).
        assert proto.backoff_pending

    def test_reception_triggers_forwarding_to_needy_neighbors(self):
        host = FakeHost(exact=True)
        proto = attach(host, ".a")
        proto.on_message(heartbeat(5, ".a"))
        proto.on_message(EventIdList(sender=5, event_ids=()))
        event = make_event(publisher=9, topic=".a.x", validity=60.0,
                           now=host.now)
        proto.on_message(EventBatch(sender=8, events=(event,),
                                    neighbor_ids=()))
        host.advance(2.0)
        batches = host.sent_of_kind(EventBatch)
        assert len(batches) == 1
        assert batches[0].events == (event,)


class TestPublish:
    def test_publish_delivers_locally_and_stores(self):
        host = FakeHost(exact=True)
        proto = attach(host, ".a")
        event = make_event(publisher=0, topic=".a.x", validity=60.0,
                           now=host.now)
        proto.publish(event)
        assert host.delivered == [event]
        assert event.event_id in proto.events

    def test_publish_broadcasts_when_neighbor_interested(self):
        host = FakeHost(exact=True)
        proto = attach(host, ".a")
        proto.on_message(heartbeat(5, ".a"))
        host.clear()
        event = make_event(publisher=0, topic=".a.x", validity=60.0,
                           now=host.now)
        proto.publish(event)
        batches = host.sent_of_kind(EventBatch)
        assert len(batches) == 1
        assert batches[0].neighbor_ids == (5,)
        assert proto.events.get(event.event_id).forward_count == 1

    def test_publish_stays_silent_without_interested_neighbors(self):
        host = FakeHost(exact=True)
        proto = attach(host, ".a")
        event = make_event(publisher=0, topic=".a.x", validity=60.0,
                           now=host.now)
        proto.publish(event)
        assert host.sent_of_kind(EventBatch) == []
        # ... but the event waits in the table for future encounters.
        assert event.event_id in proto.events

    def test_pure_publisher_advertises_event_topic(self):
        """A publisher with no subscriptions still beacons the topics of
        its own valid publications, so subscribers can discover it."""
        host = FakeHost(exact=True)
        proto = FrugalPubSub()
        proto.attach(host)
        proto.on_start()
        event = make_event(publisher=0, topic=".a.x", validity=60.0,
                           now=host.now)
        proto.publish(event)
        host.advance(1.5)
        beats = host.sent_of_kind(Heartbeat)
        assert beats and beats[0].subscriptions == {Topic(".a.x")}

    def test_pure_publisher_stops_advertising_after_expiry(self):
        host = FakeHost(exact=True)
        proto = FrugalPubSub()
        proto.attach(host)
        proto.on_start()
        event = make_event(publisher=0, topic=".a.x", validity=3.0,
                           now=host.now)
        proto.publish(event)
        host.advance(10.0)
        host.clear()
        host.advance(3.0)
        assert host.sent_of_kind(Heartbeat) == []

    def test_publisher_accepts_matching_heartbeats_for_its_events(self):
        host = FakeHost(exact=True)
        proto = FrugalPubSub()
        proto.attach(host)
        proto.on_start()
        proto.publish(make_event(publisher=0, topic=".a.x", validity=60.0,
                                 now=host.now))
        proto.on_message(heartbeat(5, ".a"))
        assert 5 in proto.neighborhood


class TestAblationSwitches:
    def test_no_backoff_sends_immediately(self):
        host = FakeHost(exact=True)
        proto = attach(host, ".a",
                       config=FrugalConfig(use_backoff=False))
        proto.events.store(make_event(topic=".a.x", validity=60.0,
                                      now=host.now), now=host.now)
        proto.on_message(heartbeat(5, ".a"))
        proto.on_message(EventIdList(sender=5, event_ids=()))
        assert len(host.sent_of_kind(EventBatch)) == 1   # no waiting

    def test_no_announce_retrieves_on_detection(self):
        host = FakeHost(exact=True)
        proto = attach(host, ".a", config=FrugalConfig(
            announce_on_new_neighbor=False))
        proto.events.store(make_event(topic=".a.x", validity=60.0,
                                      now=host.now), now=host.now)
        proto.on_message(heartbeat(5, ".a"))
        assert host.sent_of_kind(EventIdList) == []
        host.advance(2.0)
        assert len(host.sent_of_kind(EventBatch)) == 1

    def test_event_table_capacity_enforced_via_config(self):
        host = FakeHost(exact=True)
        proto = attach(host, ".a", config=FrugalConfig(
            event_table_capacity=2))
        for i in range(5):
            proto.on_message(EventBatch(
                sender=5,
                events=(make_event(publisher=7, seq=i, topic=".a.x",
                                   validity=60.0, now=host.now),)))
        assert len(proto.events) == 2
