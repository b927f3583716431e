"""Unit tests for events (repro.core.events)."""

from __future__ import annotations

import pickle

import pytest

from repro.core.events import Event, EventFactory, EventId, StoredEvent
from repro.core.topics import Topic

#: Publisher ids and sequence numbers over the signs and widths a hash
#: treats differently (a 64-bit wrap, beyond 64 bits, -1).
INTS = (-10**30, -2**63, -2, -1, 0, 1, 7, 2**31, 2**63 - 1, 2**64 + 5)


class TestEventId:
    def test_equality_and_ordering(self):
        assert EventId(1, 2) == EventId(1, 2)
        assert EventId(1, 2) < EventId(1, 3) < EventId(2, 0)

    def test_str(self):
        assert str(EventId(7, 42)) == "7:42"

    def test_hashable(self):
        assert len({EventId(1, 1), EventId(1, 1), EventId(1, 2)}) == 2

    @pytest.mark.parametrize("publisher", INTS)
    @pytest.mark.parametrize("seq", INTS)
    def test_hash_is_the_field_tuple_hash(self, publisher, seq):
        """The frozen dataclass hashed ``(publisher, seq)``: the same
        value keeps every id set and dict iterating in the same order."""
        assert hash(EventId(publisher, seq)) == hash((publisher, seq))

    def test_ordering_is_publisher_then_seq(self):
        ids = [EventId(p, s) for p in (3, -1, 0) for s in (2, -5, 0)]
        assert sorted(ids) == sorted(ids, key=lambda e: (e.publisher, e.seq))
        assert EventId(0, 10**30) < EventId(1, -10**30)

    def test_repr_and_fields(self):
        eid = EventId(publisher=7, seq=42)
        assert repr(eid) == "EventId(publisher=7, seq=42)"
        assert (eid.publisher, eid.seq) == (7, 42)

    def test_pickle_round_trip(self):
        eid = EventId(2**63 - 1, -3)
        clone = pickle.loads(pickle.dumps(eid))
        assert type(clone) is EventId and clone == eid
        assert str(clone) == f"{2**63 - 1}:-3"


class TestEvent:
    def test_expiry_window(self):
        e = Event(EventId(1, 0), Topic(".t"), validity=60.0,
                  published_at=100.0)
        assert e.expires_at == 160.0
        assert e.is_valid(100.0)
        assert e.is_valid(159.9)
        assert not e.is_valid(160.0)

    def test_remaining_validity_clamps_at_zero(self):
        e = Event(EventId(1, 0), Topic(".t"), validity=10.0,
                  published_at=0.0)
        assert e.remaining_validity(4.0) == 6.0
        assert e.remaining_validity(100.0) == 0.0

    def test_invalid_validity_rejected(self):
        with pytest.raises(ValueError):
            Event(EventId(1, 0), Topic(".t"), validity=0.0,
                  published_at=0.0)

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            Event(EventId(1, 0), Topic(".t"), validity=1.0,
                  published_at=0.0, payload_bytes=-1)

    def test_default_payload_is_paper_400_bytes(self):
        e = Event(EventId(1, 0), Topic(".t"), validity=1.0,
                  published_at=0.0)
        assert e.payload_bytes == 400

    def test_immutability(self):
        e = Event(EventId(1, 0), Topic(".t"), validity=1.0,
                  published_at=0.0)
        with pytest.raises(Exception):
            e.validity = 99.0


class TestStoredEvent:
    def test_wraps_event_fields(self):
        e = Event(EventId(3, 1), Topic(".a.b"), validity=5.0,
                  published_at=2.0)
        row = StoredEvent(event=e, stored_at=2.5)
        assert row.event_id == EventId(3, 1)
        assert row.topic == Topic(".a.b")
        assert row.forward_count == 0
        assert row.is_valid(3.0)
        assert not row.is_valid(7.0)


class TestEventFactory:
    def test_sequence_numbers_increase(self):
        f = EventFactory(9)
        a = f.create(".t", validity=1.0, now=0.0)
        b = f.create(".t", validity=1.0, now=0.0)
        assert a.event_id == EventId(9, 0)
        assert b.event_id == EventId(9, 1)

    def test_accepts_topic_or_string(self):
        f = EventFactory(1)
        assert f.create(Topic(".x"), validity=1.0, now=0.0).topic == \
            Topic(".x")

    def test_payload_passthrough(self):
        f = EventFactory(1)
        e = f.create(".x", validity=1.0, now=0.0,
                     payload={"spot": 17}, payload_bytes=123)
        assert e.payload == {"spot": 17}
        assert e.payload_bytes == 123

    def test_distinct_factories_can_collide_only_across_publishers(self):
        a = EventFactory(1).create(".t", validity=1.0, now=0.0)
        b = EventFactory(2).create(".t", validity=1.0, now=0.0)
        assert a.event_id != b.event_id
