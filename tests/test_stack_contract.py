"""One reception contract for every registered protocol.

Every built-in is a :class:`~repro.core.stack.protocol.StackProtocol`
declaration, so each must honour the same lifecycle and reception rules
whatever layers it chose: attach/detach symmetry, a stopped stack that
ignores the air, unknown frame kinds ignored, and the triage's duplicate
and parasite accounting.  Each case builds its protocol by name through
the registry, on a :class:`tests.helpers.FakeHost`.
"""

from __future__ import annotations

import pytest

from repro.core import registry
from repro.core.events import EventId
from repro.core.topics import Topic
from repro.harness.scenario import RandomWaypointSpec, ScenarioConfig
from repro.net.messages import EventBatch, EventIdList, Heartbeat, Message

from tests.helpers import FakeHost, make_event

CONFIG = ScenarioConfig(
    n_processes=2,
    mobility=RandomWaypointSpec(width=100.0, height=100.0,
                                speed_min=1.0, speed_max=1.0),
    duration=10.0)

NAMES = registry.names()


class _Unknown(Message):
    """A frame kind no built-in handles."""

    sender = 5

    def size_bytes(self, sizes) -> int:
        return 1


def started(name: str, host: FakeHost, *topics: str):
    proto = registry.create(name, CONFIG)
    proto.attach(host)
    for topic in topics:
        proto.subscribe(topic)
    proto.on_start()
    return proto


def every_kind(event) -> list:
    return [Heartbeat(sender=5, subscriptions=frozenset({Topic(".a")})),
            EventIdList(sender=5, event_ids=(event.event_id,
                                              EventId(77, 0))),
            EventBatch(sender=5, events=(event,), neighbor_ids=(0, 6))]


def test_every_builtin_is_registered():
    assert len(NAMES) == 7


@pytest.mark.parametrize("name", NAMES)
class TestStackContract:
    def test_attach_detach_symmetry(self, name):
        proto = registry.create(name, CONFIG)
        with pytest.raises(RuntimeError, match="not attached"):
            proto.detach()
        first = FakeHost(host_id=0)
        proto.attach(first)
        with pytest.raises(RuntimeError, match="already attached"):
            proto.attach(FakeHost(host_id=1))
        proto.subscribe(".a")
        proto.on_start()
        with pytest.raises(RuntimeError, match="on_stop"):
            proto.detach()
        proto.on_stop()
        proto.detach()
        assert proto.host is None
        with pytest.raises(RuntimeError, match="not attached"):
            proto.detach()
        with pytest.raises(RuntimeError, match="not attached"):
            proto.publish(make_event(topic=".a.x"))
        second = FakeHost(host_id=1)
        proto.attach(second)
        proto.on_start()
        event = make_event(topic=".a.x", validity=60.0, now=second.now)
        proto.publish(event)
        assert proto.host is second
        assert second.delivered == [event]
        assert first.delivered == []
        proto.on_stop()

    def test_stopped_stack_ignores_every_kind_and_sends_nothing(self, name):
        host = FakeHost()
        proto = started(name, host, ".a")
        proto.on_stop()
        host.clear()
        before = proto.counters.as_dict()
        for message in every_kind(make_event(topic=".a.x", validity=60.0)):
            proto.on_message(message)
        host.advance(30.0)
        assert host.sent == []
        assert host.delivered == []
        assert proto.counters.as_dict() == before

    def test_unknown_kind_ignored_while_running(self, name):
        host = FakeHost()
        proto = started(name, host, ".a")
        before = proto.counters.as_dict()
        proto.on_message(_Unknown())
        assert host.sent == []
        assert host.delivered == []
        assert proto.counters.as_dict() == before

    def test_second_copy_is_a_duplicate_not_a_delivery(self, name):
        host = FakeHost()
        proto = started(name, host, ".a")
        event = make_event(topic=".a.x", validity=60.0, now=host.now)
        proto.on_message(EventBatch(sender=5, events=(event,)))
        assert host.delivered == [event]
        assert proto.counters.duplicates_dropped == 0
        proto.on_message(EventBatch(sender=6, events=(event,)))
        assert host.delivered == [event]
        assert proto.counters.duplicates_dropped == 1
        assert proto.counters.delivered_count == 1

    def test_unsubscribed_topic_is_a_parasite_never_delivered(self, name):
        host = FakeHost()
        proto = started(name, host, ".a")
        parasite = make_event(topic=".z", validity=60.0, now=host.now)
        proto.on_message(EventBatch(sender=5, events=(parasite,)))
        assert proto.counters.parasites_dropped == 1
        host.advance(3.0)
        proto.on_message(EventBatch(sender=6, events=(parasite,)))
        assert proto.counters.parasites_dropped == 2
        assert proto.counters.duplicates_dropped == 0
        assert host.delivered == []
