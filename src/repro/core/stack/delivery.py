"""The stack's delivery layer: what reaches the application.

Owns the subscription set and the exactly-once hand-off to the host's
application layer, and accounts the two reception pathologies the paper
measures: *duplicates* (a copy of an event the process already handled)
and *parasites* (an event of no subscribed topic that reached the radio
anyway).  All tallies go into the stack's shared
:class:`~repro.core.base.ProtocolCounters`.

Two hand-off flavours exist because the protocols track "already
delivered" differently:

* :meth:`DeliveryLayer.hand_off` — unconditional count-and-deliver, for
  stacks whose store rows carry their own ``delivered`` flag (the frugal
  protocol: an event evicted and later re-received is delivered again,
  by design);
* :meth:`DeliveryLayer.deliver_once` — set-based exactly-once hand-off,
  for stacks without per-row flags (every baseline).
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Set

from repro.core.base import Host, ProtocolCounters
from repro.core.events import Event, EventId
from repro.core.topics import Topic, entitled


class DeliveryLayer:
    """Subscription matching, dedup/parasite accounting, app hand-off."""

    def __init__(self, counters: ProtocolCounters):
        self.counters = counters
        self._subscriptions: FrozenSet[Topic] = frozenset()
        self._delivered: Set[EventId] = set()
        self._host: Optional[Host] = None

    # -- wiring ---------------------------------------------------------------

    def attach(self, host: Host) -> None:
        """Bind the layer to the hosting node."""
        self._host = host

    def detach(self) -> None:
        """Drop the host binding (stack detach)."""
        self._host = None

    def reset(self) -> None:
        """Forget delivery history (crash semantics); counters survive."""
        self._delivered.clear()

    # -- subscriptions ----------------------------------------------------------

    @property
    def subscriptions(self) -> FrozenSet[Topic]:
        """The current subscription set.

        One frozen object, replaced only by :meth:`subscribe` /
        :meth:`unsubscribe`: callers may key derived values on its
        identity.
        """
        return self._subscriptions

    def subscribe(self, topic: Topic | str) -> None:
        """Register interest in ``topic`` and its subtopics."""
        self._subscriptions = self._subscriptions | {Topic(topic)}

    def unsubscribe(self, topic: Topic | str) -> None:
        """Drop a subscription (unknown topics are ignored)."""
        self._subscriptions = self._subscriptions - {Topic(topic)}

    def matches(self, topic: Topic) -> bool:
        """Is the process entitled to events on ``topic``?"""
        return entitled(self._subscriptions, topic)

    # -- hand-off ------------------------------------------------------------------

    def hand_off(self, event: Event) -> None:
        """Count and deliver unconditionally (caller did the dedup)."""
        self.counters.delivered_count += 1
        self._host.deliver(event)

    def deliver_once(self, event: Event) -> bool:
        """Deliver if subscribed and not yet delivered; report success."""
        if event.event_id in self._delivered:
            return False
        if not self.matches(event.topic):
            return False
        self._delivered.add(event.event_id)
        self.hand_off(event)
        return True

    def __repr__(self) -> str:   # pragma: no cover - debugging aid
        subs = ",".join(sorted(str(t) for t in self._subscriptions))
        return f"<DeliveryLayer subs=[{subs}]>"
