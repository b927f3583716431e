"""The frugal event-dissemination protocol (paper Sections 3-4).

Three phases, declared over :class:`~repro.core.stack.protocol.StackProtocol`:

1. **Neighbourhood detection** — :class:`HeartbeatMembership`: a periodic
   heartbeat task broadcasts ``(id, subscriptions, [speed])``.  Receivers
   with *matching* subscriptions store the sender in their neighbourhood
   table and, on first detection, this class broadcasts the identifiers
   of the still-valid events it holds for the shared topics.  Heartbeat
   reception also re-derives the adaptive delays
   (``computeHBDelay``/``computeNGCDelay``, Fig. 8).
2. **Dissemination** — :class:`BackoffForwarding`: knowing which events
   each matching neighbour holds, a process computes the events some
   neighbour is entitled to but lacks (``retrieveEventsToSend``, Fig. 7),
   arms a back-off inversely proportional to how much it has to offer,
   and on expiry *recomputes* and broadcasts the still-needed events
   together with its neighbour-id list.  Overhearers use that list to
   update their own view, suppressing redundant retransmissions;
   receiving an event of interest cancels a pending back-off outright.
3. **Garbage collection** — the membership layer's periodic task drops
   stale neighbourhood rows; the bounded :class:`EventStore` evicts
   expired events first, then applies Equation 1 (see
   :mod:`repro.core.gc`).

The stack owns the lifecycle and the batch triage; this class keeps only
the cross-phase glue: publish, the id announcement on a new neighbour,
the advertised topic set, back-off suppression and the retrieve step
after an interesting batch.  Delivery is keyed on the store row's
``delivered`` flag, so an event evicted and later received again is
delivered again.

Fidelity deviations (documented in DESIGN.md, "Pseudocode fidelity notes"):

* ``retrieveEventsToSend`` sends *still-valid* events (the paper's
  ``val(e) < currentTime`` comparison is an evident typo);
* eviction prefers *expired* events (the prose contradicts Fig. 10's
  comparison direction; we follow the prose);
* **pure publishers**: the paper starts heartbeats only on ``SUBSCRIBE``,
  which would make a publisher with no subscriptions invisible (nobody
  stores it, its id announcements are dropped, nothing disseminates).  We
  complete the obvious intent: a process *advertises* the union of its
  subscriptions and the topics of its own still-valid publications, and
  runs heartbeats while that advertised set is non-empty.  For processes
  that subscribe to what they publish — every scenario in the paper — the
  behaviour is identical to the pseudocode.
"""

from __future__ import annotations

import math
from typing import FrozenSet, Optional, Tuple

from repro.core.base import ProtocolCounters
from repro.core.config import FrugalConfig
from repro.core.events import Event, StoredEvent
from repro.core.stack.delivery import DeliveryLayer
from repro.core.stack.forwarding import BackoffForwarding
from repro.core.stack.membership import HeartbeatMembership
from repro.core.stack.protocol import StackProtocol
from repro.core.stack.store import EventStore
from repro.core.topics import Topic
from repro.net.messages import EventBatch, EventIdList


class FrugalPubSub(StackProtocol):
    """The paper's frugal topic-based publish/subscribe protocol."""

    def __init__(self, config: Optional[FrugalConfig] = None):
        self.config = config or FrugalConfig()
        counters = ProtocolCounters()
        membership = HeartbeatMembership(
            self.config, counters, advertised=self.advertised_topics,
            on_new_neighbor=self._on_new_neighbor)
        super().__init__(
            counters, DeliveryLayer(counters),
            EventStore.from_config(self.config),
            BackoffForwarding(self.config, counters, membership),
            membership)
        # Last advertised_topics() result: (subscription view, store
        # generation, first instant it goes stale, the set itself).
        self._advertised: Optional[
            Tuple[FrozenSet[Topic], int, float, FrozenSet[Topic]]] = None

    def publish(self, event: Event) -> None:
        """Inject a locally produced event (Fig. 9, ``publish``).

        The event is stored and delivered locally, then broadcast
        immediately if some matching neighbour is entitled to it; either
        way it remains available for dissemination at future encounters
        until its validity period ends.
        """
        now = self._require_attached().now
        interested = self.neighborhood.interested_in(event.topic)
        if interested:
            self.forwarding.send_batch((event,))
        row = self._keep(event, now)
        if interested:
            row.forward_count += 1
        self.membership.update_tasks()   # a pure publisher advertises now

    def _keep(self, event: Event, now: float) -> StoredEvent:
        """Store ``event`` and deliver it unless its row already was."""
        row = self.store.store(event, now)
        if not row.delivered:
            row.delivered = True
            self.delivery.hand_off(event)
        return row

    # -- phase 1 glue: id announcements -----------------------------------------------------

    def advertised_topics(self) -> FrozenSet[Topic]:
        """Subscriptions plus the topics of own still-valid publications.

        Called on every heartbeat sent *and* received, so the last
        result is reused for as long as nothing it depends on changed:
        the subscription view is the same object (``subscribe`` /
        ``unsubscribe`` replace it), the store's ``generation`` is
        unchanged (every path that adds or removes a row bumps it,
        attaching included) and ``now`` is still before the earliest
        ``expires_at`` among the own valid publications folded in —
        ``Event.is_valid`` is ``now < expires_at``, so the set shrinks
        at exactly that instant and is rebuilt by a full scan then.  A
        process advertising only its subscriptions gets the subscription
        view itself back.
        """
        subs = self.delivery.subscriptions
        if self.host is None:
            return subs
        now = self.host.now
        cached = self._advertised
        if (cached is not None and cached[0] is subs
                and cached[1] == self.store.generation and now < cached[2]):
            return cached[3]
        own = self.host.id
        own_valid = [row.event for row in self.store
                     if row.event_id.publisher == own and row.is_valid(now)]
        topics = (subs.union(e.topic for e in own_valid) if own_valid
                  else subs)
        stale_at = min((e.expires_at for e in own_valid), default=math.inf)
        self._advertised = (subs, self.store.generation, stale_at, topics)
        return topics

    def _on_new_neighbor(self, neighbor_id: int,
                         their_subs: FrozenSet[Topic]) -> None:
        """Fig. 6 lines 19-23: announce held event ids for shared topics.

        With announcements disabled (the `abl-ids` ablation) the retrieve
        step must fire here instead: the id exchange is what normally
        triggers it, and without any trigger a holder meeting a fresh
        neighbour would never offer anything.
        """
        if not self.config.announce_on_new_neighbor:
            self.forwarding.retrieve()
            return
        ids = self.store.valid_ids_for(their_subs, self.host.now)
        self.host.send(EventIdList(sender=self.host.id,
                                   event_ids=tuple(ids)))
        self.counters.id_lists_sent += 1

    def _on_event_id_list(self, msg: EventIdList) -> None:
        """Fig. 6 lines 25-32: learn what a neighbour holds, then offer."""
        if msg.sender not in self.neighborhood:
            return
        for event_id in msg.event_ids:
            self.neighborhood.record_known_event(msg.sender, event_id,
                                                 now=self.host.now)
        self.forwarding.retrieve()

    # -- phase 2 glue: batch reception -------------------------------------------------------

    def _on_event_batch(self, msg: EventBatch) -> bool:
        """Fig. 9 lines 16-32: the sender holds every carried event and
        the attached neighbour ids are about to — all of them are
        presumed to know it; after the triage, an interesting reception
        triggers the retrieve step."""
        table, own = self.neighborhood, self.host.id
        for event in msg.events:
            table.record_known_event(msg.sender, event.event_id)
            for nid in msg.neighbor_ids:
                if nid != own:
                    table.record_known_event(nid, event.event_id)
        interesting = super()._on_event_batch(msg)
        if interesting:
            self.forwarding.retrieve()
        return interesting

    def _accept(self, event: Event, subscribed: bool, now: float) -> None:
        """Keep an event of interest, suppressing the pending back-off."""
        if subscribed:
            if self.config.backoff_suppression:
                self.forwarding.cancel()
            self._keep(event, now)

    # -- introspection ---------------------------------------------------------------------

    @property
    def events(self) -> EventStore:
        """The bounded event table (Fig. 3)."""
        return self.store

    @property
    def neighborhood(self):
        """The membership layer's matching-neighbour table (Fig. 2)."""
        return self.membership.table

    @property
    def hb_delay(self) -> float:
        """Current (possibly adapted) heartbeat period [s]."""
        return self.membership.hb_delay

    @property
    def backoff_pending(self) -> bool:
        """Is a dissemination back-off currently armed?"""
        return self.forwarding.pending

    @property
    def _backoff_timer(self):
        """The armed back-off timer handle (tests peek at it)."""
        return self.forwarding.timer


def make_frugal(config) -> FrugalPubSub:
    """Registry factory for ``frugal``: reads ``config.frugal``."""
    return FrugalPubSub(config.frugal)
