"""The frugal event-dissemination protocol (paper Sections 3-4).

Three phases, composed from the :mod:`repro.core.stack` layers:

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

This class is the *composition root*: it owns one instance of each layer
plus the shared counters, and keeps only the cross-layer glue (publish,
batch reception, the id-announcement on a new neighbour).  The behaviour
is bit-identical to the pre-stack monolith — same RNG draw order, same
timer ordering — which ``tests/test_stack_equivalence.py`` proves
against the frozen copy in :mod:`repro.baselines.reference`.

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

from repro.core.base import PubSubProtocol
from repro.core.config import FrugalConfig
from repro.core.events import Event
from repro.core.stack.delivery import DeliveryLayer
from repro.core.stack.forwarding import BackoffForwarding
from repro.core.stack.membership import HeartbeatMembership
from repro.core.stack.store import EventStore
from repro.core.topics import Topic
from repro.net.messages import EventBatch, EventIdList, Heartbeat, Message


class FrugalPubSub(PubSubProtocol):
    """The paper's frugal topic-based publish/subscribe protocol."""

    def __init__(self, config: Optional[FrugalConfig] = None):
        super().__init__()
        self.config = config or FrugalConfig()
        self.delivery = DeliveryLayer(self.counters)
        self.membership = HeartbeatMembership(
            self.config, self.counters,
            advertised=self.advertised_topics,
            on_new_neighbor=self._on_new_neighbor)
        self.forwarding = BackoffForwarding(self.config, self.counters,
                                            self.membership)
        self.events: Optional[EventStore] = None   # built on attach (needs rng)
        self._running = False
        # Last advertised_topics() result: (subscription view, store
        # generation, first instant it goes stale, the set itself).
        self._advertised: Optional[
            Tuple[FrozenSet[Topic], int, float, FrozenSet[Topic]]] = None

    # -- lifecycle -----------------------------------------------------------------

    def attach(self, host) -> None:
        """Bind to a host: wire every layer, build the rng-backed store."""
        super().attach(host)
        self.events = EventStore.from_config(self.config, host.rng)
        self._advertised = None   # a fresh store restarts its generation
        self.delivery.attach(host)
        self.membership.attach(host)
        self.forwarding.attach(host, self.events)

    def detach(self) -> None:
        """Sever the host binding on every layer (stop first)."""
        super().detach()
        self.delivery.detach()
        self.membership.detach()
        self.forwarding.detach()

    def on_start(self) -> None:
        """Boot: reset the heartbeat period and arm the tasks."""
        self._running = True
        self.membership.start()

    def on_stop(self) -> None:
        """Crash/shutdown: stop tasks, lose all volatile state.

        Volatile state is lost on crash: a recovered process rebuilds
        its view from scratch (Section 2 allows crash/recover at any
        time).  The lifetime counters survive.
        """
        self._running = False
        self.membership.stop()
        self.forwarding.cancel()
        self.membership.reset()
        if self.events is not None:
            self.events.clear()
        self.delivery.reset()

    # -- application-facing API -------------------------------------------------------

    @property
    def subscriptions(self) -> FrozenSet[Topic]:
        """Current subscription set."""
        return self.delivery.subscriptions

    def subscribe(self, topic: Topic | str) -> None:
        """Register interest in ``topic`` and its subtopics (Fig. 5)."""
        self.delivery.subscribe(topic)
        self.membership.update_tasks()

    def unsubscribe(self, topic: Topic | str) -> None:
        """Drop a subscription; tasks stop when nothing is advertised."""
        self.delivery.unsubscribe(topic)
        self.membership.update_tasks()

    def publish(self, event: Event) -> None:
        """Inject a locally produced event (Fig. 9, ``publish``).

        The event is stored and delivered locally, then broadcast
        immediately if some matching neighbour is entitled to it; either
        way it remains available for dissemination at future encounters
        until its validity period ends.
        """
        self._require_frugal_attached()
        now = self.host.now
        interested = self.neighborhood.interested_in(event.topic)
        if interested:
            self.forwarding.send_batch((event,))
        row = self.events.store(event, now)
        if interested:
            row.forward_count += 1
        if not row.delivered:
            row.delivered = True
            self.delivery.hand_off(event)
        self.membership.update_tasks()   # a pure publisher advertises now

    # -- network-facing API --------------------------------------------------------------

    def on_message(self, message: Message) -> None:
        """Dispatch a received frame to the layer that handles its kind."""
        if not self._running:
            return
        if isinstance(message, Heartbeat):
            self.membership.on_heartbeat(message)
        elif isinstance(message, EventIdList):
            self._on_event_id_list(message)
        elif isinstance(message, EventBatch):
            self._on_event_batch(message)
        # Unknown message kinds are ignored: the medium is shared with
        # whatever other protocols the simulation mixes in.

    # -- phase 1 glue: id announcements -----------------------------------------------------

    def advertised_topics(self) -> FrozenSet[Topic]:
        """Subscriptions plus the topics of own still-valid publications.

        Called on every heartbeat sent *and* received, so the last
        result is reused for as long as nothing it depends on changed:
        the subscription view is the same object (``subscribe`` /
        ``unsubscribe`` replace it), the store's ``generation`` is
        unchanged (every path that adds or removes a row bumps it) and
        ``now`` is still before the earliest ``expires_at`` among the
        own valid publications folded in — ``Event.is_valid`` is
        ``now < expires_at``, so the set shrinks at exactly that instant
        and is rebuilt by a full scan then.  A process advertising only
        its subscriptions gets the subscription view itself back.
        """
        subs = self.delivery.subscriptions
        if self.events is None or self.host is None:
            return subs
        now = self.host.now
        cached = self._advertised
        if (cached is not None and cached[0] is subs
                and cached[1] == self.events.generation and now < cached[2]):
            return cached[3]
        own = self.host.id
        own_valid = [row.event for row in self.events
                     if row.event_id.publisher == own and row.is_valid(now)]
        topics = (subs.union(e.topic for e in own_valid) if own_valid
                  else subs)
        stale_at = min((e.expires_at for e in own_valid), default=math.inf)
        self._advertised = (subs, self.events.generation, stale_at, topics)
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
        ids = self.events.valid_ids_for(their_subs, self.host.now)
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

    def _on_event_batch(self, msg: EventBatch) -> None:
        """Fig. 9 lines 16-32: receive events, deliver, update the view."""
        now = self.host.now
        interested = False
        for event in msg.events:
            # The sender holds the event; the attached neighbour ids are
            # about to receive it — all of them are presumed to know it.
            self.neighborhood.record_known_event(msg.sender, event.event_id)
            for nid in msg.neighbor_ids:
                if nid != self.host.id:
                    self.neighborhood.record_known_event(nid, event.event_id)
            if not self.delivery.matches(event.topic):
                self.counters.parasites_dropped += 1
                continue
            if event.event_id in self.events:
                self.counters.duplicates_dropped += 1
                continue
            if not event.is_valid(now):
                continue   # expired in flight; of no use to anyone
            interested = True
            if self.config.backoff_suppression:
                self.forwarding.cancel()
            row = self.events.store(event, now)
            if not row.delivered:
                row.delivered = True
                self.delivery.hand_off(event)
        if interested:
            self.forwarding.retrieve()

    # -- misc ---------------------------------------------------------------------------------

    def _require_frugal_attached(self) -> None:
        if self.host is None or self.events is None:
            raise RuntimeError("protocol is not attached to a host")

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

    def __repr__(self) -> str:   # pragma: no cover - debugging aid
        subs = ",".join(sorted(str(t) for t in self.delivery.subscriptions))
        return (f"<FrugalPubSub subs=[{subs}] "
                f"events={len(self.events) if self.events else 0}>")


def make_frugal(config) -> FrugalPubSub:
    """Registry factory for ``frugal``: reads ``config.frugal``."""
    return FrugalPubSub(config.frugal)
