"""The lpbcast-style gossip baseline: periodic probabilistic rounds over
a bounded digest buffer.

The protocol registry's first genuinely *new* strategy, unlocked by the
stack layers — neither a Section 5.2 flooder nor a one-shot
broadcast-storm scheme:

* like the flooders it is **periodic**, so it exploits validity windows
  (a node met later can still be served), but each round goes out only
  with probability ``forward_probability`` and carries at most
  ``fanout`` events — the lightweight-probabilistic-broadcast idea of
  lpbcast, translated to a broadcast-only medium where the "random
  F peers" of a wired gossip become whoever is currently in radio range;
* like the frugal protocol its **payload storage is bounded**: received
  events enter a digest buffer of ``buffer_capacity`` entries that
  evicts expired events first and then the oldest (lpbcast's buffer
  truncation), reusing the pluggable eviction machinery of
  :mod:`repro.core.gc`.  (The reception-dedup *id* set does grow with
  distinct events heard — 16-byte identifiers, not payloads — exactly
  like the flooders' delivered-set; it resets on crash.);
* unlike the frugal protocol it keeps **no neighbour state at all** —
  no heartbeats, no id exchange; redundancy control is purely
  probabilistic.

Determinism: every coin (the per-round forward decision) is drawn from
the host's node-local rng stream, one of the registry-seeded streams
every scenario derives from its seed — re-running a config replays the
exact coin sequence, so gossip summaries are exactly equal across
reruns (and across the serial/parallel/cached execution paths).
"""

from __future__ import annotations

from typing import Optional, Set

from repro.core.base import PubSubProtocol
from repro.core.config import GossipConfig
from repro.core.events import Event, EventId
from repro.core.stack.delivery import DeliveryLayer
from repro.core.stack.forwarding import GossipForwarding
from repro.core.stack.store import EventStore
from repro.core.topics import Topic
from repro.net.messages import EventBatch, Message

__all__ = ["GossipConfig", "GossipPubSub", "make_gossip"]


class GossipPubSub(PubSubProtocol):
    """Topic-based pub/sub over lpbcast-style gossip rounds.

    Composition: :class:`~repro.core.stack.delivery.DeliveryLayer` for
    subscription matching and exactly-once hand-off, a bounded
    expired-first/FIFO :class:`~repro.core.stack.store.EventStore` as
    the digest buffer, and
    :class:`~repro.core.stack.forwarding.GossipForwarding` for the
    rounds.  No membership layer: gossip forwards irrespective of who is
    listening (routing-layer, like the broadcast-storm schemes), so
    parasite receptions are its price for statelessness.
    """

    def __init__(self, config: Optional[GossipConfig] = None):
        super().__init__()
        self.config = config or GossipConfig()
        self.delivery = DeliveryLayer(self.counters)
        self.buffer = EventStore.bounded_fifo(self.config.buffer_capacity)
        self.forwarding = GossipForwarding(
            self.counters, self.config.period, self.config.jitter,
            self.config.forward_probability, self.config.fanout)
        self._seen: Set[EventId] = set()
        self._running = False

    # -- lifecycle -----------------------------------------------------------------

    def attach(self, host) -> None:
        """Bind to a host: wire the delivery and forwarding layers."""
        super().attach(host)
        self.delivery.attach(host)
        self.forwarding.attach(host, self.buffer)

    def detach(self) -> None:
        """Sever the host binding on every layer (stop first)."""
        super().detach()
        self.delivery.detach()
        self.forwarding.detach()

    def on_start(self) -> None:
        """Boot: arm the gossip-round task."""
        self._running = True
        self.forwarding.start()

    def on_stop(self) -> None:
        """Crash/shutdown: stop gossiping, lose buffer and history."""
        self._running = False
        self.forwarding.stop()
        self.buffer.clear()
        self.delivery.reset()
        self._seen.clear()

    # -- application-facing API -------------------------------------------------------

    @property
    def subscriptions(self):
        """Current subscription set."""
        return self.delivery.subscriptions

    def subscribe(self, topic: Topic | str) -> None:
        """Register interest in ``topic`` and its subtopics."""
        self.delivery.subscribe(topic)

    def unsubscribe(self, topic: Topic | str) -> None:
        """Drop a subscription."""
        self.delivery.unsubscribe(topic)

    def publish(self, event: Event) -> None:
        """Buffer, deliver locally, and broadcast immediately."""
        host = self._require_attached()
        self._seen.add(event.event_id)
        self.buffer.store(event, host.now)
        self.delivery.deliver_once(event)
        self.forwarding.broadcast((event,))

    # -- network-facing API --------------------------------------------------------------

    def on_message(self, message: Message) -> None:
        """Dispatch a received frame (gossip only speaks event batches)."""
        if not self._running:
            return
        if isinstance(message, EventBatch):
            self._on_event_batch(message)

    def _on_event_batch(self, msg: EventBatch) -> None:
        now = self.host.now
        for event in msg.events:
            subscribed = self.delivery.matches(event.topic)
            if not subscribed:
                self.counters.parasites_dropped += 1
            if event.event_id in self._seen:
                if subscribed:
                    self.counters.duplicates_dropped += 1
                continue
            self._seen.add(event.event_id)
            if not event.is_valid(now):
                continue
            # Buffered irrespective of interests (routing-layer): the
            # bounded buffer, not a subscription filter, is what keeps
            # the memory bill small.
            self.buffer.store(event, now)
            if subscribed:
                self.delivery.deliver_once(event)

    # -- introspection ------------------------------------------------------------------

    @property
    def buffered_event_ids(self) -> Set[EventId]:
        """Ids currently held in the digest buffer."""
        return self.buffer.event_ids()

    def __repr__(self) -> str:   # pragma: no cover - debugging aid
        return (f"<GossipPubSub buffer={len(self.buffer)} "
                f"p={self.config.forward_probability}>")


def make_gossip(config) -> GossipPubSub:
    """Registry factory for ``gossip``: reads ``config.gossip``."""
    return GossipPubSub(config.gossip)
