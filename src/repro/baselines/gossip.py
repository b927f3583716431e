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

from dataclasses import dataclass
from typing import Optional

from repro.core.base import ProtocolCounters
from repro.core.events import Event
from repro.core.stack.delivery import DeliveryLayer
from repro.core.stack.forwarding import GossipForwarding
from repro.core.stack.protocol import StackProtocol
from repro.core.stack.store import EventStore

__all__ = ["GossipConfig", "GossipPubSub", "make_gossip"]


@dataclass(frozen=True)
class GossipConfig:
    """Tunables of :class:`GossipPubSub`.  The built-in ``gossip``
    protocol runs the defaults; a variant is a composition registered
    under its own name."""

    period: float = 1.0
    """Length of one gossip round [s]."""

    jitter: float = 0.05
    """Uniform per-round jitter [s] so co-located nodes desynchronise."""

    forward_probability: float = 0.75
    """Probability that a non-empty round actually broadcasts."""

    fanout: int = 8
    """Maximum events per gossip batch (the newest buffered ones)."""

    buffer_capacity: Optional[int] = 32
    """Digest-buffer bound; ``None`` disables it (tests only)."""

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError(f"period must be positive: {self.period}")
        if self.jitter < 0:
            raise ValueError(f"jitter must be >= 0: {self.jitter}")
        if not 0.0 <= self.forward_probability <= 1.0:
            raise ValueError(f"forward_probability must be in [0,1]: "
                             f"{self.forward_probability}")
        if self.fanout < 1:
            raise ValueError(f"fanout must be >= 1: {self.fanout}")
        if self.buffer_capacity is not None and self.buffer_capacity < 1:
            raise ValueError("buffer_capacity must be >= 1 or None")


class GossipPubSub(StackProtocol):
    """Topic-based pub/sub over lpbcast-style gossip rounds.

    Declaration: a bounded expired-first/FIFO digest buffer as the
    store, :class:`~repro.core.stack.forwarding.GossipForwarding` for
    the rounds, and an id set for dedup (the buffer forgets).  No
    membership layer: gossip forwards irrespective of who is listening
    (routing-layer, like the broadcast-storm schemes), so it buffers
    parasites too and parasite receptions are its price for
    statelessness.
    """

    def __init__(self, config: Optional[GossipConfig] = None):
        self.config = config or GossipConfig()
        counters = ProtocolCounters()
        super().__init__(
            counters, DeliveryLayer(counters),
            EventStore.bounded_fifo(self.config.buffer_capacity),
            GossipForwarding(counters, self.config.period,
                             self.config.jitter,
                             self.config.forward_probability,
                             self.config.fanout),
            seen=set())

    def publish(self, event: Event) -> None:
        """Buffer, deliver locally, and broadcast immediately."""
        now = self._require_attached().now
        self.seen.add(event.event_id)
        self.store.store(event, now)
        self.delivery.deliver_once(event)
        self.forwarding.broadcast((event,))

    buffered_event_ids = StackProtocol.stored_event_ids


def make_gossip(config) -> GossipPubSub:
    """Registry factory for ``gossip``: the :class:`GossipConfig`
    defaults."""
    return GossipPubSub()
