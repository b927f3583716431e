"""Baseline (3): neighbors'-interests flooding.

"A process propagates an event to its neighbors only if the process itself
and its neighbors are interested in the event" (Section 5.2).  This variant
adds the stack's :class:`~repro.core.stack.membership.TTLMembership`
layer — fixed-period heartbeats (like the frugal protocol's phase 1) and a
lazily TTL-pruned neighbour view — and on each flood tick only re-floods
events for which at least one *current* neighbour is interested.
Broadcast still reaches uninterested bystanders — which is why Fig. 20
shows it with a non-zero parasite count — but a process surrounded by no
interested neighbour stays silent.
"""

from __future__ import annotations

from repro.baselines.base import FloodingProtocol
from repro.core.events import Event
from repro.core.stack.membership import TTLMembership
from repro.net.messages import Heartbeat


class NeighborInterestFlooding(FloodingProtocol):
    """Flood subscribed events only while an interested neighbour exists."""

    def __init__(self, flood_period: float = 1.0,
                 flood_jitter: float = 0.05,
                 heartbeat_period: float = 1.0,
                 neighbor_ttl: float = 2.5):
        super().__init__(flood_period=flood_period, flood_jitter=flood_jitter)
        self.membership = TTLMembership(
            self.counters, heartbeat_period, neighbor_ttl,
            subscriptions=lambda: self.subscriptions,
            jitter=self.flood_jitter)
        self.heartbeat_period = self.membership.heartbeat_period
        self.neighbor_ttl = self.membership.ttl

    # -- lifecycle -------------------------------------------------------------

    def attach(self, host) -> None:
        """Bind to a host: also wire the membership layer."""
        super().attach(host)
        self.membership.attach(host)

    def detach(self) -> None:
        """Sever the host binding on every layer (stop first)."""
        super().detach()
        self.membership.detach()

    def on_start(self) -> None:
        """Boot: flood task first, then the heartbeat task."""
        super().on_start()
        self.membership.start()

    def on_stop(self) -> None:
        """Crash/shutdown: also stop beaconing, forget neighbours."""
        super().on_stop()
        self.membership.stop()

    # -- variant hooks ----------------------------------------------------------------

    def _should_store(self, event: Event, subscribed: bool) -> bool:
        return subscribed

    def _should_flood(self, event: Event) -> bool:
        self.membership.prune(self.host.now)
        return self.membership.any_interested(event.topic)

    def _on_heartbeat(self, hb: Heartbeat) -> None:
        self.membership.on_heartbeat(hb)


def make_neighbor_flooding(config) -> NeighborInterestFlooding:
    """Registry factory for ``neighbor-flooding``: reads ``flood_period``."""
    return NeighborInterestFlooding(flood_period=config.flood_period)
