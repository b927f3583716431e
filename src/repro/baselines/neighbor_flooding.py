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


class NeighborInterestFlooding(FloodingProtocol):
    """Flood subscribed events only while an interested neighbour exists."""

    stores_parasites = False

    def __init__(self, flood_period: float = 1.0,
                 flood_jitter: float = 0.05,
                 heartbeat_period: float = 1.0,
                 neighbor_ttl: float = 2.5):
        super().__init__(flood_period=flood_period, flood_jitter=flood_jitter)
        self.membership = TTLMembership(
            self.counters, heartbeat_period, neighbor_ttl,
            subscriptions=lambda: self.delivery.subscriptions,
            jitter=flood_jitter)

    def _should_flood(self, event: Event) -> bool:
        self.membership.prune(self.host.now)
        return self.membership.any_interested(event.topic)


def make_neighbor_flooding(config) -> NeighborInterestFlooding:
    """Registry factory for ``neighbor-flooding``: the 1 s flood period."""
    return NeighborInterestFlooding()
