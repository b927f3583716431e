"""Shared declaration of the paper's three flooding comparators (Section 5.2).

All three variants rebroadcast events on a fixed period (the paper: "an
event is sent every second"), differing only in *which* events a process
stores and re-floods:

* **simple flooding** — everything, irrespective of interests;
* **interests-aware flooding** — only events the process itself subscribed
  to;
* **neighbors'-interests flooding** — only events the process subscribed to
  *and* at least one current neighbour is interested in (which requires
  heartbeats to learn neighbour interests).

Each is a :class:`~repro.core.stack.protocol.StackProtocol` over an
unbounded :class:`~repro.core.stack.store.EventStore` (memory thrift is
precisely what the frugal protocol adds; the paper's comparison charges
the baselines their natural cost) and
:class:`~repro.core.stack.forwarding.PeriodicFloodForwarding` for the
1-second rebroadcast tick.  A variant declares only its store predicate
(:attr:`~repro.core.stack.protocol.StackProtocol.stores_parasites`) and
its flood predicate (:meth:`FloodingProtocol._should_flood`).
"""

from __future__ import annotations

from repro.core.base import ProtocolCounters
from repro.core.events import Event
from repro.core.stack.delivery import DeliveryLayer
from repro.core.stack.forwarding import PeriodicFloodForwarding
from repro.core.stack.protocol import StackProtocol
from repro.core.stack.store import EventStore


class FloodingProtocol(StackProtocol):
    """Base declaration of the three flooding baselines."""

    def __init__(self, flood_period: float = 1.0,
                 flood_jitter: float = 0.05):
        counters = ProtocolCounters()
        super().__init__(
            counters, DeliveryLayer(counters), EventStore.unbounded(),
            PeriodicFloodForwarding(counters, flood_period, flood_jitter,
                                    self._should_flood))

    def publish(self, event: Event) -> None:
        """Store, deliver locally and flood immediately."""
        self.store.store(event, self._require_attached().now)
        self.delivery.deliver_once(event)
        self.forwarding.flood_now((event,))

    def _should_flood(self, event: Event) -> bool:
        """Include this stored event in the next flood tick?"""
        return True
