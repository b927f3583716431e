"""Broadcast-storm mitigation baselines (paper Section 6, schemes of
Ni et al. [10] / Tseng et al. [19]).

The paper positions its protocol against the classic broadcast-storm
literature: the *probabilistic* scheme (rebroadcast once with probability
``p``) and the *counter-based* scheme (wait a random assessment delay,
count how many copies were overheard, rebroadcast only if fewer than
``C``).  Both are one-shot — each process forwards an event at most once —
so unlike the Section 5.2 flooding baselines they do not re-flood every
second, and their reliability depends on the event racing across the
current connected component before mobility breaks it.

Both deliver to the application exactly like the other baselines (only
subscribed events, duplicates dropped) but forward *irrespective of
interests* — storm schemes are routing-layer, not pub/sub-layer.  They
hold no store: an id set remembers every event heard, and
:class:`~repro.core.stack.forwarding.OneShotForwarding` sends the one
rebroadcast the scheme decides on.
"""

from __future__ import annotations

from typing import Dict

from repro.core.base import ProtocolCounters
from repro.core.events import Event, EventId
from repro.core.stack.delivery import DeliveryLayer
from repro.core.stack.forwarding import OneShotForwarding
from repro.core.stack.protocol import StackProtocol


class _OneShotRebroadcast(StackProtocol):
    """Shared declaration: no store, an id set, forward-at-most-once."""

    def __init__(self):
        counters = ProtocolCounters()
        super().__init__(counters, DeliveryLayer(counters), None,
                         OneShotForwarding(counters), seen=set())

    def publish(self, event: Event) -> None:
        """Deliver locally and broadcast immediately."""
        self._require_attached()
        self.seen.add(event.event_id)
        self.delivery.deliver_once(event)
        self.forwarding.broadcast(event)


class GossipFlooding(_OneShotRebroadcast):
    """The probabilistic broadcast-storm scheme: forward once w.p. ``p``.

    A short random delay decorrelates the forwarders that received the
    same broadcast (without it every forwarder transmits in the same
    instant and the copies collide).
    """

    def __init__(self, probability: float = 0.6,
                 forward_delay_max: float = 0.1):
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0,1]: {probability}")
        if forward_delay_max < 0:
            raise ValueError("forward_delay_max must be >= 0")
        super().__init__()
        self.probability = float(probability)
        self.forward_delay_max = float(forward_delay_max)

    def _accept(self, event: Event, subscribed: bool, now: float) -> None:
        super()._accept(event, subscribed, now)
        rng = self.host.rng
        if rng.random() < self.probability:
            self.host.schedule(rng.uniform(0.0, self.forward_delay_max),
                               self.forwarding.broadcast, event)


class CounterFlooding(_OneShotRebroadcast):
    """The counter-based broadcast-storm scheme.

    On the first copy, arm a random assessment delay; count further
    copies overheard meanwhile; at expiry rebroadcast only if fewer than
    ``threshold`` copies were heard (the neighbourhood is then presumed
    not yet covered).
    """

    def __init__(self, threshold: int = 3,
                 assessment_delay_max: float = 0.5):
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1: {threshold}")
        if assessment_delay_max <= 0:
            raise ValueError("assessment_delay_max must be positive")
        super().__init__()
        self.threshold = int(threshold)
        self.assessment_delay_max = float(assessment_delay_max)
        self._copies: Dict[EventId, int] = {}

    def on_stop(self) -> None:
        """Crash/shutdown: also forget the pending copy counts."""
        super().on_stop()
        self._copies.clear()

    def _accept(self, event: Event, subscribed: bool, now: float) -> None:
        super()._accept(event, subscribed, now)
        self._copies[event.event_id] = 1
        self.host.schedule(
            self.host.rng.uniform(0.0, self.assessment_delay_max),
            self._assess, event)

    def _on_duplicate(self, event: Event) -> None:
        if event.event_id in self._copies:
            self._copies[event.event_id] += 1

    def _assess(self, event: Event) -> None:
        if self._copies.pop(event.event_id, 0) < self.threshold:
            self.forwarding.broadcast(event)


def make_gossip_flooding(config) -> GossipFlooding:
    """Registry factory for ``gossip-flooding``: ``p = 0.6``."""
    return GossipFlooding()


def make_counter_flooding(config) -> CounterFlooding:
    """Registry factory for ``counter-flooding``: ``C = 3``."""
    return CounterFlooding()
