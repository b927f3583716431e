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
interests* — storm schemes are routing-layer, not pub/sub-layer.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Set

from repro.core.base import PubSubProtocol
from repro.core.events import Event, EventId
from repro.core.topics import Topic, subscription_matches_event
from repro.net.messages import EventBatch, Message


class _OneShotRebroadcast(PubSubProtocol):
    """Shared machinery: deliver-once, forward-at-most-once."""

    def __init__(self):
        super().__init__()
        self._subscriptions: Set[Topic] = set()
        self._seen: Set[EventId] = set()
        self._running = False

    # -- application-facing API ----------------------------------------------

    @property
    def subscriptions(self) -> FrozenSet[Topic]:
        return frozenset(self._subscriptions)

    def subscribe(self, topic: Topic | str) -> None:
        self._subscriptions.add(Topic(topic))

    def unsubscribe(self, topic: Topic | str) -> None:
        self._subscriptions.discard(Topic(topic))

    def publish(self, event: Event) -> None:
        if self.host is None:
            raise RuntimeError("protocol is not attached to a host")
        self._seen.add(event.event_id)
        self._deliver_if_subscribed(event)
        self._broadcast(event)

    # -- lifecycle ----------------------------------------------------------------

    def on_start(self) -> None:
        self._running = True

    def on_stop(self) -> None:
        self._running = False
        self._seen.clear()

    # -- reception -------------------------------------------------------------------

    def on_message(self, message: Message) -> None:
        if not self._running or not isinstance(message, EventBatch):
            return
        for event in message.events:
            subscribed = subscription_matches_event(self._subscriptions,
                                                    event.topic)
            if not subscribed:
                self.counters.parasites_dropped += 1
            if event.event_id in self._seen:
                if subscribed:
                    self.counters.duplicates_dropped += 1
                self._on_duplicate(event)
                continue
            self._seen.add(event.event_id)
            if not event.is_valid(self.host.now):
                continue
            if subscribed:
                self._deliver_if_subscribed(event)
            self._on_first_copy(event)

    def _deliver_if_subscribed(self, event: Event) -> None:
        if subscription_matches_event(self._subscriptions, event.topic):
            self.counters.delivered_count += 1
            self.host.deliver(event)

    def _broadcast(self, event: Event) -> None:
        if not event.is_valid(self.host.now):
            return
        self.host.send(EventBatch(sender=self.host.id, events=(event,)))
        self.counters.batches_sent += 1
        self.counters.events_forwarded += 1

    # -- scheme hooks --------------------------------------------------------------------

    def _on_first_copy(self, event: Event) -> None:
        raise NotImplementedError

    def _on_duplicate(self, event: Event) -> None:
        """Counter-based scheme listens to duplicates; others ignore."""


class GossipFlooding(_OneShotRebroadcast):
    """The probabilistic broadcast-storm scheme: forward once w.p. ``p``.

    A short random delay decorrelates the forwarders that received the
    same broadcast (without it every forwarder transmits in the same
    instant and the copies collide).
    """

    def __init__(self, probability: float = 0.6,
                 forward_delay_max: float = 0.1):
        super().__init__()
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0,1]: {probability}")
        if forward_delay_max < 0:
            raise ValueError("forward_delay_max must be >= 0")
        self.probability = float(probability)
        self.forward_delay_max = float(forward_delay_max)

    def _on_first_copy(self, event: Event) -> None:
        if self.host.rng.random() >= self.probability:
            return
        delay = self.host.rng.uniform(0.0, self.forward_delay_max)
        self.host.schedule(delay, self._broadcast, event)


class CounterFlooding(_OneShotRebroadcast):
    """The counter-based broadcast-storm scheme.

    On the first copy, arm a random assessment delay; count further
    copies overheard meanwhile; at expiry rebroadcast only if fewer than
    ``threshold`` copies were heard (the neighbourhood is then presumed
    not yet covered).
    """

    def __init__(self, threshold: int = 3,
                 assessment_delay_max: float = 0.5):
        super().__init__()
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1: {threshold}")
        if assessment_delay_max <= 0:
            raise ValueError("assessment_delay_max must be positive")
        self.threshold = int(threshold)
        self.assessment_delay_max = float(assessment_delay_max)
        self._copies: Dict[EventId, int] = {}

    def on_stop(self) -> None:
        super().on_stop()
        self._copies.clear()

    def _on_first_copy(self, event: Event) -> None:
        self._copies[event.event_id] = 1
        delay = self.host.rng.uniform(0.0, self.assessment_delay_max)
        self.host.schedule(delay, self._assess, event)

    def _on_duplicate(self, event: Event) -> None:
        if event.event_id in self._copies:
            self._copies[event.event_id] += 1

    def _assess(self, event: Event) -> None:
        copies = self._copies.pop(event.event_id, 0)
        if copies < self.threshold:
            self._broadcast(event)


def make_gossip_flooding(config) -> GossipFlooding:
    """Registry factory for ``gossip-flooding``: reads
    ``gossip_probability``."""
    return GossipFlooding(probability=config.gossip_probability)


def make_counter_flooding(config) -> CounterFlooding:
    """Registry factory for ``counter-flooding``: reads
    ``counter_threshold``."""
    return CounterFlooding(threshold=config.counter_threshold)
