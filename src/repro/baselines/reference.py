"""Frozen pre-stack reference implementations, for paired verification.

The stack refactor rewrote :class:`repro.core.protocol.FrugalPubSub` and
the three Section 5.2 flooding baselines as compositions of the
:mod:`repro.core.stack` layers, with a hard contract: **bit-identical
behaviour** — same RNG draw order, same timer ordering, same summaries
to the last float.  This module keeps the original monolithic
implementations verbatim (only the counter fields moved to the unified
:class:`~repro.core.base.ProtocolCounters`, which draws nothing and
schedules nothing) so the contract stays *testable*:

* ``tests/test_stack_equivalence.py`` runs every scenario family with
  both implementations and asserts ``==`` on the summaries;
* the entries are registered **hidden** (``legacy-frugal``,
  ``legacy-simple-flooding``, ``legacy-interest-flooding``,
  ``legacy-neighbor-flooding``): any config can name them — including
  in parallel workers, which re-import this module — but protocol
  sweeps such as ``protocol-matrix`` do not pick them up.

Do not evolve these classes; they are a measurement standard, not a
surface for features.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set

from repro.core.base import PubSubProtocol
from repro.core.config import FrugalConfig
from repro.core.events import Event, EventId
from repro.core.gc import make_policy
from repro.core.tables import EventTable, NeighborhoodTable
from repro.core.topics import (Topic, subscription_matches_event,
                               subscriptions_related)
from repro.net.messages import EventBatch, EventIdList, Heartbeat, Message


class ReferenceFrugalPubSub(PubSubProtocol):
    """The pre-stack monolithic frugal protocol, frozen verbatim."""

    def __init__(self, config: Optional[FrugalConfig] = None):
        super().__init__()
        self.config = config or FrugalConfig()
        self._subscriptions: Set[Topic] = set()
        self.neighborhood = NeighborhoodTable(
            capacity=self.config.neighborhood_capacity)
        self.events: Optional[EventTable] = None   # built on attach (needs rng)
        self._running = False
        self._hb_delay = self.config.hb_delay
        self._hb_task = None
        self._ngc_task = None
        self._backoff_timer = None
        self._bo_delay: Optional[float] = None      # the paper's "BODelay"

    # -- lifecycle -----------------------------------------------------------------

    def attach(self, host) -> None:
        """Bind to a host and build the rng-backed event table."""
        super().attach(host)
        self.events = EventTable(
            capacity=self.config.event_table_capacity,
            policy=make_policy(self.config.eviction_policy),
            rng=host.rng)

    def on_start(self) -> None:
        """Boot: reset the heartbeat period and arm the tasks."""
        self._running = True
        self._hb_delay = min(self.config.hb_delay,
                             self.config.hb_upper_bound)
        self._update_tasks()

    def on_stop(self) -> None:
        """Crash/shutdown: stop tasks, lose all volatile state."""
        self._running = False
        self._stop_tasks()
        self._cancel_backoff()
        self.neighborhood = NeighborhoodTable(
            capacity=self.config.neighborhood_capacity)
        if self.host is not None:
            self.events = EventTable(
                capacity=self.config.event_table_capacity,
                policy=make_policy(self.config.eviction_policy),
                rng=self.host.rng)

    # -- application-facing API -------------------------------------------------------

    @property
    def subscriptions(self) -> FrozenSet[Topic]:
        """Current subscription set."""
        return frozenset(self._subscriptions)

    def subscribe(self, topic: Topic | str) -> None:
        """Register interest in ``topic`` and its subtopics (Fig. 5)."""
        self._subscriptions.add(Topic(topic))
        self._update_tasks()

    def unsubscribe(self, topic: Topic | str) -> None:
        """Drop a subscription; tasks stop when nothing is advertised."""
        self._subscriptions.discard(Topic(topic))
        self._update_tasks()

    def publish(self, event: Event) -> None:
        """Inject a locally produced event (Fig. 9, ``publish``)."""
        self._require_frugal_attached()
        now = self.host.now
        interested = self.neighborhood.interested_in(event.topic)
        if interested:
            neighbor_ids = tuple(self.neighborhood.ids())
            self.host.send(EventBatch(sender=self.host.id,
                                      events=(event,),
                                      neighbor_ids=neighbor_ids))
            self.counters.batches_sent += 1
            self.counters.events_forwarded += 1
            for nid in neighbor_ids:
                self.neighborhood.record_known_event(nid, event.event_id)
        row = self.events.store(event, now)
        if interested:
            row.forward_count += 1
        if not row.delivered:
            row.delivered = True
            self.counters.delivered_count += 1
            self.host.deliver(event)
        self._update_tasks()       # a pure publisher starts advertising now

    # -- network-facing API --------------------------------------------------------------

    def on_message(self, message: Message) -> None:
        """Dispatch a received frame by message kind."""
        if not self._running:
            return
        if isinstance(message, Heartbeat):
            self._on_heartbeat(message)
        elif isinstance(message, EventIdList):
            self._on_event_id_list(message)
        elif isinstance(message, EventBatch):
            self._on_event_batch(message)

    # -- phase 1: neighbourhood detection ---------------------------------------------------

    def advertised_topics(self) -> FrozenSet[Topic]:
        """Subscriptions plus the topics of own still-valid publications."""
        topics = set(self._subscriptions)
        if self.events is not None and self.host is not None:
            now = self.host.now
            own = self.host.id
            topics.update(
                row.topic for row in self.events
                if row.event_id.publisher == own and row.is_valid(now))
        return frozenset(topics)

    def _on_heartbeat(self, hb: Heartbeat) -> None:
        mine = self.advertised_topics()
        if mine and subscriptions_related(mine, hb.subscriptions):
            is_new = hb.sender not in self.neighborhood
            self.neighborhood.upsert(hb.sender, hb.subscriptions,
                                     hb.speed, self.host.now)
            if is_new:
                self._on_new_neighbor(hb.sender, hb.subscriptions)
        self._recompute_delays()

    def _on_new_neighbor(self, neighbor_id: int,
                         their_subs: FrozenSet[Topic]) -> None:
        if not self.config.announce_on_new_neighbor:
            self._retrieve_events_to_send()
            return
        ids = self.events.valid_ids_for(their_subs, self.host.now)
        self.host.send(EventIdList(sender=self.host.id,
                                   event_ids=tuple(ids)))
        self.counters.id_lists_sent += 1

    def _on_event_id_list(self, msg: EventIdList) -> None:
        if msg.sender not in self.neighborhood:
            return
        for event_id in msg.event_ids:
            self.neighborhood.record_known_event(msg.sender, event_id,
                                                 now=self.host.now)
        self._retrieve_events_to_send()

    def _recompute_delays(self) -> None:
        avg = self.neighborhood.average_speed(
            own_speed=self.host.current_speed())
        new_hb = self.config.adapted_hb_delay(avg, self._hb_delay)
        if new_hb != self._hb_delay:
            self._hb_delay = new_hb
            if self._hb_task is not None:
                self._hb_task.set_period(new_hb)
        if self._ngc_task is not None:
            self._ngc_task.set_period(self.config.ngc_delay(self._hb_delay))

    def _heartbeat_tick(self) -> None:
        topics = self.advertised_topics()
        if not topics:
            return
        speed = (self.host.current_speed()
                 if self.config.speed_in_heartbeats else None)
        self.host.send(Heartbeat(sender=self.host.id,
                                 subscriptions=topics,
                                 speed=speed))
        self.counters.heartbeats_sent += 1

    def _ngc_tick(self) -> None:
        self.neighborhood.collect(self.host.now,
                                  self.config.ngc_delay(self._hb_delay))

    # -- phase 2: dissemination ------------------------------------------------------------

    def _retrieve_events_to_send(self) -> List[EventId]:
        to_send = self._compute_events_to_send()
        if not to_send:
            return []
        delay = self.config.backoff_delay(self._hb_delay, len(to_send))
        if self._bo_delay is None:
            self._bo_delay = delay
        else:
            self._bo_delay = min(self._bo_delay, delay)
        if not self.config.use_backoff:
            self._on_backoff_expired()
            return to_send
        if self._backoff_timer is None or not self._backoff_timer.active:
            armed = self._bo_delay
            if self.config.backoff_jitter_frac > 0:
                armed *= 1.0 + self.host.rng.uniform(
                    0.0, self.config.backoff_jitter_frac)
            self._backoff_timer = self.host.schedule(
                armed, self._on_backoff_expired)
        return to_send

    def _compute_events_to_send(self) -> List[EventId]:
        now = self.host.now
        needed: Set[EventId] = set()
        valid_rows = self.events.valid_rows(now)
        if not valid_rows:
            return []
        for neighbor in self.neighborhood:
            for row in valid_rows:
                if row.event_id in needed:
                    continue
                if (subscription_matches_event(neighbor.subscriptions,
                                               row.topic)
                        and not neighbor.knows(row.event_id)):
                    needed.add(row.event_id)
        return sorted(needed)

    def _on_backoff_expired(self) -> None:
        self._bo_delay = None
        self._backoff_timer = None
        to_send = self._compute_events_to_send()
        if not to_send:
            return
        events = tuple(self.events.get(eid).event for eid in to_send)
        neighbor_ids = tuple(self.neighborhood.ids())
        self.host.send(EventBatch(sender=self.host.id, events=events,
                                  neighbor_ids=neighbor_ids))
        self.counters.batches_sent += 1
        self.counters.events_forwarded += len(events)
        for nid in neighbor_ids:
            for eid in to_send:
                self.neighborhood.record_known_event(nid, eid)
        for eid in to_send:
            self.events.increment_forward_count(eid)

    def _cancel_backoff(self) -> None:
        if self._backoff_timer is not None:
            self._backoff_timer.cancel()
            self._backoff_timer = None
        self._bo_delay = None

    def _on_event_batch(self, msg: EventBatch) -> None:
        now = self.host.now
        interested = False
        for event in msg.events:
            self.neighborhood.record_known_event(msg.sender, event.event_id)
            for nid in msg.neighbor_ids:
                if nid != self.host.id:
                    self.neighborhood.record_known_event(nid, event.event_id)
            if not subscription_matches_event(self.subscriptions,
                                              event.topic):
                self.counters.parasites_dropped += 1
                continue
            if event.event_id in self.events:
                self.counters.duplicates_dropped += 1
                continue
            if not event.is_valid(now):
                continue   # expired in flight; of no use to anyone
            interested = True
            if self.config.backoff_suppression:
                self._cancel_backoff()
            row = self.events.store(event, now)
            if not row.delivered:
                row.delivered = True
                self.counters.delivered_count += 1
                self.host.deliver(event)
        if interested:
            self._retrieve_events_to_send()

    # -- phase 3: task management -------------------------------------------------------------

    def _update_tasks(self) -> None:
        if not self._running or self.host is None:
            return
        if self.advertised_topics():
            if self._hb_task is None or not self._hb_task.running:
                self._hb_task = self.host.periodic(
                    self._hb_delay, self._heartbeat_tick,
                    jitter=self.config.hb_jitter)
            if self._ngc_task is None or not self._ngc_task.running:
                self._ngc_task = self.host.periodic(
                    self.config.ngc_delay(self._hb_delay), self._ngc_tick)
        else:
            self._stop_tasks()

    def _stop_tasks(self) -> None:
        if self._hb_task is not None:
            self._hb_task.stop()
            self._hb_task = None
        if self._ngc_task is not None:
            self._ngc_task.stop()
            self._ngc_task = None

    # -- misc ---------------------------------------------------------------------------------

    def _require_frugal_attached(self) -> None:
        if self.host is None or self.events is None:
            raise RuntimeError("protocol is not attached to a host")

    @property
    def hb_delay(self) -> float:
        """Current (possibly adapted) heartbeat period [s]."""
        return self._hb_delay

    @property
    def backoff_pending(self) -> bool:
        """Is a back-off currently armed?"""
        return self._backoff_timer is not None and self._backoff_timer.active


class ReferenceFloodingProtocol(PubSubProtocol):
    """The pre-stack monolithic flooding base class, frozen verbatim."""

    #: Rebroadcast period in seconds (the paper's "every one second").
    flood_period: float = 1.0

    def __init__(self, flood_period: float = 1.0,
                 flood_jitter: float = 0.05):
        super().__init__()
        if flood_period <= 0:
            raise ValueError(f"flood_period must be positive: {flood_period}")
        self.flood_period = float(flood_period)
        self.flood_jitter = float(flood_jitter)
        self._subscriptions: Set[Topic] = set()
        self._store: Dict[EventId, Event] = {}
        self._delivered: Set[EventId] = set()
        self._flood_task = None
        self._running = False

    # -- application-facing API ------------------------------------------------

    @property
    def subscriptions(self) -> FrozenSet[Topic]:
        """Current subscription set."""
        return frozenset(self._subscriptions)

    def subscribe(self, topic: Topic | str) -> None:
        """Register interest in ``topic`` and its subtopics."""
        self._subscriptions.add(Topic(topic))

    def unsubscribe(self, topic: Topic | str) -> None:
        """Drop a subscription."""
        self._subscriptions.discard(Topic(topic))

    def publish(self, event: Event) -> None:
        """Store, deliver locally and flood immediately."""
        if self.host is None:
            raise RuntimeError("protocol is not attached to a host")
        self._store[event.event_id] = event
        self._deliver_if_subscribed(event)
        self._flood_now([event])

    # -- lifecycle -----------------------------------------------------------------

    def on_start(self) -> None:
        """Boot: arm the periodic flood task."""
        self._running = True
        self._flood_task = self.host.periodic(
            self.flood_period, self._flood_tick, jitter=self.flood_jitter)

    def on_stop(self) -> None:
        """Crash/shutdown: stop flooding, lose the store."""
        self._running = False
        if self._flood_task is not None:
            self._flood_task.stop()
            self._flood_task = None
        self._store.clear()
        self._delivered.clear()

    # -- network-facing API ------------------------------------------------------------

    def on_message(self, message: Message) -> None:
        """Dispatch a received frame by message kind."""
        if not self._running:
            return
        if isinstance(message, EventBatch):
            self._on_event_batch(message)
        elif isinstance(message, Heartbeat):
            self._on_heartbeat(message)

    def _on_heartbeat(self, hb: Heartbeat) -> None:
        """Only the neighbours'-interests variant listens to heartbeats."""

    def _on_event_batch(self, msg: EventBatch) -> None:
        now = self.host.now
        for event in msg.events:
            subscribed = subscription_matches_event(self._subscriptions,
                                                    event.topic)
            if not subscribed:
                self.counters.parasites_dropped += 1
            if event.event_id in self._store:
                if subscribed:
                    self.counters.duplicates_dropped += 1
                continue
            if not event.is_valid(now):
                continue
            if self._should_store(event, subscribed):
                self._store[event.event_id] = event
            if subscribed:
                self._deliver_if_subscribed(event)

    # -- flooding ------------------------------------------------------------------------

    def _flood_tick(self) -> None:
        now = self.host.now
        expired = [eid for eid, e in self._store.items()
                   if not e.is_valid(now)]
        for eid in expired:
            del self._store[eid]
        outgoing = [e for e in self._store.values() if self._should_flood(e)]
        if outgoing:
            self._flood_now(outgoing)

    def _flood_now(self, events: List[Event]) -> None:
        self.host.send(EventBatch(sender=self.host.id,
                                  events=tuple(events)))
        self.counters.batches_sent += 1
        self.counters.events_forwarded += len(events)

    def _deliver_if_subscribed(self, event: Event) -> None:
        if event.event_id in self._delivered:
            return
        if subscription_matches_event(self._subscriptions, event.topic):
            self._delivered.add(event.event_id)
            self.counters.delivered_count += 1
            self.host.deliver(event)

    # -- variant hooks -----------------------------------------------------------------------

    @abc.abstractmethod
    def _should_store(self, event: Event, subscribed: bool) -> bool:
        """Keep this received event for future re-flooding?"""

    @abc.abstractmethod
    def _should_flood(self, event: Event) -> bool:
        """Include this stored event in the next flood tick?"""


class ReferenceSimpleFlooding(ReferenceFloodingProtocol):
    """Pre-stack baseline (1): flood everything, interests ignored."""

    def _should_store(self, event: Event, subscribed: bool) -> bool:
        return True

    def _should_flood(self, event: Event) -> bool:
        return True


class ReferenceInterestAwareFlooding(ReferenceFloodingProtocol):
    """Pre-stack baseline (2): flood only subscribed events."""

    def _should_store(self, event: Event, subscribed: bool) -> bool:
        return subscribed

    def _should_flood(self, event: Event) -> bool:
        return True   # everything stored passed the interest filter


@dataclass
class _ReferenceNeighborInterests:
    subscriptions: FrozenSet[Topic]
    heard_at: float


class ReferenceNeighborInterestFlooding(ReferenceFloodingProtocol):
    """Pre-stack baseline (3): flood while an interested neighbour exists."""

    def __init__(self, flood_period: float = 1.0,
                 flood_jitter: float = 0.05,
                 heartbeat_period: float = 1.0,
                 neighbor_ttl: float = 2.5):
        super().__init__(flood_period=flood_period, flood_jitter=flood_jitter)
        if heartbeat_period <= 0:
            raise ValueError("heartbeat_period must be positive")
        if neighbor_ttl <= 0:
            raise ValueError("neighbor_ttl must be positive")
        self.heartbeat_period = float(heartbeat_period)
        self.neighbor_ttl = float(neighbor_ttl)
        self._neighbors: Dict[int, _ReferenceNeighborInterests] = {}
        self._hb_task = None

    # -- lifecycle -------------------------------------------------------------

    def on_start(self) -> None:
        """Boot: flood task first, then the heartbeat task."""
        super().on_start()
        self._hb_task = self.host.periodic(
            self.heartbeat_period, self._heartbeat_tick,
            jitter=self.flood_jitter)

    def on_stop(self) -> None:
        """Crash/shutdown: also stop beaconing, forget neighbours."""
        super().on_stop()
        if self._hb_task is not None:
            self._hb_task.stop()
            self._hb_task = None
        self._neighbors.clear()

    # -- neighbourhood tracking ---------------------------------------------------

    def _heartbeat_tick(self) -> None:
        self.host.send(Heartbeat(sender=self.host.id,
                                 subscriptions=self.subscriptions,
                                 speed=None))
        self.counters.heartbeats_sent += 1

    def _on_heartbeat(self, hb: Heartbeat) -> None:
        self._neighbors[hb.sender] = _ReferenceNeighborInterests(
            subscriptions=hb.subscriptions, heard_at=self.host.now)

    def _prune_neighbors(self) -> None:
        horizon = self.host.now - self.neighbor_ttl
        stale = [nid for nid, info in self._neighbors.items()
                 if info.heard_at < horizon]
        for nid in stale:
            del self._neighbors[nid]

    def _neighbor_interested(self, event: Event) -> bool:
        return any(
            subscription_matches_event(info.subscriptions, event.topic)
            for info in self._neighbors.values())

    # -- variant hooks ----------------------------------------------------------------

    def _should_store(self, event: Event, subscribed: bool) -> bool:
        return subscribed

    def _should_flood(self, event: Event) -> bool:
        self._prune_neighbors()
        return self._neighbor_interested(event)


def make_legacy_frugal(config) -> ReferenceFrugalPubSub:
    """Registry factory for ``legacy-frugal``: reads ``config.frugal``."""
    return ReferenceFrugalPubSub(config.frugal)


def make_legacy_simple_flooding(config) -> ReferenceSimpleFlooding:
    """Registry factory for ``legacy-simple-flooding``."""
    return ReferenceSimpleFlooding(flood_period=config.flood_period)


def make_legacy_interest_flooding(config) -> ReferenceInterestAwareFlooding:
    """Registry factory for ``legacy-interest-flooding``."""
    return ReferenceInterestAwareFlooding(flood_period=config.flood_period)


def make_legacy_neighbor_flooding(config
                                  ) -> ReferenceNeighborInterestFlooding:
    """Registry factory for ``legacy-neighbor-flooding``."""
    return ReferenceNeighborInterestFlooding(
        flood_period=config.flood_period)
