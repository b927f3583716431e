"""The stack's forwarding layer: when held events go back on the air.

Four policies cover every protocol in the repository:

* :class:`BackoffForwarding` — the frugal protocol's phase 2 (paper
  Figs. 7 and 9): compute what some matching neighbour lacks, arm a
  back-off inversely proportional to how much there is to offer, and on
  expiry *recompute* and broadcast; overhearing an event of interest
  cancels the pending back-off (suppression).
* :class:`PeriodicFloodForwarding` — the Section 5.2 comparators: a
  fixed-period tick that expires stale events and rebroadcasts whatever
  the variant's ``should_flood`` predicate keeps.
* :class:`GossipForwarding` — lpbcast-style rounds for the gossip
  baseline: each period, with a configurable probability, rebroadcast
  the newest events of a bounded digest buffer.
* :class:`OneShotForwarding` — the broadcast-storm schemes: no task of
  its own; the scheme decides once per event whether (and when) to
  rebroadcast it.

Each policy holds the stack's shared counters and writes
``batches_sent`` / ``events_forwarded``; randomness (back-off jitter,
gossip coins) comes exclusively from the host's node-local rng stream,
which is what keeps every composition seed-deterministic.  All four
share one wiring (:class:`_Forwarding`): bound to the host and the
stack's store on attach, started and stopped with the stack.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Set, Tuple

from repro.core.base import Host, ProtocolCounters
from repro.core.config import BACKOFF_JITTER_FRAC, FrugalConfig
from repro.core.events import Event, EventId
from repro.core.stack.membership import HeartbeatMembership
from repro.core.stack.store import EventStore
from repro.core.topics import entitled
from repro.net.messages import EventBatch


class _Forwarding:
    """The wiring every forwarding policy shares."""

    def __init__(self, counters: ProtocolCounters):
        self.counters = counters
        self._host: Optional[Host] = None
        self._store: Optional[EventStore] = None

    def attach(self, host: Host, store: Optional[EventStore]) -> None:
        """Bind the layer to the hosting node and the stack's store."""
        self._host = host
        self._store = store

    def detach(self) -> None:
        """Drop the host/store bindings (stack detach; stop first)."""
        self._host = None
        self._store = None

    def start(self) -> None:
        """Arm the policy's own task, if it has one."""

    def stop(self) -> None:
        """Cancel whatever the policy has pending."""


class _PeriodicForwarding(_Forwarding):
    """A policy driven by one jittered periodic task (``_tick``)."""

    def __init__(self, counters: ProtocolCounters, period: float,
                 jitter: float, what: str):
        if period <= 0:
            raise ValueError(f"{what} must be positive: {period}")
        super().__init__(counters)
        self.period = float(period)
        self.jitter = float(jitter)
        self._task = None

    def start(self) -> None:
        """Arm the periodic task."""
        self._task = self._host.periodic(
            self.period, self._tick, jitter=self.jitter)

    def stop(self) -> None:
        """Stop the periodic task."""
        if self._task is not None:
            self._task.stop()
            self._task = None


class BackoffForwarding(_Forwarding):
    """The frugal contention back-off (paper Figs. 7-9).

    Reads the membership layer's table (who lacks what) and the store
    (what is held and valid); the stack triggers :meth:`retrieve` on id
    exchanges and interesting receptions, and :meth:`cancel` when an
    overheard event makes a pending send redundant.
    """

    def __init__(self, config: FrugalConfig, counters: ProtocolCounters,
                 membership: HeartbeatMembership):
        super().__init__(counters)
        self.config = config
        self.membership = membership
        self._timer = None
        self._bo_delay: Optional[float] = None      # the paper's "BODelay"

    def stop(self) -> None:
        """Crash/shutdown: drop the pending back-off."""
        self.cancel()

    # -- the back-off ----------------------------------------------------------------

    def retrieve(self) -> List[EventId]:
        """Fig. 7: compute what some neighbour needs; arm the back-off.

        Returns the computed id list (the send itself happens at
        back-off expiry on a *recomputed* list, per the paper's prose).
        """
        to_send = self.compute_events_to_send()
        if not to_send:
            return []
        delay = self.config.backoff_delay(self.membership.hb_delay,
                                          len(to_send))
        if self._bo_delay is None:
            self._bo_delay = delay
        else:
            self._bo_delay = min(self._bo_delay, delay)
        if not self.config.use_backoff:
            self._on_backoff_expired()
            return to_send
        if self._timer is None or not self._timer.active:
            armed = self._bo_delay * (1.0 + self._host.rng.uniform(
                0.0, BACKOFF_JITTER_FRAC))
            self._timer = self._host.schedule(
                armed, self._on_backoff_expired)
        return to_send

    def compute_events_to_send(self) -> List[EventId]:
        """Ids of held, valid events some matching neighbour lacks."""
        now = self._host.now
        needed: Set[EventId] = set()
        valid_rows = self._store.valid_rows(now)
        if not valid_rows:
            return []
        for neighbor in self.membership.table:
            for row in valid_rows:
                if row.event_id in needed:
                    continue
                if (entitled(neighbor.subscriptions, row.topic)
                        and not neighbor.knows(row.event_id)):
                    needed.add(row.event_id)
        return sorted(needed)

    def _on_backoff_expired(self) -> None:
        """Fig. 9 lines 2-14: recompute, send, account."""
        self._bo_delay = None
        self._timer = None
        to_send = self.compute_events_to_send()
        if not to_send:
            return
        events = tuple(self._store.get(eid).event for eid in to_send)
        self.send_batch(events)
        for eid in to_send:
            self._store.increment_forward_count(eid)

    def send_batch(self, events: Tuple[Event, ...]) -> Tuple[int, ...]:
        """Broadcast ``events`` with the interested-neighbour id list.

        Every attached neighbour id is recorded as now knowing every
        carried event (the overhearing-based view update of Fig. 9);
        returns the id list so callers can do their own bookkeeping.
        """
        neighbor_ids = tuple(self.membership.table.ids())
        self._host.send(EventBatch(sender=self._host.id, events=events,
                                   neighbor_ids=neighbor_ids))
        self.counters.batches_sent += 1
        self.counters.events_forwarded += len(events)
        for nid in neighbor_ids:
            for event in events:
                self.membership.table.record_known_event(nid,
                                                         event.event_id)
        return neighbor_ids

    def cancel(self) -> None:
        """Suppress the pending send (overheard, or crashing)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._bo_delay = None

    # -- introspection ---------------------------------------------------------------

    @property
    def pending(self) -> bool:
        """Is a back-off currently armed?"""
        return self._timer is not None and self._timer.active

    @property
    def timer(self):
        """The armed back-off timer handle, or ``None``."""
        return self._timer


class PeriodicFloodForwarding(_PeriodicForwarding):
    """Fixed-period rebroadcast (the Section 5.2 flooding comparators).

    Each tick expires stale events from the store for good, then floods
    whatever the variant's ``should_flood`` predicate keeps.
    """

    def __init__(self, counters: ProtocolCounters, period: float,
                 jitter: float, should_flood: Callable[[Event], bool]):
        super().__init__(counters, period, jitter, "flood_period")
        self._should_flood = should_flood

    def _tick(self) -> None:
        now = self._host.now
        # Expired events leave the store for good (they are of no use).
        self._store.purge_expired(now)
        outgoing = [row.event for row in self._store
                    if self._should_flood(row.event)]
        if outgoing:
            self.flood_now(outgoing)

    def flood_now(self, events: Sequence[Event]) -> None:
        """Broadcast ``events`` as one batch (no neighbour id list)."""
        self._host.send(EventBatch(sender=self._host.id,
                                   events=tuple(events)))
        self.counters.batches_sent += 1
        self.counters.events_forwarded += len(events)


class GossipForwarding(_PeriodicForwarding):
    """lpbcast-style gossip rounds over a bounded digest buffer.

    Each period the layer expires stale buffer entries, then — with
    probability ``forward_probability``, drawn from the host's rng —
    rebroadcasts the *newest* ``fanout`` buffered events.  The newest
    entries are the ones the neighbourhood is least likely to have
    heard, which is what lpbcast's buffer truncation optimises for too.
    """

    def __init__(self, counters: ProtocolCounters, period: float,
                 jitter: float, forward_probability: float, fanout: int):
        super().__init__(counters, period, jitter, "gossip period")
        if not 0.0 <= forward_probability <= 1.0:
            raise ValueError(f"forward_probability must be in [0,1]: "
                             f"{forward_probability}")
        if fanout < 1:
            raise ValueError(f"fanout must be >= 1: {fanout}")
        self.forward_probability = float(forward_probability)
        self.fanout = int(fanout)

    def _tick(self) -> None:
        now = self._host.now
        self._store.purge_expired(now)
        rows = list(self._store)
        if not rows:
            return
        # One coin per non-empty round, from the node's dedicated
        # stream: reruns of the same seed replay the exact coin
        # sequence, which is what makes gossip results reproducible.
        if self._host.rng.random() >= self.forward_probability:
            return
        newest = rows[-self.fanout:]
        self.broadcast(tuple(row.event for row in newest))

    def broadcast(self, events: Tuple[Event, ...]) -> None:
        """Broadcast ``events`` as one batch and account for it."""
        self._host.send(EventBatch(sender=self._host.id, events=events))
        self.counters.batches_sent += 1
        self.counters.events_forwarded += len(events)


class OneShotForwarding(_Forwarding):
    """Forward-at-most-once rebroadcast (the broadcast-storm schemes).

    Arms nothing itself: the scheme schedules :meth:`broadcast` through
    the host, whose crash path cancels what is still pending.
    """

    def broadcast(self, event: Event) -> None:
        """Send ``event`` alone, unless it expired meanwhile."""
        if not event.is_valid(self._host.now):
            return
        self._host.send(EventBatch(sender=self._host.id, events=(event,)))
        self.counters.batches_sent += 1
        self.counters.events_forwarded += 1
