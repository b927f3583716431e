"""The two memory-bounded data structures of Section 4.1.

* :class:`NeighborhoodTable` — one row per *matching* one-hop neighbour
  (Fig. 2): identifier, subscriptions, the event ids the neighbour is
  presumed to hold, its advertised speed and the row's store time (used by
  the periodic neighbourhood GC).
* :class:`EventTable` — the bounded store of received/published events
  (Fig. 3): each row is a :class:`~repro.core.events.StoredEvent` carrying
  the validity period and the forward counter.  When full, eviction first
  removes any expired event, then defers to the configured
  :class:`~repro.core.gc.EvictionPolicy` (Equation 1 by default).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Dict, FrozenSet, Iterable, Iterator, KeysView, List,
                    Optional, Set)

from repro.core.events import Event, EventId, StoredEvent
from repro.core.gc import EvictionPolicy, ValidityForwardPolicy
from repro.core.topics import Topic, entitled


class EventTableFull(RuntimeError):
    """Raised when an event cannot be stored even after eviction.

    Only possible with a capacity of zero usable slots, which configuration
    validation prevents; surfacing it keeps the invariant explicit.
    """


@dataclass
class NeighborEntry:
    """One row of the neighbourhood table (paper Fig. 2)."""

    node_id: int
    subscriptions: FrozenSet[Topic]
    speed: Optional[float]
    store_time: float
    known_event_ids: Set[EventId] = field(default_factory=set)

    def knows(self, event_id: EventId) -> bool:
        """Is the neighbour presumed to already hold this event?"""
        return event_id in self.known_event_ids

    def is_stale(self, now: float, ngc_delay: float) -> bool:
        """GC predicate (Fig. 10 line 4): entry older than ``ngc_delay``."""
        return now - ngc_delay > self.store_time


class NeighborhoodTable:
    """Dynamic one-hop neighbourhood view, restricted to matching neighbours.

    The table is updated on every received heartbeat, event-id list and
    event batch, and periodically garbage collected.  Its size is naturally
    bounded by the number of simultaneous radio neighbours; ``capacity``
    additionally enforces the paper's footnote-5 hard bound ("the maximum
    number of neighbors a process can handle") by evicting the stalest row
    when a new neighbour arrives at a full table.

    ``speed_generation`` counts the mutations that can change
    :meth:`average_speed`: a row added, a row removed (``remove``,
    ``clear``, capacity eviction, a non-empty ``collect``) or a row
    refreshed with a *different* speed.  While it stands still the mean
    is the one last computed, which lets the membership layer skip the
    Fig. 8 recomputation on a reception that changed nothing.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None: {capacity}")
        self.capacity = capacity
        self._entries: Dict[int, NeighborEntry] = {}
        self.speed_generation = 0

    # -- container protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._entries

    def __iter__(self) -> Iterator[NeighborEntry]:
        return iter(self._entries.values())

    def get(self, node_id: int) -> Optional[NeighborEntry]:
        return self._entries.get(node_id)

    def ids(self) -> List[int]:
        return sorted(self._entries)

    # -- updates (paper's updateNeighborInfo / updateNeighborEventInfo) --------

    def upsert(self, node_id: int, subscriptions: Iterable[Topic],
               speed: Optional[float], now: float) -> NeighborEntry:
        """Insert a new neighbour or refresh an existing row.

        Refreshing preserves the accumulated ``known_event_ids`` — losing
        them on every heartbeat would reintroduce the duplicate sends the
        id-exchange exists to avoid.
        """
        subs = frozenset(subscriptions)
        entry = self._entries.get(node_id)
        if entry is None:
            if (self.capacity is not None
                    and len(self._entries) >= self.capacity):
                self._evict_stalest()
            entry = NeighborEntry(node_id=node_id, subscriptions=subs,
                                  speed=speed, store_time=now)
            self._entries[node_id] = entry
            self.speed_generation += 1
        else:
            entry.subscriptions = subs
            if entry.speed != speed:
                entry.speed = speed
                self.speed_generation += 1
            entry.store_time = now
        return entry

    def record_known_event(self, node_id: int, event_id: EventId,
                           now: Optional[float] = None) -> None:
        """Mark that ``node_id`` is presumed to hold ``event_id``.

        Unknown neighbours are ignored (the paper only tracks matching
        neighbours; an id heard from a non-matching process carries no
        actionable information).
        """
        entry = self._entries.get(node_id)
        if entry is None:
            return
        entry.known_event_ids.add(event_id)
        if now is not None:
            entry.store_time = now

    def remove(self, node_id: int) -> None:
        if self._entries.pop(node_id, None) is not None:
            self.speed_generation += 1

    def clear(self) -> None:
        """Drop every row (crash semantics: the view is volatile state).

        In-place so long-lived references — the stack layers hold the
        table across crash/recover cycles — stay valid; the configured
        ``capacity`` is preserved.
        """
        self._entries.clear()
        self.speed_generation += 1

    def _evict_stalest(self) -> None:
        """Make room for a fresh neighbour: the least recently heard row
        is the least likely to still be in radio range."""
        stalest = min(self._entries.values(), key=lambda e: e.store_time)
        del self._entries[stalest.node_id]
        self.speed_generation += 1

    # -- queries ------------------------------------------------------------------

    def average_speed(self, own_speed: Optional[float] = None
                      ) -> Optional[float]:
        """Mean advertised speed of the neighbourhood (plus ``own_speed``).

        Returns ``None`` when no process contributed a speed — the
        adaptive-heartbeat rule then leaves the period unchanged.

        Always a full pass in row order, never a running sum: the order
        of the float additions is part of the pinned golden digests.
        """
        speeds = [e.speed for e in self._entries.values()
                  if e.speed is not None]
        if own_speed is not None:
            speeds.append(own_speed)
        if not speeds:
            return None
        return sum(speeds) / len(speeds)

    def interested_in(self, topic: Topic) -> List[NeighborEntry]:
        """Neighbours whose subscriptions entitle them to ``topic``."""
        return [e for e in self._entries.values()
                if entitled(e.subscriptions, topic)]

    # -- garbage collection ----------------------------------------------------------

    def collect(self, now: float, ngc_delay: float) -> List[int]:
        """Drop stale rows; returns the removed neighbour ids (Fig. 10)."""
        stale = [nid for nid, e in self._entries.items()
                 if e.is_stale(now, ngc_delay)]
        for nid in stale:
            del self._entries[nid]
        if stale:
            self.speed_generation += 1
        return stale


class EventTable:
    """Bounded per-process event store (paper Fig. 3).

    Rows are kept per event id; the table never stores two copies of the
    same event.  ``capacity=None`` disables the bound (handy in tests).

    ``generation`` counts row-set mutations — every path that adds or
    removes a row (``store``, eviction, ``remove``, ``clear``,
    ``purge_expired``) bumps it — so a value derived from the set of held
    events stays good for as long as the generation stands still.
    """

    def __init__(self, capacity: Optional[int] = None,
                 policy: Optional[EvictionPolicy] = None,
                 rng=None):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None: {capacity}")
        self.capacity = capacity
        self.policy = policy or ValidityForwardPolicy()
        self._rng = rng
        self._rows: Dict[EventId, StoredEvent] = {}
        #: A live view of the held ids: ``event_id in table.ids`` is the
        #: membership test of ``in table``, done in C.
        self.ids: KeysView[EventId] = self._rows.keys()
        self.generation = 0
        self.evictions_expired = 0
        self.evictions_policy = 0

    # -- container protocol ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, event_id: EventId) -> bool:
        return event_id in self._rows

    def __iter__(self) -> Iterator[StoredEvent]:
        return iter(self._rows.values())

    def get(self, event_id: EventId) -> Optional[StoredEvent]:
        return self._rows.get(event_id)

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self._rows) >= self.capacity

    # -- storing --------------------------------------------------------------------

    def store(self, event: Event, now: float) -> StoredEvent:
        """Store ``event``, evicting per Section 4.4 when full.

        Storing an already present event returns the existing row
        unchanged (the protocol checks membership first; this keeps the
        operation idempotent anyway).
        """
        existing = self._rows.get(event.event_id)
        if existing is not None:
            return existing
        if self.is_full:
            self._evict_one(now)
        if self.is_full:                      # pragma: no cover - defensive
            raise EventTableFull(
                f"cannot store {event.event_id}: table stuck at capacity "
                f"{self.capacity}")
        row = StoredEvent(event=event, stored_at=now)
        self._rows[event.event_id] = row
        self.generation += 1
        return row

    def _evict_one(self, now: float) -> None:
        """Prefer any expired event; else ask the policy (Equation 1)."""
        for event_id, row in self._rows.items():
            if not row.is_valid(now):
                del self._rows[event_id]
                self.generation += 1
                self.evictions_expired += 1
                return
        victim = self.policy.select_victim(self._rows.values(), now,
                                           rng=self._rng)
        if victim is not None:
            del self._rows[victim.event_id]
            self.generation += 1
            self.evictions_policy += 1

    def remove(self, event_id: EventId) -> None:
        if self._rows.pop(event_id, None) is not None:
            self.generation += 1

    def clear(self) -> None:
        """Drop every row and zero the eviction tallies (crash semantics).

        Equivalent to building a fresh table with the same capacity,
        policy and rng — which is exactly what the pre-stack protocol did
        on ``on_stop`` — but in place, so stack layers can keep their
        reference across crash/recover cycles.
        """
        self._rows.clear()
        self.generation += 1
        self.evictions_expired = 0
        self.evictions_policy = 0

    # -- queries ----------------------------------------------------------------------

    def valid_rows(self, now: float) -> List[StoredEvent]:
        """All rows whose event is still within its validity period."""
        return [row for row in self._rows.values() if row.is_valid(now)]

    def valid_ids_for(self, subscriptions: Iterable[Topic],
                      now: float) -> List[EventId]:
        """The paper's ``getEventsIDs``: ids of still-valid held events
        whose topic is related to any of ``subscriptions``.

        The relation is symmetric (ancestor in either direction) so that
        the Fig. 1 exchange works in both directions: p2 (subscribed to the
        subtopic) announces its events to p1 (subscribed to the
        super-topic) *and* vice versa.
        """
        subs = tuple(subscriptions)
        out = [row.event_id for row in self._rows.values()
               if row.is_valid(now)
               and any(s.related_to(row.topic) for s in subs)]
        out.sort()
        return out

    def purge_expired(self, now: float) -> List[EventId]:
        """Eagerly drop expired rows; returns the removed ids.

        The paper's *frugal* protocol only collects lazily (on insertion
        into a full table) and never calls this.  The periodic
        forwarding layers (flooding tick, gossip round — see
        :mod:`repro.core.stack.forwarding`) do call it every period:
        their store semantics have always been expire-on-tick.
        """
        dead = [eid for eid, row in self._rows.items()
                if not row.is_valid(now)]
        for eid in dead:
            del self._rows[eid]
        if dead:
            self.generation += 1
        return dead

    def increment_forward_count(self, event_id: EventId) -> None:
        row = self._rows.get(event_id)
        if row is not None:
            row.forward_count += 1
