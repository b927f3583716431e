"""Events: the unit of dissemination (paper Section 2).

Every event has a globally unique identifier, a topic, and a *validity
period* after which the information it carries is of no use and it may be
garbage collected anywhere in the system.  The protocol additionally
tracks, per stored copy, a *forward counter* — the number of times this
process transmitted the event — used by the Equation 1 eviction policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple, Optional

from repro.core.topics import Topic


class EventId(NamedTuple):
    """Globally unique event identifier ``(publisher id, sequence no)``.

    The paper models ids as opaque 128-bit values; structuring them as
    (publisher, seq) keeps generation coordination-free while preserving
    uniqueness.  The wire-size model still charges the paper's 128 bits.

    A plain tuple, so the per-reception set and dict look-ups hash and
    compare it in C.  Its hash is ``hash((publisher, seq))``, which does
    not depend on ``PYTHONHASHSEED``, so a set of ids iterates in one
    order in every process.
    """

    publisher: int
    seq: int

    def __str__(self) -> str:
        return f"{self.publisher}:{self.seq}"


@dataclass(frozen=True, slots=True)
class Event:
    """An immutable published event.

    ``validity`` is the *period* in seconds (what the paper calls
    ``val(e)``); ``published_at`` anchors it in simulation time, so the
    absolute expiry instant is :attr:`expires_at`.
    """

    event_id: EventId
    topic: Topic
    validity: float
    published_at: float
    payload_bytes: int = 400           # the paper's default event size
    payload: Any = None                # application data (opaque)

    def __post_init__(self) -> None:
        if self.validity <= 0:
            raise ValueError(f"validity must be positive: {self.validity}")
        if self.payload_bytes < 0:
            raise ValueError("payload_bytes must be >= 0")

    @property
    def expires_at(self) -> float:
        return self.published_at + self.validity

    def is_valid(self, now: float) -> bool:
        """Still within its validity period at time ``now``?"""
        return now < self.expires_at

    def remaining_validity(self, now: float) -> float:
        return max(0.0, self.expires_at - now)

    def __str__(self) -> str:
        return (f"e[{self.event_id}]@{self.topic} "
                f"val={self.validity:g}s")


@dataclass(slots=True)
class StoredEvent:
    """A process-local copy of an event plus its forward counter.

    This is the event-table row of the paper's Fig. 3 (id, validity,
    counter, topic, data).
    """

    event: Event
    stored_at: float
    forward_count: int = 0
    delivered: bool = False

    @property
    def event_id(self) -> EventId:
        return self.event.event_id

    @property
    def topic(self) -> Topic:
        return self.event.topic

    def is_valid(self, now: float) -> bool:
        return self.event.is_valid(now)


class EventFactory:
    """Mint events with process-locally increasing sequence numbers."""

    def __init__(self, publisher_id: int):
        self.publisher_id = publisher_id
        self._next_seq = 0

    def create(self, topic: Topic | str, validity: float, now: float,
               payload_bytes: int = 400,
               payload: Optional[Any] = None) -> Event:
        event = Event(event_id=EventId(self.publisher_id, self._next_seq),
                      topic=Topic(topic), validity=validity,
                      published_at=now, payload_bytes=payload_bytes,
                      payload=payload)
        self._next_seq += 1
        return event
