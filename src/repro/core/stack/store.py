"""The stack's store layer: what a process holds, and for how long.

A thin composition-facing veneer over :class:`repro.core.tables.EventTable`
(the paper's Fig. 3 bounded store).  The base table already implements
validity expiry, expired-first eviction and the pluggable Equation 1 /
FIFO / random policies of :mod:`repro.core.gc`; this layer adds the named
constructors each protocol stack uses:

* :meth:`EventStore.from_config` — the frugal protocol's bounded table
  (capacity and eviction policy from a :class:`FrugalConfig`),
* :meth:`EventStore.unbounded` — the flooding baselines' natural-cost
  store (memory thrift is precisely what the frugal protocol adds),
* :meth:`EventStore.bounded_fifo` — the gossip baseline's bounded digest
  buffer (expired events leave first, then the oldest entry).
"""

from __future__ import annotations

from typing import Optional, Set

from repro.core.base import Host
from repro.core.config import FrugalConfig
from repro.core.events import EventId
from repro.core.gc import FifoPolicy, make_policy
from repro.core.tables import EventTable


class EventStore(EventTable):
    """An :class:`EventTable` with stack-composition constructors."""

    @classmethod
    def from_config(cls, config: FrugalConfig, rng=None) -> "EventStore":
        """The frugal protocol's store: bounded, policy-evicted.

        ``rng`` is the stream the ``random`` eviction policy draws from;
        :meth:`attach` sets it to the host's node-local stream.
        """
        return cls(capacity=config.event_table_capacity,
                   policy=make_policy(config.eviction_policy),
                   rng=rng)

    @classmethod
    def unbounded(cls) -> "EventStore":
        """A flooder's store: unbounded, expiry is the only exit."""
        return cls(capacity=None)

    @classmethod
    def bounded_fifo(cls, capacity: Optional[int]) -> "EventStore":
        """A bounded digest buffer: expired-first, then oldest-first."""
        return cls(capacity=capacity, policy=FifoPolicy())

    def attach(self, host: Host) -> None:
        """Start empty on ``host``, evicting with its node-local rng."""
        self.clear()
        self._rng = host.rng

    def event_ids(self) -> Set[EventId]:
        """The ids of every stored event (valid or not)."""
        return set(self._rows)
