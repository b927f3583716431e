"""Interfaces shared by the frugal protocol and the flooding baselines.

The protocol logic is written against the minimal :class:`Host` interface
rather than against the simulator directly.  That keeps the algorithm
portable (the paper stresses its algorithm is "inherently portable") and —
practically — lets unit tests drive a protocol instance with a scripted
fake host, no radio or mobility involved.

Every protocol also carries one :class:`ProtocolCounters` instance,
``proto.counters`` — the unified per-layer observability counters every
stack layer (:mod:`repro.core.stack`) writes into.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, fields
from typing import (TYPE_CHECKING, Callable, Dict, Iterable, Optional,
                    Protocol, runtime_checkable)

from repro.core.events import Event
from repro.core.topics import Topic

if TYPE_CHECKING:  # pragma: no cover - import cycle breaker (net -> core)
    from repro.net.messages import Message


@runtime_checkable
class Host(Protocol):
    """Services a protocol instance receives from its hosting node."""

    id: int

    @property
    def now(self) -> float:
        """Current time in seconds."""

    def send(self, message: Message) -> None:
        """One-hop broadcast to whoever is in range (paper's only primitive)."""

    def schedule(self, delay: float, callback: Callable[..., None],
                 *args) -> object:
        """Arm a cancellable timer; returns a handle with ``.cancel()``
        and an ``.active`` property (pending: not fired, not
        cancelled).  Both sides of the contract are load-bearing — the
        forwarding layer polls ``.active`` to dedupe its backoff timer —
        so every Host implementation must provide them (both shipped
        hosts hand out the kernel's ``Timer``, fired by the simulator
        or by the rt runtime's loop clock)."""

    def periodic(self, period: float, callback: Callable[[], None],
                 jitter: float = 0.0) -> object:
        """Start a periodic task; returns a handle with ``.stop()``,
        ``.set_period()``, ``.period`` and a ``.running`` property
        (true until stopped).  The membership layer reads ``.running``
        and re-tunes via ``.set_period()`` (effective from the next
        re-arm), so every Host implementation must honour all four."""

    def deliver(self, event: Event) -> None:
        """Hand an event to the application layer."""

    def current_speed(self) -> Optional[float]:
        """Own speed in m/s, or ``None`` if no tachometer is available."""

    @property
    def rng(self):
        """Node-local random stream (protocol jitter decisions)."""


class HandleList(list):
    """The timer or task handles a host must cancel when it crashes.

    A host appends every handle it gives out and, now and then, drops
    the dead ones.  :meth:`track` prunes when the list has doubled since
    the survivors of the last prune (never below ``FLOOR`` entries), so
    arming n handles costs O(n) in total however many stay live — a
    fixed threshold would rebuild the list on every call once more than
    that many are live at once.
    """

    FLOOR = 64

    def __init__(self, is_live: Callable[[object], bool]):
        super().__init__()
        self._is_live = is_live
        self._prune_above = self.FLOOR
        self.prune_passes = 0

    def track(self, handle) -> None:
        """Append ``handle``; drop dead entries if the list has doubled."""
        self.append(handle)
        if len(self) > self._prune_above:
            self[:] = [h for h in self if self._is_live(h)]
            self._prune_above = max(self.FLOOR, 2 * len(self))
            self.prune_passes += 1


@dataclass
class ProtocolCounters:
    """Unified protocol-level observability counters.

    One instance per protocol stack; every layer (membership, delivery,
    forwarding) increments the same object, so the historical duplicated
    counter fields collapse into a single picklable dataclass that
    results and metrics can snapshot (``MetricsCollector.record``).
    All counts are monotonically increasing and survive ``on_stop`` (a
    crashed process keeps its lifetime tallies, matching the pre-stack
    behaviour).
    """

    heartbeats_sent: int = 0
    id_lists_sent: int = 0
    batches_sent: int = 0
    events_forwarded: int = 0
    delivered_count: int = 0
    duplicates_dropped: int = 0
    parasites_dropped: int = 0

    def add(self, other: "ProtocolCounters") -> "ProtocolCounters":
        """Accumulate ``other`` into this instance (returns ``self``)."""
        for f in fields(self):
            setattr(self, f.name,
                    getattr(self, f.name) + getattr(other, f.name))
        return self

    def minus(self, other: "ProtocolCounters") -> "ProtocolCounters":
        """A fresh instance holding ``self - other`` per field.

        Used to window monotonically increasing counters: snapshot at
        window start, subtract from the end-of-window totals.
        """
        out = ProtocolCounters()
        for f in fields(self):
            setattr(out, f.name,
                    getattr(self, f.name) - getattr(other, f.name))
        return out

    @classmethod
    def total(cls, counters: Iterable["ProtocolCounters"]
              ) -> "ProtocolCounters":
        """Sum a collection of counter sets into a fresh instance."""
        out = cls()
        for c in counters:
            out.add(c)
        return out

    def as_dict(self) -> Dict[str, int]:
        """Flat ``{field: value}`` view (stable field order)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


class PubSubProtocol(abc.ABC):
    """Topic-based pub/sub protocol driver interface.

    Lifecycle: ``attach(host)`` -> ``on_start()`` -> (subscribe/publish/
    on_message)* -> ``on_stop()`` -> [``detach()`` -> ``attach(...)``].
    Attach/detach are symmetric: attaching twice raises, detaching an
    unattached protocol raises, and a detached protocol raises on any
    use that needs a host — but it may be re-attached (the clean path
    for moving a protocol instance between hosts across crash/recover
    cycles).
    """

    def __init__(self, counters: Optional[ProtocolCounters] = None) -> None:
        self.host: Optional[Host] = None
        self.counters = ProtocolCounters() if counters is None else counters

    # -- lifecycle ------------------------------------------------------------

    def attach(self, host: Host) -> None:
        """Bind this protocol to ``host``; raises if already attached."""
        if self.host is not None:
            raise RuntimeError("protocol already attached to a host")
        self.host = host

    def detach(self) -> None:
        """Sever the host binding; raises if not attached or running.

        The symmetric inverse of :meth:`attach`: after a detach the
        protocol holds no reference to its old host and may be attached
        to a new one.  A *running* protocol must :meth:`on_stop` first —
        its periodic tasks and timers are registered with the old host's
        scheduler and would fire into a dead binding otherwise — and a
        detached protocol errors on any host-needing use.
        """
        if self.host is None:
            raise RuntimeError("protocol is not attached to a host")
        if getattr(self, "_running", False):
            raise RuntimeError("stop the protocol (on_stop) before "
                               "detaching it")
        self.host = None

    def _require_attached(self) -> Host:
        """The current host, or a clean error for use-after-detach."""
        if self.host is None:
            raise RuntimeError("protocol is not attached to a host")
        return self.host

    def on_start(self) -> None:
        """Called once when the node boots."""

    def on_stop(self) -> None:
        """Called when the node shuts down or crashes."""

    # -- application-facing API --------------------------------------------------

    @abc.abstractmethod
    def subscribe(self, topic: Topic | str) -> None:
        """Register interest in ``topic`` and all its subtopics."""

    @abc.abstractmethod
    def unsubscribe(self, topic: Topic | str) -> None:
        """Drop interest in ``topic``."""

    @abc.abstractmethod
    def publish(self, event: Event) -> None:
        """Inject a locally produced event into the dissemination."""

    @property
    @abc.abstractmethod
    def subscriptions(self) -> frozenset[Topic]:
        """Current subscription set."""

    # -- network-facing API ---------------------------------------------------------

    @abc.abstractmethod
    def on_message(self, message: Message) -> None:
        """Handle a frame received from the broadcast medium."""
