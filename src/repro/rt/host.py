"""The asyncio :class:`~repro.core.base.Host`: real timers, real UDP.

:class:`AsyncioHost` is the wall-clock twin of the sim's
:class:`~repro.net.node.Node`.  The protocol stack cannot tell them
apart — both satisfy the :class:`~repro.core.base.Host` contract,
including the richer handle guarantees the stack layers rely on
(``.cancel()``/``.active`` on schedule handles, ``.stop()`` /
``.set_period()`` / ``.period`` / ``.running`` on periodic handles) —
but here ``now`` reads the event loop's clock, ``schedule`` arms
``loop.call_later`` and ``send`` encodes the frame and fans it out as
one UDP datagram per peer in a static peer table (unicast fan-out
standing in for the radio's one-hop broadcast).

Time scaling
------------
Protocol configs are written in *virtual* seconds (1 s heartbeats,
multi-second validity windows).  Running those literally would make
every cluster test take minutes of wall clock, so the host maps wall
time to virtual time by a constant ``time_scale`` factor: ``now``
returns ``(loop.time() - epoch) * time_scale`` and a ``schedule(d)``
arms ``call_later(d / time_scale)``.  At ``time_scale=1`` the runtime
runs in real time; the bridge experiment defaults to 10x compression.
The datagrams stay real either way.

Failure semantics mirror the sim node: ``crash`` cancels every timer and
periodic and drops queued sends, ``silence``/``unsilence`` nest and
defer outbound frames until the last window lifts, and callbacks of
armed timers are guarded so they never fire into a crashed protocol.
"""

from __future__ import annotations

import asyncio
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.base import HandleList, PubSubProtocol
from repro.core.events import Event, EventId
from repro.net.messages import Message
from repro.rt.codec import CodecError, decode, encode

#: A UDP peer address as returned by ``transport.get_extra_info``.
Address = Tuple[str, int]


class RtTimer:
    """Cancellable wall-clock timer handle (the sim ``Timer`` contract).

    Exposes exactly what the stack layers use on a schedule handle:
    :meth:`cancel` and :attr:`active`.  Cancelling a fired or cancelled
    timer is a harmless no-op, like the kernel's.
    """

    __slots__ = ("_handle", "fired", "cancelled")

    def __init__(self) -> None:
        self._handle: Optional[asyncio.TimerHandle] = None
        self.fired = False
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from firing (no-op if already fired)."""
        self.cancelled = True
        if self._handle is not None:
            self._handle.cancel()

    @property
    def active(self) -> bool:
        """True while the timer is pending (not fired, not cancelled)."""
        return not (self.cancelled or self.fired)


class RtPeriodicTask:
    """Repeating wall-clock task mirroring the sim ``PeriodicTask``.

    Same observable contract: per-tick ``U(0, jitter)`` drawn from the
    host's rng, :meth:`set_period` takes effect from the next re-arm,
    :meth:`stop` cancels the pending tick, :attr:`running` flips only on
    stop.
    """

    def __init__(self, host: "AsyncioHost", period: float,
                 callback: Callable[[], None], jitter: float = 0.0):
        if period <= 0:
            raise ValueError(f"period must be positive: {period=}")
        self._host = host
        self._period = float(period)
        self._callback = callback
        self._jitter = float(jitter)
        self._handle: Optional[asyncio.TimerHandle] = None
        self._stopped = False
        self._arm(self._period)

    def _draw_jitter(self) -> float:
        if self._jitter <= 0.0:
            return 0.0
        return self._host.rng.uniform(0.0, self._jitter)

    def _arm(self, delay: float) -> None:
        self._handle = self._host._call_later(
            max(0.0, delay + self._draw_jitter()), self._tick)

    def _tick(self) -> None:
        if self._stopped:
            return
        self._callback()
        if not self._stopped:
            self._arm(self._period)

    @property
    def period(self) -> float:
        """Current tick period in virtual seconds (jitter excluded)."""
        return self._period

    def set_period(self, period: float) -> None:
        """Update the period; takes effect from the next re-arm."""
        if period <= 0:
            raise ValueError(f"period must be positive: {period=}")
        self._period = float(period)

    @property
    def running(self) -> bool:
        """True until :meth:`stop` is called."""
        return not self._stopped

    def stop(self) -> None:
        """Stop the task and cancel its pending tick."""
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()


class AsyncioHost:
    """One real-network node: a protocol stack over an asyncio loop.

    Satisfies :class:`~repro.core.base.Host`; the cluster harness wires
    the UDP transport and peer table in after every endpoint has bound
    (:meth:`set_network`) and aligns all nodes on one clock epoch
    (:meth:`set_epoch`) before :meth:`start`.
    """

    def __init__(self, node_id: int, loop: asyncio.AbstractEventLoop,
                 protocol: PubSubProtocol, rng, *,
                 time_scale: float = 1.0,
                 static_speed: Optional[float] = None):
        if time_scale <= 0:
            raise ValueError(f"time_scale must be positive: {time_scale=}")
        self.id = node_id
        self.protocol = protocol
        self._loop = loop
        self._rng = rng
        self._time_scale = float(time_scale)
        self._speed = static_speed
        self._epoch = loop.time()
        self._transport: Optional[asyncio.DatagramTransport] = None
        self._peers: List[Address] = []
        self.alive = False
        self._started = False
        self._silence_depth = 0
        self._timers = HandleList(attrgetter("active"))
        self._periodics = HandleList(attrgetter("running"))
        self._deferred_sends: List[Message] = []
        self.delivered_events: List[Event] = []
        #: Virtual time of each event's *first* local delivery.
        self.delivery_times: Dict[EventId, float] = {}
        self.frames_sent = 0
        self.datagrams_sent = 0
        self.wire_bytes_sent = 0
        self.frames_received = 0
        self.frames_rejected = 0
        self.on_deliver: Optional[
            Callable[["AsyncioHost", Event], None]] = None
        protocol.attach(self)

    # -- wiring ----------------------------------------------------------------

    def set_network(self, transport: asyncio.DatagramTransport,
                    peers: List[Address]) -> None:
        """Install the bound UDP transport and the static peer table."""
        self._transport = transport
        self._peers = list(peers)

    def set_epoch(self, loop_time: float) -> None:
        """Anchor virtual time zero at ``loop_time`` (cluster-shared)."""
        self._epoch = float(loop_time)

    @property
    def time_scale(self) -> float:
        """Virtual seconds elapsing per wall-clock second."""
        return self._time_scale

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Boot the node: mark it alive and start the protocol."""
        if self._started:
            raise RuntimeError(f"node {self.id} already started")
        self._started = True
        self.alive = True
        self.protocol.on_start()

    def crash(self) -> None:
        """Fail-stop: cancel all protocol timers, go deaf and mute."""
        if not self.alive:
            return
        self.alive = False
        self.protocol.on_stop()
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()
        for task in self._periodics:
            task.stop()
        self._periodics.clear()
        self._deferred_sends.clear()

    def recover(self) -> None:
        """Restart the protocol after a crash (volatile state was lost)."""
        if self.alive:
            return
        self.alive = True
        self.protocol.on_start()

    def shutdown(self) -> None:
        """End-of-run stop: like :meth:`crash`, but a no-op when dead."""
        self.crash()

    # -- fault injection (radio silence) -----------------------------------------

    @property
    def silenced(self) -> bool:
        """True while at least one silence window is open (they nest)."""
        return self._silence_depth > 0

    @property
    def listening(self) -> bool:
        """Radio able to receive: booted, alive and not silenced."""
        return self.alive and not self.silenced

    def silence(self) -> None:
        """Open a radio-silence window: deaf and mute, protocol state
        and timers survive, outbound frames queue until
        :meth:`unsilence`.  A no-op on a crashed node."""
        if not self.alive:
            return
        self._silence_depth += 1

    def unsilence(self) -> None:
        """Close one silence window; queued frames flush when the last
        overlapping window has lifted."""
        if self._silence_depth == 0:
            return
        self._silence_depth -= 1
        if self._silence_depth == 0 and self.alive:
            pending, self._deferred_sends = self._deferred_sends, []
            for message in pending:
                self._transmit(message)

    # -- Host interface ----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time in seconds (scaled wall clock)."""
        return (self._loop.time() - self._epoch) * self._time_scale

    @property
    def rng(self):
        """This node's dedicated deterministic random stream."""
        return self._rng

    def send(self, message: Message) -> None:
        """Encode and fan ``message`` out to every peer (queued while
        silenced, dropped while crashed)."""
        if not self.alive:
            return
        if self.silenced:
            self._deferred_sends.append(message)
            return
        self._transmit(message)

    def _transmit(self, message: Message) -> None:
        data = encode(message)
        for addr in self._peers:
            self._transport.sendto(data, addr)
        self.frames_sent += 1
        self.datagrams_sent += len(self._peers)
        self.wire_bytes_sent += len(data)

    def _call_later(self, virtual_delay: float,
                    callback: Callable[[], None]) -> asyncio.TimerHandle:
        """Arm a raw loop timer ``virtual_delay`` virtual seconds out."""
        return self._loop.call_later(
            max(0.0, virtual_delay) / self._time_scale, callback)

    def schedule(self, delay: float, callback: Callable[..., None],
                 *args) -> RtTimer:
        """Run ``callback(*args)`` in ``delay`` virtual seconds unless
        this node crashes first; returns the cancellable handle."""
        timer = RtTimer()

        def fire() -> None:
            timer.fired = True
            if self.alive:
                callback(*args)

        timer._handle = self._call_later(delay, fire)
        self._timers.track(timer)
        return timer

    def periodic(self, period: float, callback: Callable[[], None],
                 jitter: float = 0.0) -> RtPeriodicTask:
        """Start a repeating task every ``period`` virtual seconds (plus
        ``U(0, jitter)`` per tick), stopped automatically on crash."""
        task = RtPeriodicTask(self, period, callback, jitter=jitter)
        self._periodics.track(task)
        return task

    def deliver(self, event: Event) -> None:
        """Hand an event to the application layer (records + notifies)."""
        self.delivered_events.append(event)
        self.delivery_times.setdefault(event.event_id, self.now)
        if self.on_deliver is not None:
            self.on_deliver(self, event)

    def current_speed(self) -> Optional[float]:
        """The configured static speed (``None`` without a tachometer;
        loopback nodes do not move)."""
        return self._speed

    # -- network receive path ------------------------------------------------------

    def datagram_received(self, data: bytes, addr: Address) -> None:
        """Decode and dispatch one datagram; garbage is counted and
        dropped, never allowed to crash the receive loop."""
        try:
            message = decode(data)
        except CodecError:
            self.frames_rejected += 1
            return
        if not self.listening:
            return
        self.frames_received += 1
        self.protocol.on_message(message)

    def __repr__(self) -> str:   # pragma: no cover - debugging aid
        state = "up" if self.alive else "down"
        return (f"<AsyncioHost {self.id} {state} "
                f"{type(self.protocol).__name__}>")


class HostDatagramProtocol(asyncio.DatagramProtocol):
    """Adapter routing an endpoint's datagrams into an AsyncioHost."""

    def __init__(self, host: AsyncioHost):
        self._host = host

    def datagram_received(self, data: bytes, addr: Address) -> None:
        """Forward one received datagram to the host."""
        self._host.datagram_received(data, addr)

    def error_received(self, exc: Exception) -> None:
        """Ignore ICMP-reported send errors (lossy-medium semantics)."""
