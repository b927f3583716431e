"""The asyncio :class:`~repro.core.base.Host`: real timers, real UDP.

:class:`AsyncioHost` is the sim's :class:`~repro.net.node.HostNode` —
same lifecycle, same kernel ``Timer``/``PeriodicTask`` handles — on a
:class:`LoopClock` over the asyncio loop.  Its ``_transmit`` fans each
encoded frame out as one UDP datagram per peer in a static table
(unicast standing in for the radio's one-hop broadcast), and it is its
own endpoint protocol (:meth:`~AsyncioHost.datagram_received`).

Time scaling
------------
Protocol configs are written in *virtual* seconds (1 s heartbeats,
multi-second validity windows).  Running those literally would make
every cluster test take minutes of wall clock, so the clock maps wall
time to virtual time by a constant ``time_scale`` factor: ``now``
returns ``(loop.time() - epoch) * time_scale`` and a ``schedule(d)``
arms ``call_later(d / time_scale)``.  At ``time_scale=1`` the runtime
runs in real time; the bridge experiment defaults to 10x compression.
The datagrams stay real either way.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.base import PubSubProtocol
from repro.core.events import Event, EventId
from repro.net.messages import Message
from repro.net.node import HostNode
from repro.rt.codec import CodecError, decode, encode
from repro.sim.kernel import Timer

#: A UDP peer address as returned by ``transport.get_extra_info``.
Address = Tuple[str, int]


class LoopClock:
    """The kernel's clock surface (``now``, ``schedule``) on an asyncio
    loop, in virtual seconds.

    ``schedule`` returns a kernel :class:`~repro.sim.kernel.Timer`; the
    loop fires it only if it was not cancelled by then, so a cancelled
    timer never runs and never reads ``fired``.  Negative delays clamp
    to zero (the loop cannot run anything in the past either).
    """

    def __init__(self, loop: asyncio.AbstractEventLoop,
                 time_scale: float = 1.0):
        if time_scale <= 0:
            raise ValueError(f"time_scale must be positive: {time_scale=}")
        self._loop = loop
        self.time_scale = float(time_scale)
        #: Loop time of virtual zero.
        self.epoch = loop.time()
        self._seq = itertools.count()

    @property
    def now(self) -> float:
        """Current virtual time in seconds (scaled wall clock)."""
        return (self._loop.time() - self.epoch) * self.time_scale

    def schedule(self, delay: float, callback: Callable[..., None],
                 *args) -> Timer:
        """Run ``callback(*args)`` in ``delay`` virtual seconds."""
        delay = max(0.0, delay)
        timer = Timer(self.now + delay, next(self._seq), callback, args)
        self._loop.call_later(delay / self.time_scale, self._fire, timer)
        return timer

    @staticmethod
    def _fire(timer: Timer) -> None:
        if not timer.cancelled:
            timer.fired = True
            timer.callback(*timer.args)


class AsyncioHost(HostNode, asyncio.DatagramProtocol):
    """One real-network node: a protocol stack over an asyncio loop.

    Satisfies :class:`~repro.core.base.Host`; the cluster harness binds
    the host as its own datagram endpoint, wires the UDP transport and
    peer table in after every endpoint has bound (:meth:`set_network`)
    and aligns all nodes on one clock epoch (:meth:`set_epoch`) before
    :meth:`start`.
    """

    def __init__(self, node_id: int, loop: asyncio.AbstractEventLoop,
                 protocol: PubSubProtocol, rng, *,
                 time_scale: float = 1.0):
        super().__init__(node_id, LoopClock(loop, time_scale), protocol, rng)
        self._transport: Optional[asyncio.DatagramTransport] = None
        self._peers: List[Address] = []
        #: Virtual time of each event's *first* local delivery.
        self.delivery_times: Dict[EventId, float] = {}
        self.frames_sent = 0
        self.datagrams_sent = 0
        self.wire_bytes_sent = 0
        self.frames_received = 0
        self.frames_rejected = 0

    # -- wiring ----------------------------------------------------------------

    def set_network(self, transport: asyncio.DatagramTransport,
                    peers: List[Address]) -> None:
        """Install the bound UDP transport and the static peer table."""
        self._transport = transport
        self._peers = list(peers)

    def set_epoch(self, loop_time: float) -> None:
        """Anchor virtual time zero at ``loop_time`` (cluster-shared)."""
        self.sim.epoch = float(loop_time)

    @property
    def time_scale(self) -> float:
        """Virtual seconds elapsing per wall-clock second."""
        return self.sim.time_scale

    def shutdown(self) -> None:
        """End-of-run stop: like :meth:`crash`, but a no-op when dead."""
        self.crash()

    # -- the air -----------------------------------------------------------------

    def _transmit(self, message: Message) -> None:
        data = encode(message)
        for addr in self._peers:
            self._transport.sendto(data, addr)
        self.frames_sent += 1
        self.datagrams_sent += len(self._peers)
        self.wire_bytes_sent += len(data)

    def deliver(self, event: Event) -> None:
        """Record the first delivery's virtual time, then deliver."""
        self.delivery_times.setdefault(event.event_id, self.now)
        super().deliver(event)

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

    def error_received(self, exc: Exception) -> None:
        """Ignore ICMP-reported send errors (lossy-medium semantics)."""
