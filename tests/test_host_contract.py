"""One host lifecycle, two clocks: the sim node and the asyncio host
obey the same contract.

Both hosts derive from :class:`repro.net.node.HostNode`, so this suite
drives one scripted sequence — double start, nested silence with a
queued send, the flush on the last ``unsilence``, a crash that drops
the queue and stops every handle, silence depth surviving
crash/recover, ``recover`` idempotence — through :class:`Node` on a
:class:`Simulator` and through :class:`AsyncioHost` on an event loop
with a :class:`~tests.helpers.FakeTransport`, and requires identical
traces.  Nothing waits on the wall clock: every step reads flags, so
the suite cannot flake under load.  The :class:`LoopClock` units below
pin the rt clock to the kernel's handle types.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.core.topics import Topic
from repro.mobility import Stationary
from repro.net.messages import Heartbeat
from repro.net.node import Node
from repro.rt.codec import decode
from repro.rt.host import AsyncioHost, LoopClock
from repro.sim.kernel import (InvalidPeriod, PeriodicTask, SimulationError,
                              Simulator, Timer)
from repro.sim.space import Vec2
from tests.helpers import FakeTransport, ScriptedProtocol


def beat(n: int) -> Heartbeat:
    """A distinguishable frame (the sender field numbers it)."""
    return Heartbeat(sender=n, subscriptions=frozenset({Topic(".t")}))


class AirMedium:
    """The medium surface a :class:`Node` talks to, recording every
    frame put on the air (no propagation, no MAC)."""

    def __init__(self):
        self.nodes = {}
        self.aired = []

    def register(self, node):
        self.nodes[node.id] = node

    def note_leg(self, node_id, leg):
        pass

    def broadcast(self, sender_id, message):
        self.aired.append(message)


def sim_host():
    """A :class:`Node` on a fresh kernel; returns ``(host, protocol,
    aired)`` with ``aired()`` listing the frames put on the air."""
    medium = AirMedium()
    protocol = ScriptedProtocol()
    host = Node(0, Simulator(), medium, Stationary(position=Vec2(0.0, 0.0)),
                protocol, random.Random(7))
    return host, protocol, lambda: list(medium.aired)


def rt_host(loop):
    """An :class:`AsyncioHost` with one peer on a fake transport."""
    protocol = ScriptedProtocol()
    host = AsyncioHost(0, loop, protocol, random.Random(7), time_scale=100.0)
    transport = FakeTransport()
    host.set_network(transport, [("127.0.0.1", 9000)])
    return host, protocol, lambda: [decode(data)
                                    for data, _ in transport.sent]


@pytest.fixture
def loop():
    loop = asyncio.new_event_loop()
    yield loop
    loop.close()


@pytest.fixture(params=["sim", "rt"])
def host_under_test(request, loop):
    return sim_host() if request.param == "sim" else rt_host(loop)


def run_script(host, protocol, aired):
    """Drive the shared lifecycle script; one snapshot per step."""
    trace = []
    radio = []
    host.on_radio_state = lambda _, state: radio.append(state)
    timer = task = None

    def snap(step):
        trace.append((step, [m.sender for m in aired()], list(radio),
                      protocol.started, protocol.stopped,
                      host.listening, host.silenced,
                      timer.active if timer else None,
                      task.running if task else None))

    host.start()
    snap("start")
    with pytest.raises(RuntimeError):
        host.start()
    snap("double start")
    timer = host.schedule(50.0, lambda: None)
    task = host.periodic(50.0, lambda: None)
    snap("armed")
    host.silence()
    host.silence()
    host.send(beat(1))
    snap("send, silenced twice")
    host.unsilence()
    snap("one window lifted")
    host.unsilence()
    snap("last window lifted")
    host.silence()
    host.send(beat(2))
    host.crash()
    snap("crash with a queued send")
    host.send(beat(3))
    snap("send while crashed")
    host.recover()
    snap("recover")
    host.recover()
    snap("recover again")
    host.unsilence()
    snap("unsilence after recover")
    host.send(beat(4))
    snap("send")
    return trace


#: (step, senders on the air, radio-state notifications, on_start,
#:  on_stop, listening, silenced, timer.active, task.running)
EXPECTED = [
    ("start", [], [], 1, 0, True, False, None, None),
    ("double start", [], [], 1, 0, True, False, None, None),
    ("armed", [], [], 1, 0, True, False, True, True),
    ("send, silenced twice", [], ["sleep"], 1, 0, False, True, True, True),
    ("one window lifted", [], ["sleep"], 1, 0, False, True, True, True),
    ("last window lifted", [1], ["sleep", "wake"],
     1, 0, True, False, True, True),
    ("crash with a queued send", [1], ["sleep", "wake", "sleep"],
     1, 1, False, True, False, False),
    ("send while crashed", [1], ["sleep", "wake", "sleep"],
     1, 1, False, True, False, False),
    ("recover", [1], ["sleep", "wake", "sleep"],
     2, 1, False, True, False, False),
    ("recover again", [1], ["sleep", "wake", "sleep"],
     2, 1, False, True, False, False),
    ("unsilence after recover", [1], ["sleep", "wake", "sleep", "wake"],
     2, 1, True, False, False, False),
    ("send", [1, 4], ["sleep", "wake", "sleep", "wake"],
     2, 1, True, False, False, False),
]


class TestSharedLifecycle:
    def test_script_trace(self, host_under_test):
        assert run_script(*host_under_test) == EXPECTED

    def test_both_hosts_trace_identically(self, loop):
        assert run_script(*sim_host()) == run_script(*rt_host(loop))

    def test_handles_are_the_kernels(self, host_under_test):
        host, _, _ = host_under_test
        host.start()
        assert type(host.schedule(1.0, lambda: None)) is Timer
        assert type(host.periodic(1.0, lambda: None)) is PeriodicTask


class TestLoopClock:
    def test_schedule_returns_a_kernel_timer(self, loop):
        clock = LoopClock(loop, time_scale=10.0)
        timer = clock.schedule(5.0, lambda: None)
        assert isinstance(timer, Timer)
        assert timer.active and not timer.fired
        assert timer.time == pytest.approx(clock.now + 5.0, abs=1.0)

    def test_cancelled_timer_never_runs_nor_reads_fired(self, loop):
        clock = LoopClock(loop, time_scale=1000.0)
        ran = []
        cancelled = clock.schedule(1.0, ran.append, "cancelled")
        live = clock.schedule(1.0, ran.append, "live")
        cancelled.cancel()
        clock.schedule(2.0, loop.stop)     # after both, on the same clock
        loop.run_forever()
        assert ran == ["live"]
        assert live.fired and not live.active
        assert not cancelled.fired and not cancelled.active

    def test_period_error_is_both_kinds(self, loop):
        clock = LoopClock(loop)
        with pytest.raises(InvalidPeriod) as caught:
            PeriodicTask(clock, 0.0, lambda: None)
        assert isinstance(caught.value, SimulationError)
        assert isinstance(caught.value, ValueError)

    def test_bad_time_scale_rejected(self, loop):
        with pytest.raises(ValueError):
            LoopClock(loop, time_scale=0.0)
