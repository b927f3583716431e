"""Tests for the asyncio Host implementation (repro.rt.host).

Drives :class:`AsyncioHost` with a scripted fake protocol and a fake
transport — no real sockets — to pin down the handle contracts the stack
layers rely on (``.cancel()``/``.active``, ``.stop()``/``.set_period()``/
``.running``), the crash/silence fault semantics mirrored from the sim
node, and the virtual-time scaling.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.core import FrugalConfig, FrugalPubSub
from repro.core.events import Event, EventId
from repro.core.topics import Topic
from repro.net.messages import Heartbeat
from repro.rt.codec import encode
from repro.rt.host import AsyncioHost
from tests.helpers import FakeTransport, ScriptedProtocol

#: High compression so multi-virtual-second waits finish in milliseconds.
SCALE = 200.0


def make_host(time_scale: float = SCALE, peers: int = 2):
    """A host wired to a fake transport inside a fresh running loop."""
    loop = asyncio.get_running_loop()
    protocol = ScriptedProtocol()
    host = AsyncioHost(0, loop, protocol, random.Random(7),
                       time_scale=time_scale)
    transport = FakeTransport()
    host.set_network(transport, [("127.0.0.1", 9000 + i)
                                 for i in range(peers)])
    host.set_epoch(loop.time())
    host.start()
    return host, protocol, transport


def run(coro):
    """Run one async test body on a fresh event loop."""
    return asyncio.run(coro)


HB = Heartbeat(sender=0, subscriptions=frozenset({Topic(".t")}))


class TestTimerContract:
    def test_schedule_fires_and_flips_active(self):
        async def body():
            host, _, _ = make_host()
            fired = []
            timer = host.schedule(1.0, fired.append, "x")
            assert timer.active
            await asyncio.sleep(2.0 / SCALE)
            assert fired == ["x"]
            assert timer.fired and not timer.active
        run(body())

    def test_cancel_prevents_firing(self):
        async def body():
            host, _, _ = make_host()
            fired = []
            timer = host.schedule(1.0, fired.append, "x")
            timer.cancel()
            assert not timer.active
            await asyncio.sleep(2.0 / SCALE)
            assert fired == []
        run(body())

    def test_timer_list_pruned(self):
        async def body():
            host, _, _ = make_host()
            for _ in range(200):
                host.schedule(50.0, lambda: None).cancel()
            assert len(host._timers) <= 65
        run(body())

    def test_many_live_handles_prune_in_amortised_constant_time(self):
        """Regression: with more than 64 handles live at once the fixed
        ``> 64`` threshold rebuilt the list on *every* call (quadratic
        in the number armed).  The list now prunes when it has doubled."""
        async def body():
            host, _, _ = make_host()
            timers = [host.schedule(1000.0, lambda: None)
                      for _ in range(5000)]
            tasks = [host.periodic(1000.0, lambda: None)
                     for _ in range(5000)]
            assert host._timers.prune_passes <= 16
            assert host._periodics.prune_passes <= 16
            # Dead entries are still dropped once the list doubles again.
            for timer in timers:
                timer.cancel()
            for task in tasks:
                task.stop()
            for _ in range(5001):
                host.schedule(1000.0, lambda: None).cancel()
                host.periodic(1000.0, lambda: None).stop()
            assert len(host._timers) <= 65
            assert len(host._periodics) <= 65
        run(body())


class TestPeriodicContract:
    def test_ticks_repeat_until_stop(self):
        async def body():
            host, _, _ = make_host()
            ticks = []
            task = host.periodic(1.0, lambda: ticks.append(host.now))
            assert task.running and task.period == 1.0
            await asyncio.sleep(3.5 / SCALE)
            task.stop()
            assert not task.running
            count = len(ticks)
            assert count >= 2
            await asyncio.sleep(2.0 / SCALE)
            assert len(ticks) == count       # no ticks after stop
        run(body())

    def test_set_period_takes_effect_next_arm(self):
        async def body():
            host, _, _ = make_host()
            ticks = []
            task = host.periodic(1.0, lambda: ticks.append(host.now))
            task.set_period(1000.0)          # pending 1.0 tick unaffected
            assert task.period == 1000.0
            await asyncio.sleep(3.0 / SCALE)
            assert len(ticks) == 1           # re-armed far in the future
        run(body())

    def test_invalid_period_rejected(self):
        async def body():
            host, _, _ = make_host()
            with pytest.raises(ValueError):
                host.periodic(0.0, lambda: None)
            task = host.periodic(1.0, lambda: None)
            with pytest.raises(ValueError):
                task.set_period(-1.0)
        run(body())

    def test_jitter_draws_from_host_rng(self):
        async def body():
            host, _, _ = make_host()
            before = host.rng.getstate()
            host.periodic(1.0, lambda: None, jitter=0.5)
            assert host.rng.getstate() != before
        run(body())


    def test_periodic_list_pruned_across_resubscribe_cycles(self):
        """Regression: stopped heartbeat/GC tasks used to pile up in
        ``_periodics`` (two per unsubscribe/resubscribe cycle)."""
        async def body():
            protocol = FrugalPubSub(FrugalConfig())
            host = AsyncioHost(0, asyncio.get_running_loop(), protocol,
                               random.Random(7), time_scale=SCALE)
            host.set_network(FakeTransport(), [("127.0.0.1", 9000)])
            host.set_epoch(asyncio.get_running_loop().time())
            protocol.subscribe(".a")
            host.start()
            for _ in range(200):
                protocol.unsubscribe(".a")
                protocol.subscribe(".a")
            assert len(host._periodics) <= 65
            assert sum(t.running for t in host._periodics) == 2
            host.shutdown()
        run(body())


class TestVirtualTime:
    def test_now_advances_scaled(self):
        async def body():
            host, _, _ = make_host(time_scale=100.0)
            t0 = host.now
            await asyncio.sleep(0.05)        # 5 virtual seconds
            elapsed = host.now - t0
            assert 3.0 <= elapsed <= 30.0
        run(body())

    def test_bad_time_scale_rejected(self):
        async def body():
            loop = asyncio.get_running_loop()
            with pytest.raises(ValueError):
                AsyncioHost(0, loop, ScriptedProtocol(), random.Random(1),
                            time_scale=0.0)
        run(body())


class TestSendAndReceive:
    def test_send_fans_out_to_every_peer(self):
        async def body():
            host, _, transport = make_host(peers=3)
            host.send(HB)
            assert len(transport.sent) == 3
            assert host.frames_sent == 1
            assert host.datagrams_sent == 3
            assert host.wire_bytes_sent == len(transport.sent[0][0])
        run(body())

    def test_receive_dispatches_to_protocol(self):
        async def body():
            host, protocol, _ = make_host()
            host.datagram_received(encode(HB), ("127.0.0.1", 5))
            assert protocol.messages == [HB]
            assert host.frames_received == 1
        run(body())

    def test_garbage_datagram_counted_not_fatal(self):
        async def body():
            host, protocol, _ = make_host()
            host.datagram_received(b"\x00garbage!", ("127.0.0.1", 5))
            host.datagram_received(b"", ("127.0.0.1", 5))
            assert protocol.messages == []
            assert host.frames_rejected == 2
        run(body())

    def test_deliver_records_first_delivery_time(self):
        async def body():
            host, _, _ = make_host()
            event = Event(EventId(1, 1), Topic(".t"), validity=10.0,
                          published_at=0.0)
            host.deliver(event)
            first = host.delivery_times[event.event_id]
            host.deliver(event)
            assert host.delivery_times[event.event_id] == first
            assert len(host.delivered_events) == 2
        run(body())


class TestFaultSemantics:
    def test_crash_stops_everything(self):
        async def body():
            host, protocol, transport = make_host()
            fired = []
            host.schedule(1.0, fired.append, "x")
            host.periodic(1.0, lambda: fired.append("tick"))
            host.crash()
            assert not host.alive and protocol.stopped == 1
            host.send(HB)                    # dropped, not queued
            await asyncio.sleep(3.0 / SCALE)
            assert fired == []
            assert transport.sent == []
        run(body())

    def test_recover_restarts_protocol(self):
        async def body():
            host, protocol, _ = make_host()
            host.crash()
            host.recover()
            assert host.alive and protocol.started == 2
            host.recover()                   # idempotent
            assert protocol.started == 2
        run(body())

    def test_crashed_node_is_deaf(self):
        async def body():
            host, protocol, _ = make_host()
            host.crash()
            host.datagram_received(encode(HB), ("127.0.0.1", 5))
            assert protocol.messages == []
        run(body())

    def test_silence_defers_and_flushes(self):
        async def body():
            host, _, transport = make_host(peers=2)
            host.silence()
            host.silence()                   # windows nest
            host.send(HB)
            assert transport.sent == []
            host.unsilence()
            assert transport.sent == []      # still one window open
            host.unsilence()
            assert len(transport.sent) == 2  # flushed to both peers
        run(body())

    def test_silenced_node_is_deaf_but_keeps_timers(self):
        async def body():
            host, protocol, _ = make_host()
            fired = []
            host.schedule(1.0, fired.append, "x")
            host.silence()
            host.datagram_received(encode(HB), ("127.0.0.1", 5))
            assert protocol.messages == []
            await asyncio.sleep(2.0 / SCALE)
            assert fired == ["x"]            # timers run through silence
        run(body())

    def test_crash_clears_deferred_sends(self):
        async def body():
            host, _, transport = make_host()
            host.silence()
            host.send(HB)
            host.crash()
            host.recover()
            assert host.silenced             # window survives, as in sim
            host.unsilence()
            assert transport.sent == []      # queue died with the crash
        run(body())

    def test_double_start_rejected(self):
        async def body():
            host, _, _ = make_host()
            with pytest.raises(RuntimeError):
                host.start()
        run(body())
