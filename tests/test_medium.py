"""Unit tests for the broadcast medium (repro.net.medium)."""

from __future__ import annotations

import random

import pytest

from repro.net.medium import MediumConfig, Transmission, WirelessMedium
from repro.net.messages import Heartbeat
from repro.net.radio import RadioConfig
from repro.sim.kernel import Simulator
from repro.sim.space import Vec2
from tests.helpers import MediumStub


def hb(sender: int) -> Heartbeat:
    return Heartbeat(sender=sender, subscriptions=frozenset())


def make_medium(sim, range_m=100.0, config=None, seed=0):
    return WirelessMedium(sim, RadioConfig(range_override_m=range_m),
                          config=config, rng=random.Random(seed))


class TestBroadcastLocality:
    def test_only_nodes_in_range_receive(self, sim):
        medium = make_medium(sim, range_m=100.0)
        sender = MediumStub(0, Vec2(0, 0))
        near = MediumStub(1, Vec2(50, 0))
        edge = MediumStub(2, Vec2(100, 0))
        far = MediumStub(3, Vec2(101, 0))
        for n in (sender, near, edge, far):
            medium.register(n)
        medium.broadcast(0, hb(0))
        sim.run_until_idle()
        assert len(near.received) == 1
        assert len(edge.received) == 1      # boundary inclusive
        assert far.received == []
        assert sender.received == []        # no self-reception

    def test_rx_window_hook_may_unregister_mid_transmit(self, sim):
        """Charging an RX window can kill the receiver's battery, which
        unregisters it from the medium while _transmit is still walking
        the node table — that must not blow up the iteration."""
        medium = make_medium(sim, range_m=100.0)
        nodes = [MediumStub(i, Vec2(10.0 * i, 0)) for i in range(4)]
        for n in nodes:
            medium.register(n)
        medium.on_rx_window = lambda nid, dur: medium.unregister(2)
        medium.broadcast(0, hb(0))
        sim.run_until_idle()
        assert 2 not in medium.nodes
        assert len(nodes[1].received) == 1

    def test_duplicate_node_id_rejected(self, sim):
        medium = make_medium(sim)
        medium.register(MediumStub(1, Vec2(0, 0)))
        with pytest.raises(ValueError):
            medium.register(MediumStub(1, Vec2(5, 5)))

    def test_dead_receiver_gets_nothing(self, sim):
        medium = make_medium(sim)
        medium.register(MediumStub(0, Vec2(0, 0)))
        dead = MediumStub(1, Vec2(10, 0))
        dead.alive = False
        medium.register(dead)
        medium.broadcast(0, hb(0))
        sim.run_until_idle()
        assert dead.received == []

    def test_dead_sender_sends_nothing(self, sim):
        medium = make_medium(sim)
        sender = MediumStub(0, Vec2(0, 0))
        rx = MediumStub(1, Vec2(10, 0))
        medium.register(sender)
        medium.register(rx)
        sender.alive = False
        medium.broadcast(0, hb(0))
        sim.run_until_idle()
        assert rx.received == []
        assert medium.frames_sent == 0

    def test_delivery_takes_airtime(self, sim):
        medium = make_medium(sim)
        medium.register(MediumStub(0, Vec2(0, 0)))
        rx = MediumStub(1, Vec2(10, 0))
        medium.register(rx)
        medium.broadcast(0, hb(0))
        # A 50-byte heartbeat at 1 Mbit/s: 192 us + 400 us air time.
        sim.run(until=1e-5)
        assert rx.received == []
        sim.run(until=1e-3)
        assert len(rx.received) == 1


class TestCollisions:
    def test_overlapping_frames_collide_at_receiver(self, sim):
        cfg = MediumConfig(csma_enabled=False)   # force the overlap
        medium = make_medium(sim, config=cfg)
        a = MediumStub(0, Vec2(0, 0))
        b = MediumStub(1, Vec2(120, 0))            # out of a's range
        victim = MediumStub(2, Vec2(60, 0))        # hears both
        for n in (a, b, victim):
            medium.register(n)
        medium.broadcast(0, hb(0))
        medium.broadcast(1, hb(1))
        sim.run_until_idle()
        assert victim.received == []
        assert medium.frames_collided == 2

    def test_distant_transmitters_do_not_collide(self, sim):
        """Spatial reuse: two transmissions out of mutual range deliver."""
        cfg = MediumConfig(csma_enabled=False)
        medium = make_medium(sim, range_m=100.0, config=cfg)
        a = MediumStub(0, Vec2(0, 0))
        ra = MediumStub(1, Vec2(10, 0))
        b = MediumStub(2, Vec2(1000, 0))
        rb = MediumStub(3, Vec2(1010, 0))
        for n in (a, ra, b, rb):
            medium.register(n)
        medium.broadcast(0, hb(0))
        medium.broadcast(2, hb(2))
        sim.run_until_idle()
        assert len(ra.received) == 1
        assert len(rb.received) == 1

    def test_half_duplex_receiver_misses_while_transmitting(self, sim):
        cfg = MediumConfig(csma_enabled=False)
        medium = make_medium(sim, config=cfg)
        a = MediumStub(0, Vec2(0, 0))
        b = MediumStub(1, Vec2(50, 0))
        for n in (a, b):
            medium.register(n)
        medium.broadcast(0, hb(0))
        medium.broadcast(1, hb(1))   # b transmits while a's frame arrives
        sim.run_until_idle()
        assert b.received == []

    def test_collisions_can_be_disabled(self, sim):
        cfg = MediumConfig(csma_enabled=False, model_collisions=False)
        medium = make_medium(sim, config=cfg)
        a = MediumStub(0, Vec2(0, 0))
        b = MediumStub(1, Vec2(100, 0))
        victim = MediumStub(2, Vec2(50, 0))
        for n in (a, b, victim):
            medium.register(n)
        medium.broadcast(0, hb(0))
        medium.broadcast(1, hb(1))
        sim.run_until_idle()
        assert len(victim.received) == 2


class TestCsma:
    def test_carrier_sense_defers_second_sender(self, sim):
        medium = make_medium(sim)    # CSMA on by default
        a = MediumStub(0, Vec2(0, 0))
        b = MediumStub(1, Vec2(50, 0))
        rx = MediumStub(2, Vec2(25, 0))
        for n in (a, b, rx):
            medium.register(n)
        medium.broadcast(0, hb(0))
        # b wants to send while a's frame is in the air; CSMA defers it.
        sim.schedule(1e-4, medium.broadcast, 1, hb(1))
        sim.run_until_idle()
        assert len(rx.received) == 2
        assert medium.frames_collided == 0

    def test_hidden_terminal_still_collides(self, sim):
        """CSMA cannot save the classic hidden-terminal case."""
        medium = make_medium(sim, range_m=100.0)
        a = MediumStub(0, Vec2(0, 0))
        b = MediumStub(1, Vec2(200, 0))       # a and b cannot hear each other
        victim = MediumStub(2, Vec2(100, 0))  # hears both
        for n in (a, b, victim):
            medium.register(n)
        medium.broadcast(0, hb(0))
        sim.schedule(1e-4, medium.broadcast, 1, hb(1))
        sim.run_until_idle()
        assert victim.received == []


class TestSelfSerialization:
    def test_back_to_back_sends_from_one_node_both_deliver(self, sim):
        """A half-duplex MAC serialises a node's own frames: two sends in
        the same instant must not corrupt each other (regression — the
        sender's own in-flight frame used to be excluded from carrier
        sense)."""
        medium = make_medium(sim)
        medium.register(MediumStub(0, Vec2(0, 0)))
        rx = MediumStub(1, Vec2(10, 0))
        medium.register(rx)
        medium.broadcast(0, hb(0))
        medium.broadcast(0, hb(0))
        sim.run_until_idle()
        assert len(rx.received) == 2
        assert medium.frames_collided == 0


class TestRandomLoss:
    def test_loss_probability_one_drops_everything(self, sim):
        cfg = MediumConfig(frame_loss_probability=1.0)
        medium = make_medium(sim, config=cfg)
        medium.register(MediumStub(0, Vec2(0, 0)))
        rx = MediumStub(1, Vec2(10, 0))
        medium.register(rx)
        for _ in range(5):
            medium.broadcast(0, hb(0))
            sim.run_until_idle()
        assert rx.received == []
        assert medium.frames_lost_random == 5

    def test_loss_probability_validated(self):
        with pytest.raises(ValueError):
            MediumConfig(frame_loss_probability=1.5)


class TestTransmission:
    def test_overlap_detection(self):
        a = Transmission(0, Vec2(0, 0), 100.0, start=0.0, end=1.0,
                         message=hb(0))
        b = Transmission(1, Vec2(0, 0), 100.0, start=0.5, end=1.5,
                         message=hb(1))
        c = Transmission(2, Vec2(0, 0), 100.0, start=1.0, end=2.0,
                         message=hb(2))
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c)           # touching, not overlapping

    def test_audibility(self):
        t = Transmission(0, Vec2(0, 0), 100.0, 0.0, 1.0, hb(0))
        assert t.audible_at(Vec2(100, 0))
        assert not t.audible_at(Vec2(100.1, 0))


class TestHooks:
    def test_observability_callbacks_fire(self, sim):
        medium = make_medium(sim)
        medium.register(MediumStub(0, Vec2(0, 0)))
        medium.register(MediumStub(1, Vec2(10, 0)))
        sent, received = [], []
        medium.on_transmit = lambda s, m, b: sent.append((s, b))
        medium.on_receive = lambda r, m: received.append(r)
        medium.broadcast(0, hb(0))
        sim.run_until_idle()
        assert sent == [(0, 50)]
        assert received == [1]

    def test_unregister_removes_node(self, sim):
        medium = make_medium(sim)
        medium.register(MediumStub(0, Vec2(0, 0)))
        rx = MediumStub(1, Vec2(10, 0))
        medium.register(rx)
        medium.unregister(1)
        medium.broadcast(0, hb(0))
        sim.run_until_idle()
        assert rx.received == []


class TestOnAirOverride:
    """``_put_on_air`` is the one step a subclass replaces — the seam
    the sharded engine's medium rests on."""

    def test_subclass_sees_each_frame_once_before_any_resolution(self, sim):
        seen = []

        class Diverting(WirelessMedium):
            def _put_on_air(self, tx, duration):
                seen.append((tx.sender, tx.start, duration, self.frames_sent,
                             list(hooks), len(self._txlog), self.sim.pending))

        medium = Diverting(sim, RadioConfig(range_override_m=100.0),
                           rng=random.Random(0))
        stubs = [MediumStub(i, Vec2(10.0 * i, 0)) for i in range(3)]
        for stub in stubs:
            medium.register(stub)
        hooks = []
        medium.on_transmit = lambda s, m, b: hooks.append("transmit")
        medium.on_tx_window = lambda s, d: hooks.append("tx_window")
        medium.on_rx_window = lambda r, d: hooks.append("rx_window")
        medium.broadcast(0, hb(0))
        medium.broadcast(1, hb(1))
        sim.run_until_idle()
        airtime = medium.radio.transmission_duration_s(
            hb(0).size_bytes(medium.sizes))
        # Once per frame; the sender-side accounting already happened,
        # nothing on the receiving side did: no log row (so carrier
        # sense let the second sender straight through), no RX charge,
        # no delivery event.
        assert seen == [
            (0, 0.0, airtime, 1, ["transmit", "tx_window"], 0, 0),
            (1, 0.0, airtime, 2, ["transmit", "tx_window"] * 2, 0, 0)]
        assert all(stub.received == [] for stub in stubs)
        assert medium.frames_delivered == 0
