"""Unit tests for the node/host binding (repro.net.node)."""

from __future__ import annotations

import pytest

from repro.core import FrugalPubSub
from repro.mobility import Stationary
from repro.net import Node, RadioConfig, WirelessMedium
from repro.net.messages import Heartbeat
from repro.sim import RngRegistry, Simulator
from repro.sim.space import Vec2

from tests.helpers import make_event


def make_node(sim, rngs, node_id=0, pos=Vec2(0, 0), medium=None,
              speed_sensor=True):
    medium = medium or WirelessMedium(
        sim, RadioConfig(range_override_m=100.0),
        rng=rngs.stream("medium"))
    proto = FrugalPubSub()
    node = Node(node_id, sim, medium, Stationary(position=pos), proto,
                rngs.stream("node", node_id), speed_sensor=speed_sensor)
    return node, medium


class TestLifecycle:
    def test_start_boots_mobility_and_protocol(self, sim, rngs):
        node, _ = make_node(sim, rngs)
        node.protocol.subscribe(".a")
        node.start()
        assert node.alive
        assert node.mobility.started
        sim.run(until=2.0)
        assert node.protocol.counters.heartbeats_sent >= 1

    def test_double_start_rejected(self, sim, rngs):
        node, _ = make_node(sim, rngs)
        node.start()
        with pytest.raises(RuntimeError):
            node.start()

    def test_crash_silences_node(self, sim, rngs):
        node, medium = make_node(sim, rngs)
        node.protocol.subscribe(".a")
        node.start()
        sim.run(until=2.0)
        node.crash()
        frames_before = medium.frames_sent
        sim.run(until=10.0)
        assert medium.frames_sent == frames_before

    def test_crashed_node_ignores_receptions(self, sim, rngs):
        node, medium = make_node(sim, rngs)
        node.protocol.subscribe(".a")
        node.start()
        node.crash()
        node.receive(Heartbeat(sender=9, subscriptions=frozenset()))
        assert 9 not in node.protocol.neighborhood

    def test_recover_restarts_protocol(self, sim, rngs):
        node, medium = make_node(sim, rngs)
        node.protocol.subscribe(".a")
        node.start()
        sim.run(until=2.0)
        node.crash()
        sim.run(until=4.0)
        node.recover()
        before = medium.frames_sent
        sim.run(until=8.0)
        assert medium.frames_sent > before

    def test_periodic_list_pruned_across_resubscribe_cycles(self, sim, rngs):
        """Regression: every unsubscribe/resubscribe cycle stops the
        heartbeat + GC tasks and arms two fresh ones; the stopped pair
        used to stay in ``_periodics`` until the next crash."""
        node, _ = make_node(sim, rngs)
        node.protocol.subscribe(".a")
        node.start()
        for _ in range(200):
            node.protocol.unsubscribe(".a")
            node.protocol.subscribe(".a")
        assert len(node._periodics) <= 65
        assert sum(t.running for t in node._periodics) == 2

    def test_many_live_handles_prune_in_amortised_constant_time(
            self, sim, rngs):
        """Regression: with more than 64 handles live at once the fixed
        ``> 64`` threshold rebuilt the list on *every* call (quadratic
        in the number armed).  The list now prunes when it has doubled."""
        node, _ = make_node(sim, rngs)
        node.start()
        timers = [node.schedule(1000.0, lambda: None) for _ in range(5000)]
        tasks = [node.periodic(1000.0, lambda: None) for _ in range(5000)]
        assert node._timers.prune_passes <= 16
        assert node._periodics.prune_passes <= 16
        # Dead entries are still dropped once the list doubles again.
        for timer in timers:
            timer.cancel()
        for task in tasks:
            task.stop()
        for _ in range(5001):
            node.schedule(1000.0, lambda: None).cancel()
            node.periodic(1000.0, lambda: None).stop()
        assert len(node._timers) <= 65
        assert len(node._periodics) <= 65

    def test_crash_is_idempotent(self, sim, rngs):
        node, _ = make_node(sim, rngs)
        node.start()
        node.crash()
        node.crash()
        assert not node.alive

    def test_scheduled_callbacks_guarded_after_crash(self, sim, rngs):
        node, _ = make_node(sim, rngs)
        node.start()
        fired = []
        node.schedule(5.0, fired.append, "x")
        node.crash()
        sim.run(until=10.0)
        assert fired == []


class TestHostInterface:
    def test_now_tracks_sim_time(self, sim, rngs):
        node, _ = make_node(sim, rngs)
        sim.run(until=3.5)
        assert node.now == 3.5

    def test_speed_sensor_toggle(self, sim, rngs):
        with_sensor, _ = make_node(sim, rngs, node_id=0)
        without, _ = make_node(sim, rngs, node_id=1)
        without.speed_sensor = False
        with_sensor.start()
        without.start()
        assert with_sensor.current_speed() == 0.0   # stationary
        assert without.current_speed() is None

    def test_deliver_records_and_notifies(self, sim, rngs):
        node, _ = make_node(sim, rngs)
        seen = []
        node.on_deliver = lambda n, e: seen.append((n.id, e.event_id))
        event = make_event()
        node.deliver(event)
        assert node.delivered_events == [event]
        assert seen == [(0, event.event_id)]

    def test_send_suppressed_when_dead(self, sim, rngs):
        node, medium = make_node(sim, rngs)
        node.start()
        node.crash()
        node.send(Heartbeat(sender=0, subscriptions=frozenset()))
        sim.run_until_idle()
        assert medium.frames_sent == 0


class TestTwoNodeInteraction:
    def test_neighbors_discover_each_other(self, sim, rngs):
        medium = WirelessMedium(sim, RadioConfig(range_override_m=100.0),
                                rng=rngs.stream("medium"))
        a, _ = make_node(sim, rngs, node_id=0, pos=Vec2(0, 0),
                         medium=medium)
        b, _ = make_node(sim, rngs, node_id=1, pos=Vec2(50, 0),
                         medium=medium)
        for n in (a, b):
            n.protocol.subscribe(".a")
            n.start()
        sim.run(until=5.0)
        assert 1 in a.protocol.neighborhood
        assert 0 in b.protocol.neighborhood

    def test_event_flows_between_nodes(self, sim, rngs):
        medium = WirelessMedium(sim, RadioConfig(range_override_m=100.0),
                                rng=rngs.stream("medium"))
        a, _ = make_node(sim, rngs, node_id=0, pos=Vec2(0, 0),
                         medium=medium)
        b, _ = make_node(sim, rngs, node_id=1, pos=Vec2(50, 0),
                         medium=medium)
        for n in (a, b):
            n.protocol.subscribe(".a")
            n.start()
        # Publish off the heartbeat instants (whole seconds plus a few
        # jitter draws of at most 0.05 s): a publish on a beacon
        # contends with both nodes' frames and the paper's optimistic
        # neighbour marking
        # (Fig. 9 lines 7-11) never retries a frame lost between two
        # statically connected peers — churn is the paper's repair path.
        sim.run(until=2.5)
        event = make_event(publisher=0, topic=".a.x", validity=60.0,
                           now=sim.now)
        a.protocol.publish(event)
        sim.run(until=6.0)
        assert b.delivered_events == [event]
