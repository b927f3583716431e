"""Failure injection: crashes, recoveries and lossy channels.

The paper's model (Section 2) lets processes "crash (or recover) at any
time" and runs over a collision-prone broadcast medium; these tests verify
the protocol degrades gracefully rather than wedging.

All failures are driven through the fault subsystem: crash/recover
schedules are declarative :class:`FaultPlan` entries and channel loss is
the fault layer's :class:`LinkLossConfig`, both carried by the
``ScenarioConfig`` the cluster is built from — no hand-rolled injection
helpers.
"""

from __future__ import annotations

import pytest

from repro.core.events import EventFactory
from repro.faults import (FaultConfig, FaultEvent, FaultPlan,
                          LinkLossConfig)
from repro.harness.scenario import (EVENT_TOPIC, FixedPositionsSpec,
                                    ScenarioConfig, build_world)
from repro.net import RadioConfig


#: Every process subscribes to EVENT_TOPIC; events go to a subtopic.
SUBTOPIC = EVENT_TOPIC + ".x"


def build_cluster(n=4, spacing=50.0, faults=None):
    """A started line-topology world: node ``i`` sits at ``(i*spacing, 0)``."""
    config = ScenarioConfig(
        n_processes=n,
        mobility=FixedPositionsSpec(
            positions=tuple((i * spacing, 0.0) for i in range(n))),
        duration=300.0, warmup=0.0, seed=1234,
        radio=RadioConfig(range_override_m=300.0),
        faults=faults)
    world = build_world(config)
    for node in world.nodes:
        node.start()
    return world


def crash_recover_plan(*events):
    """Shorthand for a ``FaultConfig`` carrying just a plan."""
    return FaultConfig(plan=FaultPlan(tuple(events)))


class TestCrashRecover:
    def test_crashed_node_misses_event_then_catches_up(self):
        world = build_cluster(faults=crash_recover_plan(
            FaultEvent(at=2.5, kind="crash", nodes=(3,)),
            FaultEvent(at=6.0, kind="recover", nodes=(3,))))
        sim, nodes = world.sim, world.nodes
        victim = nodes[3]
        sim.run(until=2.5)                  # plan has crashed the victim
        event = EventFactory(0).create(SUBTOPIC, validity=300.0, now=sim.now)
        nodes[0].protocol.publish(event)
        sim.run(until=6.0)
        assert victim.delivered_events == []
        sim.run(until=20.0)                 # recovered at 6.0 by the plan
        # Recovered with empty state, re-announces via heartbeats, gets
        # the still-valid event from any holder.
        assert victim.delivered_events == [event]

    def test_recovery_after_validity_expiry_gets_nothing(self):
        world = build_cluster(faults=crash_recover_plan(
            FaultEvent(at=2.5, kind="crash", nodes=(3,), duration=17.5)))
        sim, nodes = world.sim, world.nodes
        victim = nodes[3]
        sim.run(until=2.5)
        event = EventFactory(0).create(SUBTOPIC, validity=5.0, now=sim.now)
        nodes[0].protocol.publish(event)
        sim.run(until=40.0)                 # validity long gone before 20.0
        assert victim.delivered_events == []

    def test_publisher_crash_does_not_kill_dissemination(self):
        """Once the event reached one neighbour, the publisher is no
        longer needed (store-and-forward epidemic property)."""
        world = build_cluster(faults=crash_recover_plan(
            FaultEvent(at=2.5, kind="crash", nodes=(3,)),
            FaultEvent(at=6.0, kind="crash", nodes=(0,)),   # publisher dies
            FaultEvent(at=6.0, kind="recover", nodes=(3,))))
        sim, nodes = world.sim, world.nodes
        late = nodes[3]
        sim.run(until=2.5)
        event = EventFactory(0).create(SUBTOPIC, validity=300.0, now=sim.now)
        nodes[0].protocol.publish(event)
        sim.run(until=25.0)
        assert late.delivered_events == [event]

    def test_mass_crash_leaves_survivors_consistent(self):
        world = build_cluster(n=6, faults=crash_recover_plan(
            FaultEvent(at=5.0, kind="crash", nodes=(1, 2, 3))))
        sim, nodes = world.sim, world.nodes
        sim.run(until=2.5)
        event = EventFactory(0).create(SUBTOPIC, validity=300.0, now=sim.now)
        nodes[0].protocol.publish(event)
        sim.run(until=30.0)
        for node in (nodes[0], nodes[4], nodes[5]):
            assert event in node.delivered_events

    def test_flapping_node_survives(self):
        """Crash/recover cycles must not corrupt protocol state."""
        world = build_cluster(faults=crash_recover_plan(
            *(FaultEvent(at=2.5 + 4.0 * k, kind="crash", nodes=(2,),
                         duration=2.0) for k in range(4))))
        sim, nodes = world.sim, world.nodes
        flapper = nodes[2]
        sim.run(until=16.5)                 # four crash/recover cycles
        event = EventFactory(0).create(SUBTOPIC, validity=120.0, now=sim.now)
        nodes[0].protocol.publish(event)
        sim.run(until=40.0)
        assert event in flapper.delivered_events

    def test_timeline_records_the_injected_downtime(self):
        world = build_cluster(faults=crash_recover_plan(
            FaultEvent(at=2.0, kind="crash", nodes=(3,), duration=4.0)))
        world.sim.run(until=10.0)
        timeline = world.faults.timeline
        assert timeline.down_intervals[3] == [(2.0, 6.0)]
        assert timeline.recoveries == [(6.0, 3)]


class TestLossyChannel:
    @pytest.mark.parametrize("loss", [0.1, 0.3])
    def test_dissemination_survives_random_loss(self, loss):
        """Heartbeats repeat and id exchanges retrigger, so moderate
        random frame loss delays but does not prevent delivery."""
        world = build_cluster(faults=FaultConfig(
            loss=LinkLossConfig(link_loss_min=loss, link_loss_max=loss)))
        sim, nodes = world.sim, world.nodes
        sim.run(until=3.3)
        event = EventFactory(0).create(SUBTOPIC, validity=600.0, now=sim.now)
        nodes[0].protocol.publish(event)
        sim.run(until=120.0)
        delivered = sum(1 for n in nodes if event in n.delivered_events)
        assert delivered == len(nodes)

    def test_total_loss_blocks_everything(self):
        world = build_cluster(faults=FaultConfig(
            loss=LinkLossConfig(link_loss_min=1.0, link_loss_max=1.0)))
        sim, nodes = world.sim, world.nodes
        sim.run(until=3.3)
        event = EventFactory(0).create(SUBTOPIC, validity=60.0, now=sim.now)
        nodes[0].protocol.publish(event)
        sim.run(until=30.0)
        for node in nodes[1:]:
            assert node.delivered_events == []
            assert len(node.protocol.neighborhood) == 0
        assert world.medium.frames_lost_fault > 0
