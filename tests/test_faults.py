"""Fault & churn subsystem tests (repro.faults).

Covers the four fault mechanisms (declarative plans, stochastic churn,
regional outages, link/burst loss), their determinism, and the paired
no-op verification: an *empty* ``FaultConfig`` must be bit-identical to
``faults=None`` on every scenario family.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.events import EventFactory
from repro.faults import (ChurnConfig, FaultConfig, FaultEvent, FaultPlan,
                          FaultTimeline, LinkLossConfig, RegionalOutage)
from repro.harness.scenario import (EVENT_TOPIC, CitySectionSpec,
                                    FixedPositionsSpec, Publication,
                                    RandomWaypointSpec, ScenarioConfig,
                                    build_world, run_scenario)
from repro.net import RadioConfig
from repro.sim.space import Vec2


#: Every process subscribes to EVENT_TOPIC; events go to a subtopic.
SUBTOPIC = EVENT_TOPIC + ".x"


def rwp_config(**changes) -> ScenarioConfig:
    cfg = ScenarioConfig(
        n_processes=8,
        mobility=RandomWaypointSpec(width=900.0, height=900.0,
                                    speed_min=10.0, speed_max=10.0),
        duration=40.0, warmup=4.0, seed=3,
        subscriber_fraction=0.75,
        publications=(Publication(at=2.0, validity=30.0),))
    return cfg.with_changes(**changes)


def line_config(n=4, spacing=50.0, **changes) -> ScenarioConfig:
    cfg = ScenarioConfig(
        n_processes=n,
        mobility=FixedPositionsSpec(
            positions=tuple((i * spacing, 0.0) for i in range(n))),
        duration=100.0, warmup=0.0, seed=7,
        radio=RadioConfig(range_override_m=300.0))
    return cfg.with_changes(**changes)


# --------------------------------------------------------------------------
# Config validation
# --------------------------------------------------------------------------

class TestValidation:
    def test_fault_event_rejects_bad_kind(self):
        with pytest.raises(ValueError, match="kind"):
            FaultEvent(at=1.0, kind="explode", nodes=(0,))

    def test_fault_event_needs_exactly_one_target(self):
        with pytest.raises(ValueError, match="target"):
            FaultEvent(at=1.0, kind="crash")
        with pytest.raises(ValueError, match="target"):
            FaultEvent(at=1.0, kind="crash", nodes=(0,), fraction=0.5)

    def test_fault_event_duration_only_where_undoable(self):
        with pytest.raises(ValueError, match="duration"):
            FaultEvent(at=1.0, kind="recover", nodes=(0,), duration=5.0)
        with pytest.raises(ValueError, match="duration"):
            FaultEvent(at=1.0, kind="drain", nodes=(0,), duration=5.0)
        # crash and silence both undo fine
        assert FaultEvent(at=1.0, kind="crash", nodes=(0,),
                          duration=5.0).undo_kind == "recover"
        assert FaultEvent(at=1.0, kind="silence", fraction=0.5,
                          duration=5.0).undo_kind == "restore"

    def test_scenario_rejects_fault_outside_window(self):
        plan = FaultPlan((FaultEvent(at=50.0, kind="crash", nodes=(0,)),))
        with pytest.raises(ValueError, match="outside the measurement"):
            rwp_config(faults=FaultConfig(plan=plan))

    def test_scenario_rejects_fault_target_out_of_range(self):
        plan = FaultPlan((FaultEvent(at=1.0, kind="crash", nodes=(99,)),))
        with pytest.raises(ValueError, match="only 8 processes"):
            rwp_config(faults=FaultConfig(plan=plan))

    def test_scenario_rejects_churn_starting_after_window(self):
        churn = ChurnConfig(mean_session_s=10.0, mean_rest_s=5.0,
                            start_at=60.0)
        with pytest.raises(ValueError, match="churn start_at"):
            rwp_config(faults=FaultConfig(churn=churn))

    def test_churn_config_bounds(self):
        with pytest.raises(ValueError):
            ChurnConfig(mean_session_s=0.0, mean_rest_s=5.0)
        with pytest.raises(ValueError):
            ChurnConfig(mean_session_s=5.0, mean_rest_s=5.0, fraction=1.5)
        with pytest.raises(ValueError):
            ChurnConfig(mean_session_s=5.0, mean_rest_s=5.0,
                        distribution="zipf")

    def test_outage_bounds(self):
        with pytest.raises(ValueError):
            RegionalOutage(at=1.0, duration=0.0, center=(0.0, 0.0),
                           radius_m=10.0)
        with pytest.raises(ValueError):
            RegionalOutage(at=1.0, duration=5.0, center=(0.0, 0.0),
                           radius_m=10.0, kind="meteor")

    def test_loss_config_bounds(self):
        with pytest.raises(ValueError):
            LinkLossConfig(link_loss_min=0.5, link_loss_max=0.2)
        with pytest.raises(ValueError):
            LinkLossConfig(burst_rate_per_s=0.1)   # no duration
        assert not LinkLossConfig().enabled
        assert LinkLossConfig(link_loss_max=0.1).enabled

    def test_publication_inside_warmup_is_impossible(self):
        """Satellite regression: Publication.at is relative to the end
        of warm-up, so the only way into warm-up — a negative offset —
        is rejected with a message saying exactly that."""
        with pytest.raises(ValueError, match="warm-up"):
            rwp_config(publications=(Publication(at=-1.0, validity=10.0),))

    def test_publication_beyond_duration_still_rejected(self):
        with pytest.raises(ValueError, match="outside the measurement"):
            rwp_config(publications=(Publication(at=40.0, validity=10.0),))


# --------------------------------------------------------------------------
# Paired no-op verification
# --------------------------------------------------------------------------

#: One config per scenario family; an empty FaultConfig must change
#: nothing anywhere.
FAMILIES = {
    "rwp-frugal": lambda: rwp_config(),
    "rwp-gossip": lambda: rwp_config(protocol="gossip-flooding"),
    "city-frugal": lambda: ScenarioConfig(
        n_processes=6, mobility=CitySectionSpec(),
        duration=30.0, warmup=5.0, seed=2,
        radio=RadioConfig.paper_city_section(),
        publications=(Publication(at=2.0, validity=25.0),)),
    "line-frugal": lambda: line_config(),
}


class TestNoopPairing:
    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_empty_faultconfig_is_bit_identical(self, name):
        plain = run_scenario(FAMILIES[name]())
        empty = run_scenario(FAMILIES[name]().with_changes(
            faults=FaultConfig()))
        base = plain.summary()
        # Exact float equality on every shared metric, like the
        # spatial-index pairing tests.
        assert {k: empty.summary()[k] for k in base} == base
        assert empty.sim_events_processed == plain.sim_events_processed
        assert empty.subscriber_ids == plain.subscriber_ids
        assert empty.per_event_reports() == plain.per_event_reports()
        # And the fault columns report a perfectly healthy network.
        assert empty.summary()["availability"] == 1.0
        assert empty.summary()["churn_reliability"] == \
            base["reliability"]
        assert empty.summary()["downtime_s"] == 0.0


# --------------------------------------------------------------------------
# Mechanisms
# --------------------------------------------------------------------------

class TestPlan:
    def test_fraction_targets_draw_deterministically(self):
        plan = FaultPlan((FaultEvent(at=5.0, kind="crash", fraction=0.5,
                                     duration=10.0),))
        cfg = rwp_config(faults=FaultConfig(plan=plan))
        a, b = run_scenario(cfg), run_scenario(cfg)
        assert a.faults.down_intervals == b.faults.down_intervals
        assert len(a.faults.down_intervals) == 4    # half of 8

    def test_drain_is_permanent(self):
        cfg = line_config(faults=FaultConfig(plan=FaultPlan((
            FaultEvent(at=10.0, kind="drain", nodes=(3,)),))))
        world = build_world(cfg)
        for node in world.nodes:
            node.start()
        world.sim.run(until=20.0)
        victim = world.nodes[3]
        assert victim.depleted and not victim.alive
        assert victim.id not in world.medium.nodes
        victim.recover()                    # must refuse
        assert not victim.alive
        world.faults.finalize()
        assert world.faults.timeline.down_intervals[3] == [(10.0, 20.0)]

    def test_silence_queues_and_flushes(self):
        cfg = line_config(faults=FaultConfig(plan=FaultPlan((
            FaultEvent(at=5.0, kind="silence", nodes=(0,), duration=10.0),
        ))))
        world = build_world(cfg)
        for node in world.nodes:
            node.start()
        sim, nodes = world.sim, world.nodes
        sim.run(until=6.0)
        silenced = nodes[0]
        assert silenced.silenced and silenced.alive
        assert not silenced.listening
        event = EventFactory(0).create(SUBTOPIC, validity=200.0, now=sim.now)
        silenced.protocol.publish(event)    # queued, not on the air
        sim.run(until=10.0)
        assert all(event not in n.delivered_events for n in nodes[1:])
        sim.run(until=60.0)                 # restored at 15.0, flushes
        assert all(event in n.delivered_events for n in nodes[1:])


class TestOverlappingFaults:
    def test_silence_windows_nest(self):
        """Two overlapping silence windows: the radio only returns when
        the *last* one lifts (depth-counted, not boolean)."""
        cfg = line_config(faults=FaultConfig(plan=FaultPlan((
            FaultEvent(at=5.0, kind="silence", nodes=(0,), duration=20.0),
            FaultEvent(at=10.0, kind="silence", nodes=(0,),
                       duration=30.0)))))
        world = build_world(cfg)
        for node in world.nodes:
            node.start()
        sim, victim = world.sim, world.nodes[0]
        sim.run(until=12.0)
        assert victim.silenced
        sim.run(until=30.0)          # first window lifted at 25.0
        assert victim.silenced, "inner window must keep the radio down"
        sim.run(until=45.0)          # second window lifted at 40.0
        assert not victim.silenced and victim.listening
        world.faults.finalize()
        # One contiguous down interval across both windows.
        assert world.faults.timeline.down_intervals[0] == [(5.0, 40.0)]

    def test_crash_outage_over_silenced_node_is_temporary(self):
        """A crash-kind outage hitting an already-silenced node must not
        make the crash permanent: the outage end restarts the process,
        the silence window's own restore returns the radio."""
        cfg = line_config(faults=FaultConfig(
            plan=FaultPlan((FaultEvent(at=5.0, kind="silence", nodes=(2,),
                                       duration=35.0),)),
            outages=(RegionalOutage(at=10.0, duration=20.0,
                                    center=(100.0, 0.0), radius_m=10.0,
                                    kind="crash"),)))
        world = build_world(cfg)
        for node in world.nodes:
            node.start()
        sim, victim = world.sim, world.nodes[2]
        sim.run(until=15.0)
        assert not victim.alive and victim.silenced
        sim.run(until=35.0)          # outage lifted at 30.0
        assert victim.alive, "outage end must restart the process"
        assert victim.silenced, "silence window still open"
        sim.run(until=60.0)          # silence lifted at 40.0
        assert victim.alive and victim.listening
        event = EventFactory(0).create(SUBTOPIC, validity=60.0, now=sim.now)
        world.nodes[0].protocol.publish(event)
        sim.run(until=90.0)
        assert event in victim.delivered_events


class TestChurn:
    def test_churn_produces_downtime_and_recoveries(self):
        cfg = rwp_config(faults=FaultConfig(churn=ChurnConfig(
            mean_session_s=10.0, mean_rest_s=5.0)))
        result = run_scenario(cfg)
        assert 0.0 < result.availability() < 1.0
        assert result.faults.recoveries
        assert result.mean_downtime_s() > 0.0

    def test_fixed_distribution_is_clockwork(self):
        cfg = line_config(faults=FaultConfig(churn=ChurnConfig(
            mean_session_s=30.0, mean_rest_s=10.0, distribution="fixed")))
        result = run_scenario(cfg)
        # Every node: up 30, down 10, up 30, down 10 ... over 100 s.
        for node_id in range(4):
            assert result.faults.down_intervals[node_id] == \
                [(30.0, 40.0), (70.0, 80.0)]
        assert result.availability() == pytest.approx(0.8)

    def test_churn_fraction_limits_membership(self):
        cfg = rwp_config(faults=FaultConfig(churn=ChurnConfig(
            mean_session_s=5.0, mean_rest_s=5.0, fraction=0.25)))
        result = run_scenario(cfg)
        assert len(result.faults.down_intervals) == 2   # quarter of 8

    def test_per_node_streams_are_independent(self):
        """Restricting churn to a fraction must not shift the members'
        session draws: member nodes keep identical traces."""
        full = run_scenario(rwp_config(faults=FaultConfig(
            churn=ChurnConfig(mean_session_s=8.0, mean_rest_s=4.0))))
        frac = run_scenario(rwp_config(faults=FaultConfig(
            churn=ChurnConfig(mean_session_s=8.0, mean_rest_s=4.0,
                              fraction=0.25))))
        for node_id in frac.faults.down_intervals:
            assert frac.faults.down_intervals[node_id] == \
                full.faults.down_intervals[node_id]


class TestOutage:
    def test_outage_hits_exactly_the_region(self):
        # Nodes at x = 0, 50, 100, ..., 350; region covers x <= 100.
        cfg = line_config(n=8, faults=FaultConfig(outages=(
            RegionalOutage(at=10.0, duration=20.0, center=(0.0, 0.0),
                           radius_m=100.0),)))
        result = run_scenario(cfg)
        assert sorted(result.faults.down_intervals) == [0, 1, 2]
        for node_id in (0, 1, 2):
            assert result.faults.down_intervals[node_id] == [(10.0, 30.0)]
        assert result.faults.outages == [(10.0, 3)]

    def test_crash_outage_loses_state_silence_keeps_it(self):
        def run(kind):
            cfg = line_config(faults=FaultConfig(outages=(
                RegionalOutage(at=30.0, duration=30.0, center=(0.0, 0.0),
                               radius_m=500.0, kind=kind),)),
                publications=(Publication(at=2.0, validity=20.0),))
            return run_scenario(cfg)
        # The event is delivered before the outage either way; what
        # differs is protocol state across it: crashed nodes restart
        # empty and must re-sync, observable as different traffic after
        # the window lifts.
        silence = run("silence")
        crash = run("crash")
        assert silence.reliability() == crash.reliability() == 1.0
        # Crashed nodes restart empty and re-announce; silenced ones
        # resume with full neighbour tables — strictly less re-sync
        # traffic after the window lifts.
        assert crash.sim_events_processed != silence.sim_events_processed


class TestLoss:
    def test_per_link_probability_is_stable_and_in_range(self):
        cfg = line_config(faults=FaultConfig(loss=LinkLossConfig(
            link_loss_min=0.2, link_loss_max=0.6)))
        world = build_world(cfg)
        process = world.faults.loss_process
        p1 = process.link_probability(0, 1)
        assert 0.2 <= p1 <= 0.6
        assert process.link_probability(0, 1) == p1        # cached
        assert process.link_probability(1, 0) != p1        # directed

    def test_bursts_start_and_drop_frames(self):
        cfg = line_config(faults=FaultConfig(loss=LinkLossConfig(
            burst_rate_per_s=0.05, burst_mean_duration_s=5.0,
            burst_loss_probability=1.0)))
        world = build_world(cfg)
        for node in world.nodes:
            node.start()
        world.sim.run(until=100.0)
        # ~5 expected bursts over 100 s; at least one must have fired
        # and eaten heartbeat traffic.
        assert world.faults.loss_process.bursts_started > 0
        assert world.medium.frames_lost_fault > 0
        rerun = run_scenario(cfg)
        assert rerun.summary() == run_scenario(cfg).summary()

    def test_loss_counts_on_the_medium(self):
        cfg = line_config(faults=FaultConfig(loss=LinkLossConfig(
            link_loss_min=0.5, link_loss_max=0.5)))
        world = build_world(cfg)
        for node in world.nodes:
            node.start()
        world.sim.run(until=30.0)
        assert world.medium.frames_lost_fault > 0


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------

class TestFaultMetrics:
    def test_churn_reliability_never_below_plain(self):
        cfg = rwp_config(faults=FaultConfig(churn=ChurnConfig(
            mean_session_s=8.0, mean_rest_s=30.0)))
        result = run_scenario(cfg)
        assert result.churn_reliability() >= result.reliability()

    def test_recovery_latency_measured_on_catchup(self):
        # Victim is down when the event is published, recovers while it
        # is still valid, and catches up from a holder.
        cfg = line_config(faults=FaultConfig(plan=FaultPlan((
            FaultEvent(at=1.0, kind="crash", nodes=(3,), duration=20.0),
        ))), publications=(Publication(at=3.0, validity=90.0),))
        result = run_scenario(cfg)
        assert result.reliability() == 1.0
        assert result.recovery_latency_s() > 0.0

    def test_flapping_node_yields_one_sample_per_catchup(self):
        """A node that crashes, recovers, crashes and recovers again
        before catching up contributes exactly ONE latency sample,
        measured from the recovery that actually delivered — earlier
        recoveries must not duplicate it or fold downtime in."""
        from repro.metrics import recovery_latencies
        cfg = line_config(faults=FaultConfig(plan=FaultPlan((
            FaultEvent(at=1.0, kind="crash", nodes=(3,), duration=8.0),
            FaultEvent(at=12.0, kind="crash", nodes=(3,), duration=8.0),
        ))), publications=(Publication(at=3.0, validity=90.0),))
        result = run_scenario(cfg)
        # Both recoveries (9.0 and 20.0) happened inside the event's
        # validity window...
        assert [t for t, n in result.faults.recoveries if n == 3] == \
            [9.0, 20.0]
        samples = recovery_latencies(result.collector,
                                     result.published_events, [3],
                                     result.faults.recoveries)
        delivered_at = result.collector.deliveries_of(
            result.published_events[0].event_id)[3]
        if delivered_at <= 12.0:
            # Caught up during the up-gap: attributed to recovery #1.
            assert samples == [pytest.approx(delivered_at - 9.0)]
        else:
            # Caught up after the second recovery only.
            assert samples == [pytest.approx(delivered_at - 20.0)]

    def test_timeline_predicates(self):
        timeline = FaultTimeline(window=(0.0, 100.0), n_nodes=2)
        timeline.down_intervals[0] = [(10.0, 30.0), (50.0, 60.0)]
        assert timeline.downtime_s(0) == pytest.approx(30.0)
        assert timeline.downtime_s(1) == 0.0
        assert timeline.availability() == pytest.approx(1 - 30 / 200)
        assert timeline.was_up_during(0, 0.0, 100.0)
        assert not timeline.was_up_during(0, 12.0, 28.0)
        assert timeline.was_up_during(0, 29.0, 31.0)

    def test_timeline_travels_through_pickle(self):
        cfg = rwp_config(faults=FaultConfig(churn=ChurnConfig(
            mean_session_s=10.0, mean_rest_s=5.0)))
        result = run_scenario(cfg)
        clone = pickle.loads(pickle.dumps(result))
        assert clone.summary() == result.summary()
        assert clone.faults.down_intervals == result.faults.down_intervals
        assert len(pickle.dumps(clone)) < 100_000


# --------------------------------------------------------------------------
# Medium support
# --------------------------------------------------------------------------

class TestSilenceRadioBilling:
    def test_duty_edges_inside_a_silence_window_stay_quiet(self):
        """The energy hook sees one sleep at silence start and one wake
        at silence end; duty-cycle sleep/wake edges *inside* the window
        must not re-notify (the radio is billed as sleeping
        throughout)."""
        world = build_world(line_config())
        for node in world.nodes:
            node.start()
        node = world.nodes[0]
        transitions = []
        node.on_radio_state = lambda n, state: transitions.append(state)
        node.silence()
        node.sleep()        # duty edge inside the window: silent
        node.wake()         # duty edge inside the window: silent
        node.unsilence()
        assert transitions == ["sleep", "wake"]

    def test_unsilence_while_duty_asleep_defers_the_wake(self):
        world = build_world(line_config())
        for node in world.nodes:
            node.start()
        node = world.nodes[0]
        transitions = []
        node.on_radio_state = lambda n, state: transitions.append(state)
        node.sleep()        # duty cycle first
        node.silence()      # already billed asleep: no extra sleep
        node.unsilence()    # still duty-asleep: no wake yet
        assert transitions == ["sleep"]
        node.wake()         # the duty cycler's own edge bills the wake
        assert transitions == ["sleep", "wake"]


class TestNodesWithin:
    def test_exact_membership(self):
        world = build_world(line_config(n=8))
        for node in world.nodes:
            node.start()
        members = world.medium.nodes_within(Vec2(0.0, 0.0), 120.0)
        assert [n.id for n in members] == [0, 1, 2]

    def test_radius_validation(self):
        world = build_world(line_config())
        with pytest.raises(ValueError):
            world.medium.nodes_within(Vec2(0.0, 0.0), -1.0)
