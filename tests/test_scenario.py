"""Tests for the scenario harness (repro.harness.scenario)."""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.baselines import SimpleFlooding
from repro.core import registry
from repro.core.protocol import FrugalPubSub
from repro.energy import EnergyConfig, PowerProfile
from repro.faults import ChurnConfig, FaultConfig
from repro.harness.scenario import (EVENT_TOPIC, OTHER_TOPIC,
                                    CitySectionSpec, Publication,
                                    RandomWaypointSpec, ScenarioConfig,
                                    StationarySpec, build_world,
                                    run_scenario, select_subscribers,
                                    wire_world)
from repro.net import WirelessMedium
from repro.sim import RngRegistry, Simulator


def tiny_config(**changes) -> ScenarioConfig:
    base = ScenarioConfig(
        n_processes=8,
        mobility=RandomWaypointSpec(width=600.0, height=600.0,
                                    speed_min=10.0, speed_max=10.0),
        duration=60.0, warmup=5.0, seed=3,
        subscriber_fraction=0.75,
        publications=(Publication(at=2.0, validity=40.0),))
    return base.with_changes(**changes)


class TestConfigValidation:
    def test_publication_outside_window_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            tiny_config(publications=(
                Publication(at=100.0, validity=10.0),))

    def test_bad_protocol_rejected(self):
        with pytest.raises(ValueError, match="protocol"):
            tiny_config(protocol="carrier-pigeon")

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            tiny_config(subscriber_fraction=0.0)

    def test_bad_process_count_rejected(self):
        with pytest.raises(ValueError):
            tiny_config(n_processes=0)

    @pytest.mark.parametrize("field, bad", [
        ("validity", 0.0),
        ("validity", -5.0),
        ("publisher", -1),
    ])
    def test_bad_publication_rejected_when_built(self, field, bad):
        """Caught where the config is written, not at the publish
        instant after a whole warm-up."""
        with pytest.raises(ValueError, match=rf"Publication\.{field}"):
            Publication(**{"at": 5.0, "validity": 90.0, field: bad})

    @pytest.mark.parametrize("field, changes", [
        ("publications[0].topic", {"publications": (
            Publication(at=2.0, validity=40.0, topic="paper.events"),)}),
        ("publications[1].topic", {"publications": (
            Publication(at=2.0, validity=40.0),
            Publication(at=3.0, validity=40.0, topic=".paper..events"))}),
    ])
    def test_bad_topic_rejected_when_built(self, field, changes,
                                           monkeypatch):
        import repro.harness.scenario as scenario
        monkeypatch.setattr(scenario, "build_world",
                            lambda config: pytest.fail("world built"))
        with pytest.raises(ValueError) as err:
            scenario.run_scenario(tiny_config(**changes))
        assert str(err.value).startswith(f"{field}: ")


class TestMobilitySpecs:
    def test_rwp_spec_builds_random_waypoint(self):
        from repro.mobility import RandomWaypoint
        spec = RandomWaypointSpec(100.0, 100.0, 1.0, 5.0)
        assert isinstance(spec.build(0), RandomWaypoint)

    def test_rwp_spec_zero_speed_builds_stationary(self):
        from repro.mobility import Stationary
        spec = RandomWaypointSpec(100.0, 100.0, 0.0, 0.0)
        assert isinstance(spec.build(0), Stationary)

    def test_city_spec_shares_one_map(self):
        spec = CitySectionSpec(map_seed=7)
        assert spec.build(0).map is spec.build(1).map

    def test_stationary_spec(self):
        from repro.mobility import Stationary
        assert isinstance(StationarySpec(10.0, 10.0).build(0), Stationary)


class TestProtocolFactory:
    def test_known_protocols(self):
        assert isinstance(registry.create("frugal", tiny_config()),
                          FrugalPubSub)
        assert isinstance(
            registry.create("simple-flooding",
                            tiny_config(protocol="simple-flooding")),
            SimpleFlooding)

    def test_registry_backed_names(self):
        from repro.baselines import GossipPubSub
        names = registry.names()
        assert "gossip" in names and "frugal" in names
        assert not any(name.startswith("legacy-") for name in names)
        assert isinstance(
            registry.create("gossip", tiny_config(protocol="gossip")),
            GossipPubSub)


class TestSubscriberSelection:
    def test_count_rounds_to_fraction(self):
        cfg = tiny_config(subscriber_fraction=0.5)
        subs = select_subscribers(cfg, RngRegistry(cfg.seed))
        assert len(subs) == 4

    def test_at_least_one_subscriber(self):
        cfg = tiny_config(subscriber_fraction=0.01)
        subs = select_subscribers(cfg, RngRegistry(cfg.seed))
        assert len(subs) == 1

    def test_deterministic_per_seed(self):
        cfg = tiny_config()
        a = select_subscribers(cfg, RngRegistry(5))
        b = select_subscribers(cfg, RngRegistry(5))
        c = select_subscribers(cfg, RngRegistry(6))
        assert a == b
        assert a != c or len(a) == cfg.n_processes


class TestBuildWorld:
    def test_world_is_fully_wired(self):
        cfg = tiny_config()
        world = build_world(cfg)
        assert len(world.nodes) == cfg.n_processes
        assert len(world.medium.nodes) == cfg.n_processes
        assert world.collector.record(world.nodes).node_count == \
            cfg.n_processes
        assert all(not n.alive for n in world.nodes)    # not started yet

    def test_subscriber_topics_assigned(self):
        world = build_world(tiny_config())
        from repro.core import Topic
        for node in world.nodes:
            topics = node.protocol.subscriptions
            if node.id in world.subscriber_ids:
                assert Topic(EVENT_TOPIC) in topics
            else:
                assert Topic(OTHER_TOPIC) in topics


    def test_build_world_schedules_nothing(self):
        """``build_world`` hands back the whole population unstarted
        and walks none of the lifecycle steps: no publication is armed
        and nothing is recorded until a caller asks (the e2e benchmark's
        set-up path starts the nodes itself)."""
        cfg = tiny_config()
        world = build_world(cfg)
        assert [n.id for n in world.nodes] == list(range(cfg.n_processes))
        assert all(not n.alive for n in world.nodes)
        assert world.sim.pending == 0
        assert world.published == []
        world.schedule_publications(cfg)
        assert world.sim.pending == len(cfg.publications)


class TestWorldLifecycle:
    """The steps ``run_scenario`` and the sharded engine both walk."""

    @staticmethod
    def _partial_world(cfg, absent):
        sim = Simulator()
        rngs = RngRegistry(cfg.seed)
        medium = WirelessMedium(sim, cfg.radio, config=cfg.medium,
                                sizes=cfg.sizes, rng=rngs.stream("medium"))
        return wire_world(cfg, sim, rngs, medium,
                          [i for i in range(cfg.n_processes)
                           if i not in absent])

    def test_only_resident_publishers_are_armed(self):
        cfg = tiny_config(publications=(
            Publication(at=2.0, validity=30.0, publisher=1),
            Publication(at=3.0, validity=30.0, publisher=0),
            Publication(at=4.0, validity=30.0, publisher=0)))
        subscribers = select_subscribers(cfg, RngRegistry(cfg.seed))
        here, elsewhere = subscribers[0], subscribers[1]
        world = self._partial_world(cfg, absent={elsewhere})
        assert world.subscriber_ids == subscribers   # the global draw
        assert elsewhere not in [n.id for n in world.nodes]
        world.start()
        before = world.sim.pending
        world.schedule_publications(cfg)
        assert world.sim.pending == before + 2
        world.sim.run(until=cfg.warmup + 10.0)
        # (publication index, event), in firing order; one factory per
        # publisher, so its sequence numbers run on.
        assert [(index, event.event_id.publisher, event.event_id.seq)
                for index, event in world.published] == \
            [(1, here, 0), (2, here, 1)]
        assert set(world.collector.published) == \
            {event.event_id for _, event in world.published}

    def test_open_window_baselines_the_protocol_counters(self):
        cfg = tiny_config(publications=())
        world = build_world(cfg)
        world.start()
        world.sim.run(until=10.0)
        world.open_window()
        world.sim.run(until=11.0)
        metrics, _, _ = world.close()
        lifetime = sum(n.protocol.counters.heartbeats_sent
                       for n in world.nodes)
        window = metrics.protocol_totals.heartbeats_sent
        assert 0 < window < lifetime


class TestRunScenario:
    def test_end_to_end_delivers(self):
        result = run_scenario(tiny_config())
        assert result.published_events
        assert 0.0 <= result.reliability() <= 1.0
        assert result.reliability() > 0.5      # dense little world

    def test_summary_keys(self):
        result = run_scenario(tiny_config())
        assert set(result.summary()) == {
            "reliability", "bandwidth_bytes", "events_sent",
            "duplicates", "parasites"}

    def test_same_seed_same_outcome(self):
        a = run_scenario(tiny_config())
        b = run_scenario(tiny_config())
        assert a.summary() == b.summary()

    def test_different_seed_different_traffic(self):
        a = run_scenario(tiny_config(seed=1))
        b = run_scenario(tiny_config(seed=2))
        assert a.collector.total_bytes() != b.collector.total_bytes()

    def test_warmup_traffic_not_counted(self):
        """A scenario with no publications and a warm-up covering almost
        the whole run counts almost nothing."""
        quiet = tiny_config(publications=(), warmup=60.0, duration=1.0)
        result = run_scenario(quiet)
        busy = tiny_config(publications=(), warmup=1.0, duration=60.0)
        other = run_scenario(busy)
        assert result.collector.total_bytes() < other.collector.total_bytes()

    def test_publisher_is_a_subscriber(self):
        result = run_scenario(tiny_config())
        publisher = result.published_events[0].event_id.publisher
        assert publisher in result.subscriber_ids

    def test_publisher_rotation_by_index(self):
        cfg = tiny_config(publications=(
            Publication(at=2.0, validity=30.0, publisher=0),
            Publication(at=4.0, validity=30.0, publisher=1)))
        result = run_scenario(cfg)
        pubs = [e.event_id.publisher for e in result.published_events]
        assert pubs[0] == result.subscriber_ids[0]
        assert pubs[1] == result.subscriber_ids[1]

    def test_protocol_counters_exclude_warmup(self):
        """Protocol counters must use the measurement window, like
        every other metric: a long warm-up adds no heartbeats."""
        cfg = tiny_config(warmup=20.0, duration=10.0,
                          publications=(Publication(at=1.0, validity=8.0),))
        counters = run_scenario(cfg).protocol_counters()
        assert counters.heartbeats_sent > 0
        # At the 1 s heartbeat bound, a lifetime tally would be about
        # n * (warmup + duration) beacons; the window bound is n *
        # duration (+ slack for jitter/rounding).
        assert counters.heartbeats_sent <= cfg.n_processes * 12.0

    def test_flooding_protocol_runs_too(self):
        result = run_scenario(tiny_config(protocol="simple-flooding"))
        assert result.reliability() == 1.0
        assert result.duplicates_per_process() > 10

    def test_survivor_ids_ascend_without_an_energy_model(self):
        """Everyone survives an un-instrumented run, listed in id
        order as the instrumented path lists them — even when the
        subscriber draw skips low ids."""
        cfg = tiny_config()
        result = run_scenario(cfg)
        assert result.subscriber_ids == [0, 2, 3, 5, 6, 7]
        assert result.survivor_ids() == list(range(cfg.n_processes))


def _unshared_summary(result) -> dict:
    """The summary assembled from the public per-metric methods, each
    deriving its own per-event reports (the pre-memo definition)."""
    out = {
        "reliability": result.reliability(),
        "bandwidth_bytes": result.bandwidth_per_process_bytes(),
        "events_sent": result.events_sent_per_process(),
        "duplicates": result.duplicates_per_process(),
        "parasites": result.parasites_per_process(),
    }
    if result.energy is not None:
        out.update({
            "joules_per_node": result.joules_per_node(),
            "joules_per_delivery": result.joules_per_delivery(),
            "lifetime_s": result.network_lifetime_s(),
            "survivor_fraction": result.survivor_fraction(),
            "survivor_reliability": result.survivor_reliability(),
        })
    if result.faults is not None:
        out.update({
            "availability": result.availability(),
            "churn_reliability": result.churn_reliability(),
            "recovery_latency_s": result.recovery_latency_s(),
            "downtime_s": result.mean_downtime_s(),
        })
    return out


def _bits(summary: dict) -> str:
    """Keys, order and float bits (``repr`` tells -0.0 from 0.0)."""
    return repr(list(summary.items()))


#: A plain result, mains and battery energy results (the battery one, in
#: a sparse world, loses half its nodes, so survivor reliability takes
#: its own path and differs from reliability) and a churned fault result.
MEMO_CASES = {
    "plain": {},
    "energy": {"energy": EnergyConfig(profile=PowerProfile.power_save())},
    "energy-deaths": {
        "mobility": RandomWaypointSpec(width=1500.0, height=1500.0,
                                       speed_min=10.0, speed_max=10.0),
        "energy": EnergyConfig(profile=PowerProfile.power_save(),
                               battery_capacity_j=12.15)},
    "faults": {"faults": FaultConfig(churn=ChurnConfig(
        mean_session_s=20.0, mean_rest_s=10.0))},
}


class TestSummaryMemo:
    @pytest.mark.parametrize("case", sorted(MEMO_CASES))
    def test_memoised_recomputed_and_pickled_are_bit_identical(self, case):
        result = run_scenario(tiny_config(**MEMO_CASES[case]))
        expected = _bits(_unshared_summary(result))
        fresh = pickle.loads(pickle.dumps(result))     # no memo yet
        assert _bits(result.summary()) == expected
        assert _bits(result.summary()) == expected     # from the memo
        assert _bits(pickle.loads(pickle.dumps(result)).summary()) \
            == expected
        assert _bits(fresh.summary()) == expected

    def test_battery_deaths_take_the_survivor_path(self):
        """The case above is only meaningful if some subscribers died,
        some survived, and the two reliabilities differ."""
        result = run_scenario(tiny_config(**MEMO_CASES["energy-deaths"]))
        dead = set(result.energy.depleted_ids())
        assert dead & set(result.subscriber_ids)
        assert set(result.subscriber_ids) - dead
        summary = result.summary()
        assert summary["survivor_reliability"] != summary["reliability"]

    def test_pickle_without_the_memo_field_still_summarises(self):
        result = run_scenario(tiny_config())
        result.summary()
        legacy = copy.copy(result)
        del vars(legacy)["_summary"]       # as written before the memo
        clone = pickle.loads(pickle.dumps(legacy))
        assert "_summary" not in vars(clone)
        assert clone.summary() == _unshared_summary(result)

    def test_mutating_the_returned_dict_leaves_the_memo(self):
        result = run_scenario(tiny_config())
        expected = _unshared_summary(result)
        handed_out = result.summary()
        handed_out["reliability"] = -1.0
        handed_out["extra"] = 1.0
        assert result.summary() == expected

    def test_memo_is_not_part_of_equality(self):
        result = run_scenario(tiny_config())
        unsummarised = copy.copy(result)
        result.summary()
        assert result == unsummarised
