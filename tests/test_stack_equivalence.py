"""Paired verification of the stack refactor (acceptance criterion).

The composed :class:`~repro.core.protocol.FrugalPubSub` and the three
flooding baselines must be **bit-identical** to the frozen pre-stack
monoliths in :mod:`repro.baselines.reference` — same RNG draw order,
same timer ordering, same summaries to the last float — across the
fig11 (random waypoint), fig14 (city section) and fig17 (frugality
comparison) scenario families plus the energy-lifetime and
rwp-churn-faults instrumentations, and across all three execution
paths: serial, ``--jobs 4``, and cached runs, all byte-equal.

This is the same standard PR 4 met for fault instrumentation (empty
config vs none): the old implementation stays in-tree, registered under
a hidden ``legacy-*`` name, and every family runs both.

The monoliths recompute every derived value on every reception, on
purpose: that is what makes this suite the proof that the change-driven
membership layer (cached advertised set, memoised matching verdict,
skipped delay recomputation) equals recompute-everything.  Three
families aim at its invalidation paths — a pure publisher whose
publication expires mid-run, a two-row event table that evicts own
publications, and a scripted world whose processes subscribe,
unsubscribe and publish throughout the run.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.core import FrugalConfig
from repro.core.events import EventFactory
from repro.energy import DutyCycleConfig, EnergyConfig, PowerProfile
from repro.faults import (ChurnConfig, FaultConfig, FaultEvent, FaultPlan,
                          LinkLossConfig, RegionalOutage)
from repro.harness.cache import ResultCache
from repro.harness.parallel import ParallelRunner
from repro.harness.scenario import (CitySectionSpec, Publication,
                                    RandomWaypointSpec, ScenarioConfig,
                                    build_world)
from repro.net import RadioConfig

SEEDS = [0, 1]

#: Composed protocol name -> frozen pre-stack reference name.
LEGACY = {
    "frugal": "legacy-frugal",
    "simple-flooding": "legacy-simple-flooding",
    "interest-flooding": "legacy-interest-flooding",
    "neighbor-flooding": "legacy-neighbor-flooding",
}


def _rwp(protocol: str) -> ScenarioConfig:
    """The fig11/fig17 random-waypoint family, shrunk for the suite."""
    return ScenarioConfig(
        n_processes=8,
        mobility=RandomWaypointSpec(width=900.0, height=900.0,
                                    speed_min=10.0, speed_max=10.0),
        duration=35.0, warmup=4.0,
        protocol=protocol,
        subscriber_fraction=0.75,
        publications=(Publication(at=2.0, validity=28.0),
                      Publication(at=5.0, validity=28.0, publisher=1)))


def _city(protocol: str) -> ScenarioConfig:
    """The fig14 city-section family, shrunk for the suite."""
    return ScenarioConfig(
        n_processes=6,
        mobility=CitySectionSpec(),
        duration=28.0, warmup=5.0,
        protocol=protocol,
        radio=RadioConfig.paper_city_section(),
        subscriber_fraction=0.6,
        publications=(Publication(at=2.0, validity=22.0),))


def _energy(protocol: str) -> ScenarioConfig:
    """The energy-lifetime family: finite batteries + duty cycling."""
    return _rwp(protocol).with_changes(energy=EnergyConfig(
        profile=PowerProfile.power_save(),
        battery_capacity_j=30.0,
        duty_cycle=DutyCycleConfig.heartbeat_aligned(1.0, 0.5)))


def _faults(protocol: str) -> ScenarioConfig:
    """The rwp-churn-faults family: plan + churn + outage + loss."""
    return _rwp(protocol).with_changes(faults=FaultConfig(
        plan=FaultPlan((FaultEvent(at=5.0, kind="crash", fraction=0.25,
                                   duration=10.0),)),
        churn=ChurnConfig(mean_session_s=15.0, mean_rest_s=5.0,
                          fraction=0.5),
        outages=(RegionalOutage(at=8.0, duration=6.0,
                                center=(450.0, 450.0), radius_m=250.0),),
        loss=LinkLossConfig(link_loss_min=0.05, link_loss_max=0.15,
                            burst_rate_per_s=0.05,
                            burst_mean_duration_s=2.0,
                            burst_loss_probability=0.8)))


def _pure_publisher(protocol: str) -> ScenarioConfig:
    """A subscriber of the event topic publishes on the *other* topic.

    It advertises that topic only through its own publication, so when
    the short validity runs out mid-run its advertised set — and its
    matching verdict with every process of the other population —
    changes at that instant, with no table mutation to announce it.
    """
    base = _rwp(protocol)
    return base.with_changes(
        subscriber_fraction=0.5,
        publications=(
            Publication(at=2.0, validity=9.0, topic=base.other_topic),
            Publication(at=3.0, validity=28.0),
            Publication(at=14.0, validity=6.5, topic=base.other_topic,
                        publisher=1)))


def _tiny_table(protocol: str) -> ScenarioConfig:
    """A two-row event table: publications evict one another (own ones
    included), so the advertised set follows the store, not the clock."""
    return _rwp(protocol).with_changes(
        frugal=FrugalConfig(event_table_capacity=2),
        publications=tuple(
            Publication(at=2.0 + 1.5 * i, validity=25.0 - i,
                        publisher=i % 3,
                        topic=None if i % 2 else ".paper.events.demo.sub")
            for i in range(8)))


#: (family, protocol) -> the composed-protocol config.  Every family the
#: acceptance criterion names, with every refactored protocol where the
#: family compares protocols (fig17) and the family's canonical
#: protocols elsewhere.
PAIRS = {
    ("fig11-rwp", "frugal"): _rwp("frugal"),
    ("fig14-city", "frugal"): _city("frugal"),
    ("fig17-frugality", "frugal"): _rwp("frugal").with_changes(
        subscriber_fraction=0.6),
    ("fig17-frugality", "simple-flooding"): _rwp("simple-flooding"),
    ("fig17-frugality", "interest-flooding"): _rwp("interest-flooding"),
    ("fig17-frugality", "neighbor-flooding"): _rwp("neighbor-flooding"),
    ("energy-lifetime", "frugal"): _energy("frugal"),
    ("energy-lifetime", "neighbor-flooding"): _energy("neighbor-flooding"),
    ("rwp-churn-faults", "frugal"): _faults("frugal"),
    ("rwp-churn-faults", "simple-flooding"): _faults("simple-flooding"),
    ("rwp-churn-faults", "interest-flooding"): _faults("interest-flooding"),
    ("pure-publisher-expiry", "frugal"): _pure_publisher("frugal"),
    ("tiny-event-table", "frugal"): _tiny_table("frugal"),
    ("tiny-tables-churn-faults", "frugal"): _faults("frugal").with_changes(
        frugal=FrugalConfig(event_table_capacity=2,
                            neighborhood_capacity=2)),
}

PAIR_IDS = [f"{family}-{proto}" for family, proto in PAIRS]


def summaries_bytes(multi) -> bytes:
    """A byte-exact fingerprint of every per-seed summary."""
    return json.dumps([r.summary() for r in multi.results],
                      sort_keys=True).encode()


@pytest.fixture(scope="module")
def pool():
    """One jobs-4 spawn pool for the whole module (workers cost seconds)."""
    with ParallelRunner(jobs=4) as runner:
        yield runner


@pytest.fixture(scope="module")
def serial_results():
    """Serial runs of every pair, shared across the test classes."""
    runner = ParallelRunner(jobs=1)
    out = {}
    for (family, proto), config in PAIRS.items():
        legacy = config.with_changes(protocol=LEGACY[proto])
        out[(family, proto)] = (runner.run_seeds(config, SEEDS),
                                runner.run_seeds(legacy, SEEDS))
    return out


class TestComposedEqualsLegacy:
    @pytest.mark.parametrize("key", list(PAIRS), ids=PAIR_IDS)
    def test_serial_bit_identical(self, key, serial_results):
        composed, legacy = serial_results[key]
        for ours, theirs in zip(composed.results, legacy.results):
            # Exact float equality — the refactor contract.
            assert ours.summary() == theirs.summary()
            assert ours.sim_events_processed == theirs.sim_events_processed
            assert ours.subscriber_ids == theirs.subscriber_ids
            assert ours.per_event_reports() == theirs.per_event_reports()
            # The unified counters agree too: the layers tally exactly
            # what the monolith's inline counters tallied.
            assert ours.protocol_counters() == theirs.protocol_counters()
        assert summaries_bytes(composed) == summaries_bytes(legacy)

    @pytest.mark.parametrize("key", list(PAIRS), ids=PAIR_IDS)
    def test_jobs4_byte_equal(self, key, serial_results, pool):
        composed_serial, legacy_serial = serial_results[key]
        fanned = pool.run_seeds(PAIRS[key], SEEDS)
        assert summaries_bytes(fanned) == summaries_bytes(composed_serial)
        assert summaries_bytes(fanned) == summaries_bytes(legacy_serial)

    @pytest.mark.parametrize("key", list(PAIRS), ids=PAIR_IDS)
    def test_cached_byte_equal(self, key, serial_results, tmp_path):
        composed_serial, legacy_serial = serial_results[key]
        cache = ResultCache(tmp_path / "cache")
        warm = ParallelRunner(jobs=1, cache=cache)
        first = warm.run_seeds(PAIRS[key], SEEDS)
        replay = ParallelRunner(jobs=1, cache=cache)
        second = replay.run_seeds(PAIRS[key], SEEDS)
        assert replay.stats.executed == 0, \
            "rerun must answer every cell from the cache"
        assert summaries_bytes(first) == summaries_bytes(composed_serial)
        assert summaries_bytes(second) == summaries_bytes(composed_serial)
        assert summaries_bytes(second) == summaries_bytes(legacy_serial)


DYNAMICS_TOPICS = (".paper.events.demo", ".paper.events", ".paper.other",
                   ".paper.other.deep")


def _run_subscription_dynamics(protocol: str, seed: int):
    """The subscription-dynamics family: ``ScenarioConfig`` has no field
    for subscription changes, so the world is built by the harness and
    scripted here — sixty seeded subscribe / unsubscribe / publish steps
    spread over the run, publications short enough to expire inside it,
    among processes whose speeds keep changing.  Returns everything
    observable about the outcome.
    """
    # Legs of 4-40 m/s on a small field under a 4 s heartbeat bound:
    # speeds differ per process and per leg, and the adapted period is
    # not pinned to the bound, so Fig. 8 has something to follow.
    config = _rwp(protocol).with_changes(
        seed=seed, publications=(),
        mobility=RandomWaypointSpec(width=600.0, height=600.0,
                                    speed_min=4.0, speed_max=40.0,
                                    pause_time=0.5),
        frugal=FrugalConfig(hb_upper_bound=4.0))
    world = build_world(config)
    sim, nodes = world.sim, world.nodes
    script = random.Random(seed)
    factories = {node.id: EventFactory(node.id) for node in nodes}

    def publish(node, topic, validity):
        node.protocol.publish(factories[node.id].create(
            topic, validity=validity, now=sim.now, payload_bytes=64))

    for step in range(60):
        at = 1.0 + step * 0.6 + script.random() * 0.5
        node = script.choice(nodes)
        topic = script.choice(DYNAMICS_TOPICS)
        action = script.choice(("subscribe", "unsubscribe", "publish"))
        if action == "publish":
            sim.call_at(at, publish, node, topic,
                        script.choice((2.0, 7.5, 30.0)))
        else:
            sim.call_at(at, getattr(node.protocol, action), topic)
    for node in nodes:
        node.start()
    sim.run(until=45.0)
    return {
        "events": sim.events_processed,
        "frames": (world.medium.frames_sent, world.medium.frames_delivered,
                   world.medium.frames_collided),
        "nodes": [(node.protocol.counters.as_dict(),
                   node.protocol.hb_delay,
                   sorted(node.protocol.subscriptions),
                   [e.event_id for e in node.delivered_events])
                  for node in nodes],
    }


class TestSubscriptionDynamicsEqualsLegacy:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_scripted_world_bit_identical(self, seed):
        composed = _run_subscription_dynamics("frugal", seed)
        legacy = _run_subscription_dynamics("legacy-frugal", seed)
        assert composed == legacy
        # The script must actually have exercised the stack.
        totals = [sum(counters[key] for counters, *_ in composed["nodes"])
                  for key in ("heartbeats_sent", "batches_sent",
                              "delivered_count")]
        assert all(total > 0 for total in totals), totals


class TestLegacyEntriesStayHidden:
    def test_hidden_from_sweeps_valid_in_configs(self):
        from repro.core import registry
        names = registry.names()
        for legacy_name in LEGACY.values():
            assert legacy_name not in names
            assert legacy_name in registry.names(include_hidden=True)
            # Still a perfectly valid config (the harness can run it).
            _rwp("frugal").with_changes(protocol=legacy_name)
