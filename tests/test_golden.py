"""Pinned golden digests: the reference the deleted medium rungs and the
timer wheel used to provide by running next to the production path.

``tests/golden_digests.json`` holds one sha256 per scenario family x
seed, generated once from the flat O(N) scan with per-task timers (the
naive reference) before those twins were deleted.  The production engine
must keep reproducing every digest bit for bit; a change that moves one
is a behaviour change, not a refactor, and has to say so: delete the
pin's key from the file, regenerate it (``PYTHONPATH=src python -m
tests.test_golden`` computes and writes only the keys that are missing
and leaves every existing value alone) and name the moved pin in the
commit.  pytest is the drift check.

A scenario digest covers everything the twin suites compared: the
scenario summary, the summed protocol counters and the medium's five
frame counters, canonicalised by the result cache's own encoder.  A
storm digest covers the per-node receive trace and frame counters of a
scripted broadcast storm over parked stubs, where CSMA back-off and
loss draws are in play and the brute-force oracle of
``tests/helpers.py`` does not reach.  A sharded digest pins the retimed
universe (``shards >= 1``: constant cross-node latency, per-node MAC
streams) the same way, on the in-process backend: summary and protocol
counters only, since a merged run has no single medium to count frames
on.  K-, tile- and epoch-invariance say the shard plans agree with each
other; these pins say they agree with yesterday.

The ``stack-*`` and ``scripted-*`` pins stand where the frozen
pre-stack protocol monoliths used to run beside the composed stacks:
each was computed once under both implementations, found equal, and the
monoliths deleted.  A scripted digest covers a scripted world's kernel
event count, frame counters and every node's counters, heartbeat
period, subscriptions and delivered ids.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import random
from typing import Callable, Dict, Tuple

import pytest

from repro.core.config import FrugalConfig
from repro.energy import DutyCycleConfig, EnergyConfig, PowerProfile
from repro.faults import (ChurnConfig, FaultConfig, FaultEvent, FaultPlan,
                          LinkLossConfig, RegionalOutage)
from repro.harness.cache import ResultCache, canonical
from repro.harness.experiments import (city_scenario, energy_scenario,
                                       rwp_scenario)
from repro.harness.presets import QUICK
from repro.harness.scenario import (OTHER_TOPIC, CitySectionSpec,
                                    Publication, RandomWaypointSpec,
                                    ScenarioConfig, ScenarioResult,
                                    run_scenario)
from repro.metrics.collector import FRAME_COUNTERS
from repro.net import RadioConfig
from repro.net.medium import MediumConfig, WirelessMedium
from repro.net.messages import Heartbeat
from repro.sim import Simulator
from repro.sim.shard import ShardConfig
from repro.sim.space import Vec2
from tests.helpers import (SHARD_MATRIX, MediumStub, cap_warmup, dense_rwp,
                           quick_rwp, run_subscription_dynamics, small_rwp)

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_digests.json")


def _small_city() -> ScenarioConfig:
    return ScenarioConfig(
        n_processes=6,
        mobility=CitySectionSpec(),
        duration=30.0, warmup=5.0,
        radio=RadioConfig.paper_city_section(),
        publications=(Publication(at=2.0, validity=25.0),))


def _churn_faults(base: ScenarioConfig, session_s: float, rest_s: float,
                  outage_radius_m: float) -> ScenarioConfig:
    """Crash plan + churn + regional outage + link/burst loss."""
    return base.with_changes(faults=FaultConfig(
        plan=FaultPlan((FaultEvent(at=5.0, kind="crash", fraction=0.25,
                                   duration=10.0),)),
        churn=ChurnConfig(mean_session_s=session_s, mean_rest_s=rest_s,
                          fraction=0.5),
        outages=(RegionalOutage(at=8.0, duration=6.0,
                                center=(450.0, 450.0),
                                radius_m=outage_radius_m),),
        loss=LinkLossConfig(link_loss_min=0.05, link_loss_max=0.15,
                            burst_rate_per_s=0.05,
                            burst_mean_duration_s=2.0,
                            burst_loss_probability=0.8)))


#: family name -> (config builder, seeds).  ``small-*`` are hand-sized
#: worlds covering every subsystem (random waypoint, city section,
#: flooding, batteries + duty cycling, the full fault mix); ``quick-*``
#: are the quick-scale figure configs with a capped warm-up; ``fig-*``
#: are the uncapped quick-scale figure families.
FAMILIES: Dict[str, Tuple[Callable[[], ScenarioConfig], Tuple[int, ...]]] = {
    "small-rwp": (small_rwp, (0, 1)),
    "small-city": (_small_city, (0, 1)),
    "small-flooding": (
        lambda: small_rwp().with_changes(protocol="simple-flooding"),
        (0, 1)),
    "small-energy": (
        lambda: small_rwp().with_changes(energy=EnergyConfig(
            profile=PowerProfile.power_save(), battery_capacity_j=30.0,
            duty_cycle=DutyCycleConfig.heartbeat_aligned(1.0, 0.5))),
        (0, 1)),
    "small-churn-faults": (
        lambda: _churn_faults(small_rwp(), 15.0, 5.0, 250.0), (0, 1)),
    "small-crash-outage": (
        lambda: ScenarioConfig(
            n_processes=8,
            mobility=RandomWaypointSpec(width=900.0, height=900.0,
                                        speed_min=10.0, speed_max=10.0),
            duration=40.0, warmup=4.0, subscriber_fraction=0.75,
            publications=(Publication(at=2.0, validity=30.0),),
            faults=FaultConfig(outages=(RegionalOutage(
                at=5.0, duration=15.0, center=(450.0, 450.0),
                radius_m=300.0, kind="crash"),))), (3,)),
    "stationary-loss": (
        lambda: ScenarioConfig.random_waypoint_demo().with_changes(
            mobility=RandomWaypointSpec(width=1500.0, height=1500.0,
                                        speed_min=0.0, speed_max=0.0),
            medium=MediumConfig(frame_loss_probability=0.2),
            duration=60.0), (5,)),
    "quick-rwp": (quick_rwp, (0, 3, 7)),
    "quick-city": (
        lambda: cap_warmup(city_scenario(QUICK, validity=100.0,
                                         interest=0.6)), (0, 3)),
    "quick-flooding": (
        lambda: cap_warmup(rwp_scenario(QUICK, 10.0, 10.0, validity=120.0,
                                        interest=0.6, n_events=3,
                                        protocol="simple-flooding",
                                        duration=80.0)), (0, 3)),
    "quick-energy": (
        lambda: cap_warmup(energy_scenario(QUICK, "neighbor-flooding",
                                           battery_j=28.0, duration=60.0)),
        (0, 3)),
    "fig-rwp": (
        lambda: rwp_scenario(QUICK, 10.0, 10.0, validity=60.0,
                             interest=0.8), (0, 1)),
    "fig-city": (
        lambda: city_scenario(QUICK, validity=100.0, interest=0.6), (0, 1)),
    "fig-flooding": (
        lambda: rwp_scenario(QUICK, 10.0, 10.0, validity=60.0, interest=0.8,
                             protocol="simple-flooding"), (0, 1)),
    "fig-energy": (
        lambda: energy_scenario(QUICK, "neighbor-flooding", battery_j=28.0,
                                duration=60.0), (0, 1)),
    "fig-churn-faults": (
        lambda: _churn_faults(
            rwp_scenario(QUICK, 10.0, 10.0, validity=60.0, interest=0.8),
            20.0, 6.0, 300.0), (0, 1)),
}

def _stack_city(protocol: str) -> ScenarioConfig:
    return ScenarioConfig(
        n_processes=6,
        mobility=CitySectionSpec(),
        duration=28.0, warmup=5.0,
        protocol=protocol,
        radio=RadioConfig.paper_city_section(),
        subscriber_fraction=0.6,
        publications=(Publication(at=2.0, validity=22.0),))


def _stack_energy(protocol: str) -> ScenarioConfig:
    return dense_rwp(protocol).with_changes(energy=EnergyConfig(
        profile=PowerProfile.power_save(), battery_capacity_j=30.0,
        duty_cycle=DutyCycleConfig.heartbeat_aligned(1.0, 0.5)))


def _stack_faults(protocol: str) -> ScenarioConfig:
    return _churn_faults(dense_rwp(protocol), 15.0, 5.0, 250.0)


def _pure_publisher() -> ScenarioConfig:
    """A subscriber of the event topic publishes on the *other* topic:
    it advertises that topic only through its own publication, so the
    advertised set changes mid-run when the short validity runs out."""
    return dense_rwp().with_changes(
        subscriber_fraction=0.5,
        publications=(
            Publication(at=2.0, validity=9.0, topic=OTHER_TOPIC),
            Publication(at=3.0, validity=28.0),
            Publication(at=14.0, validity=6.5, topic=OTHER_TOPIC,
                        publisher=1)))


def _tiny_table() -> ScenarioConfig:
    """A two-row event table: publications evict one another (own ones
    included), so the advertised set follows the store, not the clock."""
    return dense_rwp().with_changes(
        frugal=FrugalConfig(event_table_capacity=2),
        publications=tuple(
            Publication(at=2.0 + 1.5 * i, validity=25.0 - i,
                        publisher=i % 3,
                        topic=None if i % 2 else ".paper.events.demo.sub")
            for i in range(8)))


#: The protocol-stack families: every built-in that once had a frozen
#: pre-stack twin, on the worlds that exercised the membership layer's
#: invalidation paths.  Pinned before the twins were deleted.
STACK: Dict[str, Tuple[Callable[[], ScenarioConfig], Tuple[int, ...]]] = {
    f"stack-{family}-{protocol}": (build, (0, 1))
    for (family, protocol), build in {
        ("fig11-rwp", "frugal"): lambda: dense_rwp("frugal"),
        ("fig14-city", "frugal"): lambda: _stack_city("frugal"),
        ("fig17-frugality", "frugal"): lambda: dense_rwp(
            "frugal").with_changes(subscriber_fraction=0.6),
        ("fig17-frugality", "simple-flooding"):
            lambda: dense_rwp("simple-flooding"),
        ("fig17-frugality", "interest-flooding"):
            lambda: dense_rwp("interest-flooding"),
        ("fig17-frugality", "neighbor-flooding"):
            lambda: dense_rwp("neighbor-flooding"),
        ("energy-lifetime", "frugal"): lambda: _stack_energy("frugal"),
        ("energy-lifetime", "neighbor-flooding"):
            lambda: _stack_energy("neighbor-flooding"),
        ("rwp-churn-faults", "frugal"): lambda: _stack_faults("frugal"),
        ("rwp-churn-faults", "simple-flooding"):
            lambda: _stack_faults("simple-flooding"),
        ("rwp-churn-faults", "interest-flooding"):
            lambda: _stack_faults("interest-flooding"),
        ("pure-publisher-expiry", "frugal"): _pure_publisher,
        ("tiny-event-table", "frugal"): _tiny_table,
        ("tiny-tables-churn-faults", "frugal"): lambda: _stack_faults(
            "frugal").with_changes(frugal=FrugalConfig(
                event_table_capacity=2, neighborhood_capacity=2)),
    }.items()}

#: Scripted worlds: family name -> (protocol, seeds).  The digest covers
#: everything :func:`tests.helpers.run_subscription_dynamics` returns.
SCRIPTED: Dict[str, Tuple[str, Tuple[int, ...]]] = {
    "scripted-subscription-dynamics": ("frugal", (0, 1)),
}

#: Scripted storms: family name -> (medium config, seeds).
STORMS: Dict[str, Tuple[MediumConfig, Tuple[int, ...]]] = {
    "storm": (MediumConfig(csma_enabled=False), tuple(range(6))),
    "storm-csma-loss": (MediumConfig(frame_loss_probability=0.2),
                        tuple(range(3))),
}

#: Sharded runs: the ``tests/test_shard.py`` families under a stripe
#: plan and a tile grid, seeds (0, 1) each.
SHARD_PLANS = ("2", "2x2")
SHARDED: Dict[str, Tuple[Callable[[], ScenarioConfig], Tuple[int, ...]]] = {
    f"shard-{name}/{plan}": (
        lambda build=build, plan=plan: build().with_changes(
            shards=ShardConfig.parse(plan)), (0, 1))
    for name, build in SHARD_MATRIX.items() for plan in SHARD_PLANS}

CASES = [f"{family}/s{seed}"
         for table in (FAMILIES, STORMS, SHARDED, STACK, SCRIPTED)
         for family, (_, seeds) in table.items() for seed in seeds]


def _sha256(payload) -> str:
    blob = json.dumps(canonical(payload), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def result_digest(result: ScenarioResult) -> str:
    """sha256 of one result's summary + protocol + frame counters (a
    merged sharded run has no single medium, hence no frames)."""
    payload = {"summary": result.summary(),
               "protocol": result.protocol_counters().as_dict()}
    if result.collector.frames is not None:
        payload["frames"] = result.collector.frames
    return _sha256(payload)


def scenario_config(family: str, seed: int) -> ScenarioConfig:
    """The config behind a scenario family's pin at ``seed``."""
    table = next(t for t in (FAMILIES, SHARDED, STACK) if family in t)
    return table[family][0]().with_changes(seed=seed)


def storm_digest(cfg: MediumConfig, seed: int) -> str:
    """sha256 of a randomized broadcast storm's full outcome: 120
    heartbeats inside half a second over 24 parked stubs."""
    layout_rng = random.Random(1000 + seed)
    sim = Simulator()
    medium = WirelessMedium(sim, RadioConfig(range_override_m=150.0),
                            config=cfg, rng=random.Random(seed))
    nodes = [MediumStub(i, Vec2(layout_rng.uniform(0, 600),
                                layout_rng.uniform(0, 600)))
             for i in range(24)]
    for node in nodes:
        medium.register(node)
    schedule_rng = random.Random(2000 + seed)
    for _ in range(120):
        at = schedule_rng.uniform(0.0, 0.5)
        sender = schedule_rng.randrange(len(nodes))
        sim.call_at(at, medium.broadcast, sender,
                    Heartbeat(sender=sender,
                              subscriptions=frozenset((".t",))))
    sim.run_until_idle()
    return _sha256({
        "received": {n.id: [m.sender for m in n.received] for n in nodes},
        "frames": {name: getattr(medium, name) for name in FRAME_COUNTERS},
    })


def case_digest(case: str) -> str:
    """Run the case behind one ``family/s<seed>`` key and digest it."""
    family, _, seed = case.rpartition("/s")
    if family in STORMS:
        return storm_digest(STORMS[family][0], int(seed))
    if family in SCRIPTED:
        return _sha256(run_subscription_dynamics(SCRIPTED[family][0],
                                                 int(seed)))
    return result_digest(run_scenario(scenario_config(family, int(seed))))


@pytest.fixture(autouse=True)
def _inproc_shards(monkeypatch):
    """The sharded pins run on the in-process backend (bit-identical to
    spawn, and Tier-1 spawns nothing extra)."""
    monkeypatch.setenv("REPRO_SHARD_BACKEND", "inproc")


@pytest.mark.parametrize("case", CASES)
def test_digest_matches_pin(case):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert case_digest(case) == golden[case], \
        f"{case}: behaviour drifted from the pinned reference"


@pytest.mark.parametrize("case", [
    "small-rwp/s0", "small-energy/s0", "small-churn-faults/s0",
    "shard-rwp-energy-dutycycle/2/s0"])
def test_cached_result_answers_like_the_fresh_one(case, tmp_path):
    """A result read back from the result cache (a pickle round trip,
    as a ``--jobs N`` worker's result also takes) equals the fresh one,
    re-derives the same summary from its records and reproduces the
    pin.  One case per record a result carries: metrics with frame
    counters, energy, the fault timeline, and a merged sharded run."""
    family, _, seed = case.rpartition("/s")
    fresh = run_scenario(scenario_config(family, int(seed)))
    cache = ResultCache(tmp_path)
    cache.put(fresh)        # before any summary() memo exists
    copy = cache.get(fresh.config)
    assert copy is not fresh and copy == fresh
    assert result_digest(copy) == json.loads(GOLDEN_PATH.read_text())[case]
    assert copy.summary() == fresh.summary()


def test_every_pin_has_a_case():
    assert sorted(json.loads(GOLDEN_PATH.read_text())) == sorted(CASES)


def test_scripted_world_exercises_the_stack():
    nodes = run_subscription_dynamics("frugal", 0)["nodes"]
    totals = [sum(counters[key] for counters, *_ in nodes)
              for key in ("heartbeats_sent", "batches_sent",
                          "delivered_count")]
    assert all(total > 0 for total in totals), totals


if __name__ == "__main__":
    # Additive only: an existing pin is never recomputed here (delete
    # its key first to move it on purpose).
    pins = json.loads(GOLDEN_PATH.read_text())
    missing = [case for case in CASES if case not in pins]
    os.environ["REPRO_SHARD_BACKEND"] = "inproc"
    for case in missing:
        pins[case] = case_digest(case)
        print(f"pinned {case}")
    if missing:
        GOLDEN_PATH.write_text(
            json.dumps(pins, indent=1, sort_keys=True) + "\n")
