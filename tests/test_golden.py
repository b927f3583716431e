"""Pinned golden digests: the reference the deleted medium rungs and the
timer wheel used to provide by running next to the production path.

``tests/golden_digests.json`` holds one sha256 per scenario family x
seed, generated once from the flat O(N) scan with per-task timers (the
naive reference) before those twins were deleted.  The production engine
must keep reproducing every digest bit for bit; a change that moves one
is a behaviour change, not a refactor, and has to say so by regenerating
the file (``PYTHONPATH=src python -m tests.test_golden``) in its own
commit.

A scenario digest covers everything the twin suites compared: the
scenario summary, the summed protocol counters and the medium's five
frame counters, canonicalised by the result cache's own encoder.  A
storm digest covers the per-node receive trace and frame counters of a
scripted broadcast storm over parked stubs, where CSMA back-off and
loss draws are in play and the brute-force oracle of
``tests/helpers.py`` does not reach.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
from typing import Callable, Dict, Tuple

import pytest

from repro.energy import DutyCycleConfig, EnergyConfig, PowerProfile
from repro.faults import (ChurnConfig, FaultConfig, FaultEvent, FaultPlan,
                          LinkLossConfig, RegionalOutage)
from repro.harness.cache import canonical
from repro.harness.experiments import (city_scenario, energy_scenario,
                                       rwp_scenario)
from repro.harness.presets import QUICK
from repro.harness.scenario import (CitySectionSpec, Publication,
                                    RandomWaypointSpec, ScenarioConfig,
                                    run_scenario)
from repro.net import RadioConfig
from repro.net.medium import MediumConfig, WirelessMedium
from repro.net.messages import Heartbeat
from repro.sim import Simulator
from repro.sim.space import Vec2
from tests.helpers import (MediumStub, cap_warmup, quick_rwp,
                           small_rwp)

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_digests.json")

FRAME_COUNTERS = ("frames_sent", "frames_delivered", "frames_collided",
                  "frames_lost_random", "frames_lost_fault")


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
#: are the uncapped quick-scale figure families ``bench_scale.py`` used
#: to compare across rungs.
FAMILIES: Dict[str, Tuple[Callable[[], ScenarioConfig], Tuple[int, ...]]] = {
    "small-rwp": (small_rwp, (0, 1)),
    "small-city": (_small_city, (0, 1)),
    "small-flooding": (
        lambda: small_rwp().with_changes(protocol="simple-flooding",
                                         flood_period=1.0), (0, 1)),
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

#: Scripted storms: family name -> (medium config, seeds).
STORMS: Dict[str, Tuple[MediumConfig, Tuple[int, ...]]] = {
    "storm": (MediumConfig(csma_enabled=False), tuple(range(6))),
    "storm-csma-loss": (MediumConfig(frame_loss_probability=0.2),
                        tuple(range(3))),
}

CASES = [f"{family}/s{seed}"
         for table in (FAMILIES, STORMS)
         for family, (_, seeds) in table.items() for seed in seeds]


def _sha256(payload) -> str:
    blob = json.dumps(canonical(payload), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def scenario_digest(cfg: ScenarioConfig) -> str:
    """sha256 of one run's summary + protocol + frame counters."""
    result = run_scenario(cfg)
    medium = result.collector.medium
    return _sha256({
        "summary": result.summary(),
        "protocol": result.protocol_counters().as_dict(),
        "frames": {name: getattr(medium, name) for name in FRAME_COUNTERS},
    })


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
    return scenario_digest(FAMILIES[family][0]().with_changes(seed=int(seed)))


@pytest.mark.parametrize("case", CASES)
def test_digest_matches_pin(case):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert case_digest(case) == golden[case], \
        f"{case}: behaviour drifted from the pinned reference"


def test_every_pin_has_a_case():
    assert sorted(json.loads(GOLDEN_PATH.read_text())) == sorted(CASES)


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(
        {case: case_digest(case) for case in CASES},
        indent=1, sort_keys=True) + "\n")
