"""The five workloads of the end-to-end benchmark, spelled out in full.

Three run one ``run_scenario(cfg)`` in a fresh child process, two shell
the experiment CLI.  Every config keeps the ``ScenarioConfig`` defaults
for all engine knobs (no ``spatial_index`` / ``vectorized`` /
``coalesced_timers`` / ``with_*`` selector is named), so removing those
knobs later cannot break the benchmark.

This module imports :mod:`repro` lazily, inside the functions that need
it: the driver (``run.py``) reads names and command lines from here
without having ``src/`` on its own import path.
"""

from __future__ import annotations

import math
from typing import Dict, List

#: name -> one-line reason (mirrored verbatim in ``BENCHMARK.json``).
WORKLOADS: Dict[str, str] = {
    "rwp_frugal": "paper-density random waypoint under the frugal protocol: "
                  "membership, medium and kernel timers each hold a large "
                  "share (the flat bill)",
    "rwp_flood": "same world under simple flooding: large colliding frames, "
                 "zero heartbeats, so it bypasses membership and stresses "
                 "the collision path",
    "city_shard": "street-grid city on two spawned shards: the only "
                  "workload where shard barriers, street routing and map "
                  "construction do real work",
    "cli_cold": "the command users type, empty cache: many small worlds "
                "through the spawn pool, result pickling, cache writes, "
                "Pareto analysis and CSV",
    "cli_warm": "the identical command against the cache cli_cold's command "
                "filled: cache reads, import and reporting only",
}

IN_PROCESS = ("rwp_frugal", "rwp_flood", "city_shard")
CLI = ("cli_cold", "cli_warm")

#: Paper density: 150 processes over 25 km^2 (random waypoint) and 15
#: processes over the 1200 x 900 m campus (city section).
RWP_DENSITY_KM2 = 6.0
CITY_DENSITY_KM2 = 15.0 / (1.2 * 0.9)
CITY_BLOCK_M = 200.0

#: Environment the *untraced* child of each workload runs under.
CHILD_ENV: Dict[str, Dict[str, str]] = {
    "city_shard": {"REPRO_SHARD_BACKEND": "spawn"},
}

#: Sanity bands from the paper's ordering (reliability floors).  Over 30
#: seeds reliability is 0.92-0.99 (frugal) and 0.97-1.0 (flooding), but a
#: seed that isolates one of the 3-4 publishers costs a third / a quarter
#: of the mean (0.664 seen), and no seed may fail an operation.
RELIABILITY_FLOOR: Dict[str, float] = {"rwp_frugal": 0.5, "rwp_flood": 0.7}


def _rwp(n: int, protocol: str, n_pubs: int, window_s: float, seed: int):
    from repro.harness import (Publication, RandomWaypointSpec,
                               ScenarioConfig)
    from repro.net import RadioConfig
    side_m = math.sqrt(n / RWP_DENSITY_KM2) * 1000.0
    pubs = tuple(Publication(at=2.0 + i, validity=window_s - 4.0 - i,
                             publisher=i) for i in range(n_pubs))
    return ScenarioConfig(
        n_processes=n,
        mobility=RandomWaypointSpec(width=side_m, height=side_m,
                                    speed_min=10.0, speed_max=10.0),
        duration=window_s, warmup=10.0, seed=seed, protocol=protocol,
        radio=RadioConfig.paper_random_waypoint(),
        subscriber_fraction=0.8, publications=pubs)


def _city(n: int, warmup_s: float, window_s: float, seed: int):
    from repro.core import FrugalConfig
    from repro.harness import Publication, ScenarioConfig
    from repro.harness.scenario import CityGridSpec
    from repro.net import RadioConfig
    from repro.sim.shard import ShardConfig
    area_km2 = n / CITY_DENSITY_KM2
    width_m = math.sqrt(area_km2 * 4.0 / 3.0) * 1000.0
    height_m = area_km2 * 1e6 / width_m
    return ScenarioConfig(
        n_processes=n,
        mobility=CityGridSpec(
            columns=max(3, round(width_m / CITY_BLOCK_M)),
            rows=max(3, round(height_m / CITY_BLOCK_M)),
            width=width_m, height=height_m),
        duration=window_s, warmup=warmup_s, seed=seed,
        frugal=FrugalConfig.paper_city_section(),
        radio=RadioConfig.paper_city_section(),
        subscriber_fraction=0.8,
        publications=(Publication(at=5.0, validity=window_s - 10.0),),
        shards=ShardConfig.parse("1x2"))


def scenario_config(name: str, seed: int, smoke: bool = False):
    """The ``ScenarioConfig`` of an in-process workload."""
    if name == "rwp_frugal":
        return (_rwp(40, "frugal", 3, 10.0, seed) if smoke
                else _rwp(150, "frugal", 3, 120.0, seed))
    if name == "rwp_flood":
        return (_rwp(40, "simple-flooding", 4, 10.0, seed) if smoke
                else _rwp(150, "simple-flooding", 4, 120.0, seed))
    if name == "city_shard":
        return (_city(40, 5.0, 15.0, seed) if smoke
                else _city(300, 30.0, 100.0, seed))
    raise KeyError(f"not an in-process workload: {name!r}")


def node_seconds(config) -> float:
    """Simulated node-seconds one scenario answers (``sim_rate``'s
    numerator): ``n_processes x (warmup + duration)``."""
    return config.n_processes * (config.warmup + config.duration)


def cli_argv(cache_dir: str, csv_path: str, seed: int, jobs: int = 2,
             smoke: bool = False) -> List[str]:
    """Arguments of the CLI workloads' command (after ``-m
    repro.harness.cli``); ``cli_cold`` and ``cli_warm`` differ only in
    what ``cache_dir`` already holds."""
    experiment = ["abl-ids", "--scale", "smoke"] if smoke else \
        ["study-frontier", "--scale", "quick"]
    return experiment + ["--seed", str(seed), "--jobs", str(jobs),
                         "--cache-dir", cache_dir, "--csv", csv_path]
