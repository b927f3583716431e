"""bench_protocols — per-frame hot-path cost of every registered protocol.

Runs each *visible* entry of the protocol registry on the same
random-waypoint scenario at the paper's density (6 processes/km², 442 m
range) for N ∈ {100, 300} and measures what one simulated frame and one
kernel event cost in wall-clock — the number that tells you which
dissemination strategy you can afford at scale, and the baseline any
future hot-path optimisation is judged against.

Emits the repo's standard BENCH json
(``benchmarks/results/bench_protocols.json`` plus a greppable
``BENCH {...}`` stdout line; see ``common.publish_bench_json``): one row
per (protocol, N) with wall-clock seconds, kernel events, frames put on
the air, and the derived µs/event and µs/frame.

Scale knobs: ``REPRO_SCALE=paper`` lengthens the measurement window;
``REPRO_BENCH_PROTOCOLS_MAX_N`` caps the population sweep (e.g. 100 in
smoke CI).
"""

from __future__ import annotations

import math
import os
import time
from typing import Dict, List

from common import publish_bench_json, publish_text, scale
from repro.core import registry
from repro.harness.scenario import (Publication, RandomWaypointSpec,
                                    ScenarioConfig, run_scenario)
from repro.net import RadioConfig

#: Paper density: 150 processes over 25 km².
DENSITY_PER_KM2 = 6.0

POPULATIONS = [100, 300]


def protocol_scenario(protocol: str, n: int, duration: float,
                      seed: int = 0) -> ScenarioConfig:
    """An N-process trial at paper density running ``protocol``."""
    side = math.sqrt(n / DENSITY_PER_KM2) * 1000.0
    return ScenarioConfig(
        n_processes=n,
        mobility=RandomWaypointSpec(width=side, height=side,
                                    speed_min=10.0, speed_max=10.0),
        duration=duration, warmup=5.0, seed=seed,
        protocol=protocol,
        radio=RadioConfig.paper_random_waypoint(),
        subscriber_fraction=0.8,
        publications=tuple(
            Publication(at=1.0 + i, validity=duration - 2.0, publisher=i)
            for i in range(3)))


def test_protocol_hot_paths(benchmark):
    s = scale()
    duration = 60.0 if s.name == "paper" else 20.0
    max_n = int(os.environ.get("REPRO_BENCH_PROTOCOLS_MAX_N",
                               POPULATIONS[-1]))
    populations = [n for n in POPULATIONS if n <= max_n]
    protocols = registry.names()          # every registered protocol

    rows: List[Dict[str, object]] = []

    def sweep():
        rows.clear()
        for protocol in protocols:
            for n in populations:
                cfg = protocol_scenario(protocol, n, duration)
                started = time.perf_counter()
                result = run_scenario(cfg)
                wallclock = time.perf_counter() - started
                frames = sum(st.frames_sent
                             for st in result.collector.stats.values())
                events = result.sim_events_processed
                rows.append({
                    "protocol": protocol, "n": n,
                    "wallclock_s": round(wallclock, 4),
                    "sim_events": events,
                    "frames": frames,
                    "us_per_event": round(1e6 * wallclock / events, 3),
                    "us_per_frame": (round(1e6 * wallclock / frames, 3)
                                     if frames else float("inf")),
                    "reliability": result.reliability(),
                })
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    lines = [f"bench_protocols — {duration:.0f}s window, density "
             f"{DENSITY_PER_KM2:.0f}/km², N in {populations}",
             f"{'protocol':>18} {'N':>5} {'wall [s]':>9} {'frames':>9} "
             f"{'µs/event':>9} {'µs/frame':>9} {'rel':>5}"]
    for row in rows:
        lines.append(
            f"{row['protocol']:>18} {row['n']:>5} "
            f"{row['wallclock_s']:>9.2f} {row['frames']:>9} "
            f"{row['us_per_event']:>9.1f} {row['us_per_frame']:>9.1f} "
            f"{row['reliability']:>5.2f}")
    publish_text("\n".join(lines))
    publish_bench_json(
        "bench_protocols", rows,
        meta={"scale": s.name, "duration_s": duration,
              "density_per_km2": DENSITY_PER_KM2,
              "populations": populations})

    # Sanity: every registered protocol completed and moved traffic.
    measured = {row["protocol"] for row in rows}
    assert measured == set(protocols)
    for row in rows:
        assert 0.0 <= row["reliability"] <= 1.0
        assert row["frames"] > 0
