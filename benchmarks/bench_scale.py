"""bench_scale — the frame engine at large populations.

Sweeps N ∈ {100, 300, 500, 1000} random-waypoint processes at the
paper's density (6 processes/km², 442 m radio range) and records
wall-clock and µs/frame per population.  The grid prune keeps the
per-frame cost near-constant in N at fixed density; a row whose
µs/frame grows with N is the regression this bench exists to show.

Every full sweep appends a rev-keyed entry to
``benchmarks/results/bench_scale.json`` via ``publish_bench_json`` (the
BENCH trajectory convention; ``benchmarks/check_trajectory.py`` fails CI
loudly when the append is skipped).  Behavioural equality is not this
file's job: ``tests/test_golden.py`` pins the digests.

Scale knobs: ``REPRO_SCALE=paper`` lengthens the measurement window;
``REPRO_BENCH_SCALE_MAX_N`` caps the sweep (e.g. 100 in smoke CI).
"""

from __future__ import annotations

import math
import os
import time
from typing import Dict, List

from common import publish_bench_json, publish_text, scale
from repro.harness.scenario import (Publication, RandomWaypointSpec,
                                    ScenarioConfig, run_scenario)
from repro.net import RadioConfig

#: Paper density: 150 processes over 25 km².
DENSITY_PER_KM2 = 6.0

POPULATIONS = [100, 300, 500, 1000]


def population_scenario(n: int, duration: float, seed: int = 0
                        ) -> ScenarioConfig:
    """An N-process random-waypoint trial at constant paper density."""
    side = math.sqrt(n / DENSITY_PER_KM2) * 1000.0
    return ScenarioConfig(
        n_processes=n,
        mobility=RandomWaypointSpec(width=side, height=side,
                                    speed_min=10.0, speed_max=10.0),
        duration=duration, warmup=10.0, seed=seed,
        radio=RadioConfig.paper_random_waypoint(),
        subscriber_fraction=0.8,
        publications=(Publication(at=2.0, validity=duration - 4.0),))


def test_scaling_sweep(benchmark):
    s = scale()
    duration = 60.0 if s.name == "paper" else 25.0
    max_n = int(os.environ.get("REPRO_BENCH_SCALE_MAX_N", POPULATIONS[-1]))
    populations = [n for n in POPULATIONS if n <= max_n]

    rows: List[Dict[str, object]] = []

    def sweep():
        rows.clear()
        for n in populations:
            started = time.perf_counter()
            result = run_scenario(population_scenario(n, duration))
            wallclock = time.perf_counter() - started
            frames = result.collector.medium.frames_sent
            rows.append({"n": n, "frames": frames, "wall_s": wallclock,
                         "us_per_frame": 1e6 * wallclock / max(1, frames)})
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    lines = [f"bench_scale — frame engine, {duration:.0f}s window, "
             f"density {DENSITY_PER_KM2:.0f}/km²",
             f"{'N':>6} {'frames':>8} {'wall [s]':>9} {'µs/frame':>9}"]
    for row in rows:
        lines.append(f"{row['n']:>6} {row['frames']:>8} "
                     f"{row['wall_s']:>9.2f} {row['us_per_frame']:>9.1f}")
    publish_text("\n".join(lines))
    publish_bench_json("bench_scale", rows, meta={
        "scale": s.name, "duration_s": duration,
        "density_per_km2": DENSITY_PER_KM2,
        "populations": populations})
    assert all(row["frames"] > 0 for row in rows)
