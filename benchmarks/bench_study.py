"""bench_study — the declarative layer's cost model, priced and asserted.

Two claims the study subsystem makes about itself, measured:

* **expansion is declaration-cheap**: expanding the ``study-frontier``
  spec (the largest registered grid) into its full cell cross product
  is pure config construction — no simulation — and must stay under a
  millisecond per cell, so declaring big grids never costs more than
  writing the nested loops did;
* **warm-cache re-runs are free**: re-running a study against a warm
  result cache must execute **exactly 0 scenarios** (every cell
  answered from disk) — the property that makes studies cheap to
  iterate on.  The cold run is timed alongside so the trajectory
  records what the cache is saving.

Every run appends a rev-keyed entry to
``benchmarks/results/bench_study.json`` via ``publish_bench_json`` (the
BENCH trajectory convention; ``benchmarks/check_trajectory.py`` fails
CI loudly when the append is skipped).  ``REPRO_SCALE`` sizes the
cold/warm study run exactly as it does everywhere else.
"""

from __future__ import annotations

import os
import time

from common import publish_bench_json, scale
from repro.harness import parallel
from repro.harness.cache import ResultCache
from repro.study import expand, run_study
from repro.study.studies import build_study

#: Expansion repetitions per timing sample (expansion is microseconds
#: per cell, so one expand is too short to time honestly).
EXPAND_REPEATS = int(os.environ.get("REPRO_BENCH_STUDY_REPEATS", "20"))
#: Ceiling asserted on spec expansion, seconds per cell.
EXPAND_CEILING_S_PER_CELL = 1e-3
#: The study timed cold-vs-warm (small on purpose: the point is the
#: cache behaviour, not the simulation cost).
RUN_STUDY_ID = "abl-ids"


def test_study_expansion_and_cache(tmp_path):
    """Time spec expansion, then a cold vs warm cached study run."""
    s = scale()
    frontier = build_study("study-frontier", s)
    started = time.perf_counter()
    for _ in range(EXPAND_REPEATS):
        cells = expand(frontier)
    per_expand = (time.perf_counter() - started) / EXPAND_REPEATS
    per_cell = per_expand / len(cells)
    assert per_cell < EXPAND_CEILING_S_PER_CELL, (
        f"spec expansion costs {per_cell:.2e} s/cell "
        f"(ceiling {EXPAND_CEILING_S_PER_CELL:.0e})")

    spec = build_study(RUN_STUDY_ID, s)
    with parallel.ParallelRunner(
            jobs=parallel.resolve_jobs(),
            cache=ResultCache(tmp_path / "cache")) as runner:
        started = time.perf_counter()
        cold = run_study(spec, runner)
        cold_s = time.perf_counter() - started
        executed_cold = runner.stats.executed

        runner.stats.reset()
        started = time.perf_counter()
        warm = run_study(spec, runner)
        warm_s = time.perf_counter() - started
    assert warm.experiment.rows == cold.experiment.rows
    assert runner.stats.executed == 0, (
        f"warm-cache study re-run executed {runner.stats.executed} "
        f"scenarios; every cell must come from the cache")

    publish_bench_json("bench_study", rows=[
        {"phase": "expand", "study": "study-frontier",
         "cells": len(cells), "s_per_expand": round(per_expand, 6),
         "s_per_cell": round(per_cell, 9)},
        {"phase": "cold", "study": RUN_STUDY_ID,
         "scenarios_executed": executed_cold,
         "wallclock_s": round(cold_s, 4)},
        {"phase": "warm", "study": RUN_STUDY_ID,
         "scenarios_executed": 0,
         "cache_hits": runner.stats.cache_hits,
         "wallclock_s": round(warm_s, 4)},
    ], meta={"scale": s.name, "jobs": runner.jobs,
             "expand_repeats": EXPAND_REPEATS})
