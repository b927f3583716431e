"""bench_shard — the sharded engine: invariance priced in wall-clock.

Runs one large city-scale world (``city_scale_scenario``: a street grid
at the paper's city density, N = 2000 by default) on the classic
single-world engine and on the sharded engine across shard counts, tile
shapes and epoch lengths, and asserts

* **exact plan invariance**: the summaries at K ∈ {1, 2, 4} stripes and
  on a 2x2 tile grid are equal with ``==`` on floats — the tentpole
  guarantee of ``repro.sim.shard`` (the classic engine is timed as a
  reference but not compared: sharding replaces the medium's shared RNG
  streams with per-node streams, so classic and sharded are two
  distinct, each internally deterministic, universes);
* **exact epoch invariance**: sweeping the barrier spacing (0.25 s and
  the 1 s soundness bound, forced by patching the engine's
  ``resolve_epoch_s``, since the spacing is not a setting) does not
  move a single bit — the retimed exchange makes barrier placement
  unobservable;
* **barrier tax**: K = 1 must land within 5 % of the classic engine's
  wall-clock — the whole point of audibility routing, sorted-merge log
  ingestion and epoch-exact deliveries is that the sharded machinery is
  nearly free before parallelism starts paying; asserted only at the
  full N = 2000 (small worlds are noise-dominated);
* **speedup**: K = 4 must beat K = 1 by ≥ 2.5× in wall-clock — asserted
  only when the host exposes ≥ 4 usable cores *and* the full N was
  measured.  On smaller hosts (this repo's CI runner included) the
  measured numbers are still recorded honestly; a single core cannot
  pay for process parallelism, and pretending otherwise would poison
  the trajectory.

Every run appends a rev-keyed entry to
``benchmarks/results/bench_shard.json`` via ``publish_bench_json`` (the
BENCH trajectory convention; ``benchmarks/check_trajectory.py`` fails CI
loudly when the append is skipped — and, for this bench, when the entry
lacks the per-barrier overhead breakdown rows).  Each timing row stamps
the tile-plan label and the resolved epoch; each sharded run also
contributes a ``barrier_overhead`` row splitting the barrier tax into
its drain / merge / ingest / retime phases.  ``meta`` records the
*usable* core count (affinity-aware via ``available_cpu_count``, so a
container quota is reported honestly) and the shard backend so entries
compare like against like.

Scale knobs: ``REPRO_BENCH_SHARD_MAX_N`` caps the population (e.g. 120
in smoke CI); ``REPRO_SHARD_BACKEND`` picks the worker backend exactly
as it does for the engine itself (default ``auto``).
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional

import pytest

from common import publish_bench_json, publish_text, scale
from repro.harness.experiments import city_scale_scenario
from repro.harness.parallel import available_cpu_count
from repro.harness.scenario import ScenarioConfig, run_scenario
from repro.sim.shard import ShardConfig
from repro.sim.shard import engine as shard_engine

#: The tentpole population and the plans it is priced at: the stripe
#: ladder plus one genuinely 2-D tile grid.
DEFAULT_N = 2000
PLANS = [ShardConfig(shards=1), ShardConfig(shards=2),
         ShardConfig(shards=4), ShardConfig(shards=4, rows=2)]
#: Epoch sweep at K=2: the historical 0.25 s spacing and the 1 s
#: soundness bound — results must be bit-identical across both.
EPOCH_SWEEP = [0.25, 1.0]
#: K=4-vs-K=1 wall-clock floor, asserted on hosts with >= 4 cores.
SPEEDUP_FLOOR = 2.5
#: K=1-vs-classic wall-clock ceiling (the barrier tax), asserted at
#: the full N where the signal dominates the noise.
OVERHEAD_CEILING = 1.05


def _timed(config: ScenarioConfig) -> Dict[str, object]:
    started = time.perf_counter()
    result = run_scenario(config)
    return {"wallclock": time.perf_counter() - started,
            "summary": result.summary(),
            "barrier_stats": result.barrier_stats}


def _breakdown_row(n: int, plan: str,
                   stats: Dict[str, float]) -> Dict[str, object]:
    """One ``barrier_overhead`` trajectory row: where the barrier tax
    goes, in total seconds and per-barrier milliseconds."""
    barriers = max(stats["barriers"], 1.0)
    phases = {phase: stats[phase]
              for phase in ("drain_s", "merge_s", "ingest_s", "retime_s")}
    return {"n": n, "row_type": "barrier_overhead", "plan": plan,
            "epoch_s": stats["epoch_s"], "barriers": stats["barriers"],
            "frames_exchanged": stats["frames_exchanged"], **phases,
            "per_barrier_overhead_ms":
                sum(phases.values()) / barriers * 1e3}


def test_shard_scaling(benchmark):
    s = scale()
    n = min(DEFAULT_N, int(os.environ.get("REPRO_BENCH_SHARD_MAX_N",
                                          DEFAULT_N)))
    base = city_scale_scenario(s, n)
    cores = available_cpu_count()
    backend = os.environ.get("REPRO_SHARD_BACKEND", "auto")

    rows: List[Dict[str, object]] = []
    summaries: Dict[str, Dict[str, float]] = {}

    def sharded_run(tag: str, shards: ShardConfig,
                    baseline: Optional[float]) -> float:
        timed = _timed(base.with_changes(shards=shards))
        summaries[tag] = timed["summary"]
        stats = timed["barrier_stats"]
        row = {"n": n, "shards": shards.shards,
               "plan": shards.plan_label, "epoch_s": stats["epoch_s"],
               "engine": "sharded", "wallclock_s": timed["wallclock"]}
        if baseline is not None:
            row["speedup_vs_1shard"] = baseline / timed["wallclock"]
        rows.append(row)
        rows.append(_breakdown_row(n, shards.plan_label, stats))
        return timed["wallclock"]

    def sweep():
        rows.clear()
        summaries.clear()
        classic = _timed(base)
        rows.append({"n": n, "shards": 0, "plan": "off", "epoch_s": None,
                     "engine": "classic",
                     "wallclock_s": classic["wallclock"]})
        baseline = None
        for shards in PLANS:
            wall = sharded_run(shards.plan_label, shards, baseline)
            if baseline is None:
                baseline = wall
        for epoch in EPOCH_SWEEP:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(shard_engine, "resolve_epoch_s",
                              lambda *args, epoch=epoch: epoch)
                sharded_run(f"1x2@{epoch}", ShardConfig(shards=2), baseline)
            assert rows[-1]["epoch_s"] == epoch, "the patch missed"
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    # The tentpole guarantees, asserted unconditionally: summaries are
    # bit-identical for every shard count, tile shape and epoch length.
    want_tag = PLANS[0].plan_label
    for tag, summary in summaries.items():
        assert summary == summaries[want_tag], \
            f"sharded summaries diverged: {tag} vs {want_tag}"

    lines = [f"bench_shard — city-scale world, N={n}, "
             f"{cores} usable core(s), backend={backend}",
             f"{'plan':>9} {'epoch':>6} {'engine':>8} {'wall [s]':>9} "
             f"{'vs K=1':>7} {'tax/barrier':>12}"]
    by_plan = {}
    for row in rows:
        if row.get("row_type") == "barrier_overhead":
            by_plan[(row["plan"], row["epoch_s"])] = row
    for row in rows:
        if row.get("row_type"):
            continue
        speed = row.get("speedup_vs_1shard")
        tax = by_plan.get((row["plan"], row["epoch_s"]))
        epoch = row["epoch_s"]
        lines.append(
            f"{row['plan']:>9} "
            + (f"{epoch:>6.2f} " if epoch is not None else f"{'—':>6} ")
            + f"{row['engine']:>8} {row['wallclock_s']:>9.2f} "
            + (f"{speed:>6.2f}x" if speed is not None else f"{'—':>7}")
            + (f" {tax['per_barrier_overhead_ms']:>10.2f}ms"
               if tax else ""))
    publish_text("\n".join(lines))
    publish_bench_json("bench_shard", rows, meta={
        "scale": s.name, "n": n,
        "plans": [p.plan_label for p in PLANS],
        "epoch_sweep": EPOCH_SWEEP,
        "cpu_count": cores, "backend": backend,
        "speedup_floor": SPEEDUP_FLOOR,
        "overhead_ceiling": OVERHEAD_CEILING,
        "speedup_asserted": cores >= 4 and n == DEFAULT_N,
        "overhead_asserted": n == DEFAULT_N})

    timing = [row for row in rows if not row.get("row_type")]
    classic_wall = timing[0]["wallclock_s"]
    k1_wall = timing[1]["wallclock_s"]
    # The barrier tax: one shard must ride within 5% of the classic
    # engine at the full N (small worlds are noise-dominated).
    if n == DEFAULT_N:
        assert k1_wall <= classic_wall * OVERHEAD_CEILING, \
            f"K=1 must be within {OVERHEAD_CEILING:.0%} of classic at " \
            f"N={DEFAULT_N}: {k1_wall:.2f}s vs {classic_wall:.2f}s " \
            f"({k1_wall / classic_wall:.2%})"
    # Process parallelism cannot beat 2.5x without at least 4 cores to
    # spread over; the invariance assertions above ran regardless.
    if cores >= 4 and n == DEFAULT_N:
        by_plan_row = {row["plan"]: row for row in timing}
        got = by_plan_row["1x4"]["speedup_vs_1shard"]
        assert got >= SPEEDUP_FLOOR, \
            f"4 shards must be ≥{SPEEDUP_FLOOR}x over 1 shard at " \
            f"N={DEFAULT_N} on a {cores}-core host, got {got:.2f}x"
