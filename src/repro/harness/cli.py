"""Command-line entry point for the experiment harness.

Run any reproduced figure or ablation from a shell::

    python -m repro.harness.cli list
    python -m repro.harness.cli fig13
    python -m repro.harness.cli fig17 --scale paper --csv out/fig17.csv
    python -m repro.harness.cli fig17 --jobs 8            # 8 worker processes
    python -m repro.harness.cli fig17 --no-cache          # always recompute
    python -m repro.harness.cli all --out-dir results/

Equivalent to the benchmark suite minus the timing machinery — handy on a
cluster where each figure is one job.

Multi-seed sweeps fan out over ``--jobs`` worker processes (spawn-safe,
bit-identical to serial execution) and consult an on-disk result cache so
re-running a figure only computes the missing cells.  The cache lives in
``--cache-dir`` (default: ``$REPRO_CACHE_DIR`` or ``./.repro-cache``) and
invalidates automatically on any source change.
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import sys
from typing import List, Optional

from repro.harness import parallel
from repro.harness.cache import ResultCache
from repro.harness.presets import Scale, get_scale
from repro.harness.reporting import (format_engine_stats, format_experiment,
                                     to_csv)
from repro.sim.shard import ShardConfig
from repro.study.studies import ALL_EXPERIMENTS


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for --help tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro.harness.cli",
        description="Regenerate the paper's figures and ablations.")
    parser.add_argument(
        "experiment",
        help="experiment id (fig11..fig20, abl-gc, abl-backoff, "
             "abl-adaptive-hb, abl-ids, abl-dutycycle, abl-outage, "
             "energy-lifetime, churn-resilience, protocol-matrix, "
             "loopback-bridge, city-scale, study-frontier), 'all' or "
             "'list'")
    parser.add_argument(
        "--scale", default=None, choices=["smoke", "quick", "paper"],
        help="experiment scale (default: REPRO_SCALE env or quick; "
             "smoke is the minimal CI-smoke sizing)")
    parser.add_argument(
        "--seed", type=int, default=None,
        help="re-base the deterministic seed set on this first seed "
             "(default: the scale's seed_base, 0)")
    parser.add_argument(
        "--shards", default="0", metavar="K|RxC",
        help="run every scenario on the sharded engine, which reports a "
             "RETIMED universe (constant 1 s cross-node delivery latency, "
             "per-node MAC streams) comparable only with other sharded "
             "runs, never with --shards 0 (the default: classic "
             "single-world engine).  A shard count ('4' = vertical "
             "stripes) or an RxC tile grid ('2x2'); results are "
             "bit-identical for every shard count and tile shape")
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for multi-seed sweeps (default: REPRO_JOBS "
             "env or 1 = serial in-process; 0 = all CPUs)")
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk result cache (always recompute)")
    parser.add_argument(
        "--cache-dir", default=None,
        help="result cache directory (default: REPRO_CACHE_DIR env or "
             "./.repro-cache)")
    parser.add_argument(
        "--csv", default=None,
        help="write the result rows to this CSV file (one experiment; "
             "'all' takes --out-dir)")
    parser.add_argument(
        "--out-dir", default=None,
        help="with 'all': write one CSV per experiment into this directory")
    return parser


def build_runner(jobs: Optional[int], no_cache: bool,
                 cache_dir: Optional[str]) -> parallel.ParallelRunner:
    """The runner one CLI invocation owns, built from its flags (both
    CLIs share this).  A bad worker count raises a one-line
    :class:`ValueError` before any pool or cache exists."""
    jobs = parallel.resolve_jobs(jobs)
    cache = None if no_cache else ResultCache(cache_dir or None)
    return parallel.ParallelRunner(jobs=jobs, cache=cache)


def run_one(experiment_id: str, scale: Scale, csv_path: Optional[str],
            runner: parallel.ParallelRunner) -> None:
    """Run one experiment id at ``scale`` on ``runner``, print the
    table and the runner's stats, and optionally write ``csv_path``."""
    runner.stats.reset()
    result = ALL_EXPERIMENTS[experiment_id](scale, runner)
    print(format_experiment(result))
    for note in result.notes:
        print("\n" + note)
    print(format_engine_stats(runner.stats, jobs=runner.jobs,
                              cached=runner.cache is not None))
    if csv_path:
        pathlib.Path(csv_path).parent.mkdir(parents=True, exist_ok=True)
        to_csv(result, csv_path)
        print(f"\nwrote {csv_path}")


def _ignored_flag(args: argparse.Namespace,
                  shards: ShardConfig) -> Optional[str]:
    """Why this flag combination would silently drop a flag, or None."""
    if args.csv is not None and args.experiment == "all":
        return "'all' writes one CSV per experiment; use --out-dir, not --csv"
    if args.out_dir is not None and args.experiment != "all":
        return "--out-dir only applies to 'all'; use --csv for one experiment"
    if shards and args.experiment == "loopback-bridge":
        return ("--shards does not apply to loopback-bridge: its sim half "
                "keeps the zero-latency classic engine its UDP half mirrors")
    return None


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.experiment == "list":
        print("available experiments:")
        for name, run in ALL_EXPERIMENTS.items():
            print(f"  {name:16s} {run.__doc__.strip().splitlines()[0]}")
        return 0
    try:
        shards = ShardConfig.parse(args.shards)
    except ValueError as exc:
        print(f"bad --shards: {exc}", file=sys.stderr)
        return 2
    ignored = _ignored_flag(args, shards)
    if ignored:
        print(ignored, file=sys.stderr)
        return 2
    if args.experiment != "all" and args.experiment not in ALL_EXPERIMENTS:
        print(f"unknown experiment {args.experiment!r}; "
              f"try 'list'", file=sys.stderr)
        return 2
    scale = dataclasses.replace(get_scale(args.scale), shards=shards)
    if args.seed is not None:
        scale = scale.with_seed_base(args.seed)
    try:
        runner = build_runner(args.jobs, args.no_cache, args.cache_dir)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    with runner:
        if args.experiment != "all":
            run_one(args.experiment, scale, args.csv, runner)
            return 0
        out_dir = pathlib.Path(args.out_dir or "results")
        out_dir.mkdir(parents=True, exist_ok=True)
        for name in ALL_EXPERIMENTS:
            run_one(name, scale, str(out_dir / f"{name}.csv"), runner)
            print()
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
