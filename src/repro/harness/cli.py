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
import pathlib
import sys
from typing import List, Optional

from repro.harness import experiments, parallel
from repro.harness.cache import ResultCache, default_cache_dir
from repro.harness.presets import get_scale
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


def configure_engine(jobs: Optional[int], no_cache: bool,
                     cache_dir: Optional[str]) -> parallel.ParallelRunner:
    """Install the process-wide engine from the CLI flags."""
    cache = None if no_cache else ResultCache(
        pathlib.Path(cache_dir) if cache_dir else default_cache_dir())
    return parallel.configure(jobs=parallel.resolve_jobs(jobs),
                              cache=cache)


def run_one(experiment_id: str, scale_name: Optional[str],
            csv_path: Optional[str], seed: Optional[int] = None) -> None:
    """Run one experiment id at ``scale_name``, print the table and
    optionally write ``csv_path``; ``seed`` re-bases the seed list."""
    scale = get_scale(scale_name)
    if seed is not None:
        scale = scale.with_seed_base(seed)
    runner = parallel.get_default_runner()
    runner.stats.reset()
    result = ALL_EXPERIMENTS[experiment_id](scale)
    print(format_experiment(result))
    for note in result.notes:
        print("\n" + note)
    print(format_engine_stats(runner.stats, jobs=runner.jobs,
                              cached=runner.cache is not None))
    if csv_path:
        pathlib.Path(csv_path).parent.mkdir(parents=True, exist_ok=True)
        to_csv(result, csv_path)
        print(f"\nwrote {csv_path}")


def _ignored_flag(args: argparse.Namespace) -> Optional[str]:
    """Why this flag combination would silently drop a flag, or None."""
    if args.csv is not None and args.experiment == "all":
        return "'all' writes one CSV per experiment; use --out-dir, not --csv"
    if args.out_dir is not None and args.experiment != "all":
        return "--out-dir only applies to 'all'; use --csv for one experiment"
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
        shard_config = ShardConfig.parse(args.shards)
    except ValueError as exc:
        print(f"bad --shards: {exc}", file=sys.stderr)
        return 2
    ignored = _ignored_flag(args)
    if ignored:
        print(ignored, file=sys.stderr)
        return 2
    configure_engine(args.jobs, args.no_cache, args.cache_dir)
    experiments.DEFAULT_SHARDS = shard_config
    try:
        if args.experiment == "all":
            out_dir = pathlib.Path(args.out_dir or "results")
            out_dir.mkdir(parents=True, exist_ok=True)
            for name in ALL_EXPERIMENTS:
                run_one(name, args.scale, str(out_dir / f"{name}.csv"),
                        seed=args.seed)
                print()
            return 0
        if args.experiment not in ALL_EXPERIMENTS:
            print(f"unknown experiment {args.experiment!r}; "
                  f"try 'list'", file=sys.stderr)
            return 2
        run_one(args.experiment, args.scale, args.csv, seed=args.seed)
        return 0
    finally:
        # Reap the pool and restore the library defaults (serial,
        # uncached, unsharded) so embedding callers — e.g. the test
        # suite — do not inherit this invocation's engine configuration.
        parallel.configure(jobs=1, cache=None)
        experiments.DEFAULT_SHARDS = 0


if __name__ == "__main__":
    raise SystemExit(main())
