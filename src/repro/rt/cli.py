"""Command-line entry point for the real-network runtime.

Run the loopback bridge from a shell::

    python -m repro.rt.cli loopback-bridge
    python -m repro.rt.cli loopback-bridge --scale smoke
    python -m repro.rt.cli loopback-bridge --protocols frugal,gossip
    python -m repro.rt.cli loopback-bridge --time-scale 5 --csv out/rt.csv

The sim half of the bridge fans its seeds out over ``--jobs`` worker
processes exactly like :mod:`repro.harness.cli`; the UDP half is
wall-clock bound and always runs in-process (the sockets are the
experiment).
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import List, Optional

from repro.core import registry
from repro.harness.cli import build_runner
from repro.harness.presets import get_scale
from repro.harness.reporting import (format_engine_stats, format_experiment,
                                     to_csv)
from repro.rt.bridge import (BRIDGE_PROTOCOLS, DEFAULT_TIME_SCALE,
                             loopback_bridge)


def build_parser() -> argparse.ArgumentParser:
    """The rt CLI argument parser (exposed for --help tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro.rt.cli",
        description="Run protocol stacks over real UDP sockets.")
    sub = parser.add_subparsers(dest="command", required=True)
    bridge = sub.add_parser(
        "loopback-bridge",
        help="run protocols in-sim and on a UDP loopback cluster, "
             "report predicted vs measured side by side")
    bridge.add_argument(
        "--scale", default=None, choices=["smoke", "quick", "paper"],
        help="experiment scale (default: REPRO_SCALE env or quick)")
    bridge.add_argument(
        "--seed", type=int, default=None,
        help="re-base the deterministic seed set on this first seed")
    bridge.add_argument(
        "--protocols", default=",".join(BRIDGE_PROTOCOLS),
        help="comma-separated registry protocol names "
             f"(default: {','.join(BRIDGE_PROTOCOLS)})")
    bridge.add_argument(
        "--time-scale", type=float, default=DEFAULT_TIME_SCALE,
        help="virtual seconds per wall-clock second on the cluster "
             f"(default: {DEFAULT_TIME_SCALE:g})")
    bridge.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for the sim half's seed sweep")
    bridge.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk result cache for the sim half")
    bridge.add_argument(
        "--cache-dir", default=None,
        help="result cache directory (default: REPRO_CACHE_DIR env or "
             "./.repro-cache)")
    bridge.add_argument(
        "--csv", default=None,
        help="write the result rows to this CSV file")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    protocols = tuple(p.strip() for p in args.protocols.split(",")
                      if p.strip())
    try:
        for protocol in protocols:
            registry.get(protocol)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.time_scale <= 0:
        print(f"--time-scale must be positive: {args.time_scale}",
              file=sys.stderr)
        return 2
    scale = get_scale(args.scale)
    if args.seed is not None:
        scale = scale.with_seed_base(args.seed)
    try:
        runner = build_runner(args.jobs, args.no_cache, args.cache_dir)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    with runner:
        result = loopback_bridge(scale, protocols=protocols,
                                 time_scale=args.time_scale, runner=runner)
    print(format_experiment(result))
    outside = [row for row in result.rows if not row["within_band"]]
    if outside:
        names = ", ".join(row["protocol"] for row in outside)
        print(f"\nWARNING: measured reliability outside the "
              f"±{result.parameters['tolerance']:g} band for: {names}")
    print(format_engine_stats(runner.stats, jobs=runner.jobs,
                              cached=runner.cache is not None))
    if args.csv:
        pathlib.Path(args.csv).parent.mkdir(parents=True, exist_ok=True)
        to_csv(result, args.csv)
        print(f"\nwrote {args.csv}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
