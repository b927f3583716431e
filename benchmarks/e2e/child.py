"""The program under test, launched once per operation by ``run.py``.

Each invocation is a fresh interpreter (the driver is the single load
generator), prints exactly one JSON object as its last stdout line and
exits 0 — anything else is a failed operation.

Modes
-----
``setup``
    Interpreter start -> ``import repro.harness`` -> config -> a
    throwaway ``build_world(cfg)`` with every node started: reports the
    ``time.monotonic()`` instant the process was ready to simulate (the
    driver subtracts its launch instant; CLOCK_MONOTONIC is system-wide).
``run``
    ``setup``, then one timed ``run_scenario(cfg)`` and the digest of
    its canonical summary + protocol counters.
``trace``
    ``run`` with the span tracer installed — or, for the CLI workloads,
    the CLI's ``main([... "--jobs", "1"])`` called in-process so spans
    see every layer.  Writes ``trace-<workload>.json``.
``cache-info``
    Node-seconds answered and bytes held by the cache entries a CLI
    workload wrote (``sim_rate``'s numerator for ``cli_*``).
``calibrate``
    A fixed ~1 s pure-Python + numpy spin, timed (``host_calib_s``).

The untraced path imports only ``repro.harness`` package-level names,
``repro.net.RadioConfig``, ``repro.core.FrugalConfig``, ``CityGridSpec``
and ``ShardConfig`` (see ``workloads.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import pathlib
import pickle
import sys
import time

import workloads


def _digest(summary: dict, counters: dict) -> str:
    blob = json.dumps({"summary": summary, "counters": counters},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _set_up(name: str, seed: int, smoke: bool):
    """Everything a user pays before the first simulated second."""
    from repro.harness import build_world
    config = workloads.scenario_config(name, seed, smoke)
    world = build_world(config)
    for node in world.nodes:
        node.start()
    return config


def _in_process(args, tracer=None) -> dict:
    if tracer is None:
        config = _set_up(args.workload, args.seed, args.smoke)
    else:
        config = tracer.span("e2e.setup", _set_up, args.workload, args.seed,
                             args.smoke)
    ready = time.monotonic()
    if args.mode == "setup":
        return {"ready_monotonic": ready}
    # Looked up at call time, so the traced pass times the wrapped function.
    from repro.harness import run_scenario
    start = time.perf_counter()
    result = run_scenario(config)
    wall_s = time.perf_counter() - start
    summary = result.summary()
    counters = result.protocol_counters().as_dict()
    return {
        "ready_monotonic": ready,
        "wall_s": wall_s,
        "node_seconds": workloads.node_seconds(config),
        "digest": _digest(summary, counters),
        "reliability": summary["reliability"],
        "frames": sum(s.frames_sent for s in result.collector.stats.values()),
        "barriers": (result.barrier_stats or {}).get("barriers"),
    }


def _traced_cli(args, tracer) -> dict:
    from repro.harness import cli
    argv = workloads.cli_argv(args.cache_dir, args.csv, args.seed, jobs=1,
                              smoke=args.smoke)
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):   # keep our JSON last
        code = cli.main(argv)
    wall_s = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"traced CLI exited with {code}")
    return {"wall_s": wall_s}


def _trace(args) -> dict:
    import tracer as tracing
    tracer = tracing.Tracer()
    tracer.install()
    if args.workload in workloads.CLI:
        out = _traced_cli(args, tracer)
    else:
        out = _in_process(args, tracer)
    metrics = tracing.layer_metrics(tracer, out["wall_s"])
    trace_path = pathlib.Path(args.trace_out)
    trace_path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "smoke": args.smoke,
        "traced_wall_s": out["wall_s"],
        "missing_hooks": tracer.missing,
        "metrics": metrics,
        "span_table": tracer.table(),
        "spans_kept": len(tracer.spans),
        "spans": tracer.span_sample(),
    }, indent=1))
    out["layer_metrics"] = metrics
    out["missing_hooks"] = tracer.missing
    return out


def _cache_info(args) -> dict:
    node_s, size, entries = 0.0, 0, 0
    for path in sorted(pathlib.Path(args.cache_dir).glob("*.pkl")):
        # Entries this benchmark's own CLI invocation just wrote.
        with open(path, "rb") as handle:
            node_s += workloads.node_seconds(pickle.load(handle).config)
        size += path.stat().st_size
        entries += 1
    return {"node_seconds": node_s, "entry_bytes": size, "entries": entries}


def _calibrate() -> dict:
    start = time.perf_counter()
    acc = 0
    for i in range(6_000_000):
        acc += i * i % 7
    try:
        import numpy
    except ImportError:
        numpy = None
    if numpy is not None:
        column = numpy.arange(1_000_000, dtype=numpy.float64)
        for _ in range(200):
            acc += float((column * column).sum())
    return {"calib_s": time.perf_counter() - start}


def main(argv=None) -> int:
    """Run one mode and print its JSON line."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode",
                        choices=["setup", "run", "trace", "cache-info",
                                 "calibrate"])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--cache-dir")
    parser.add_argument("--csv")
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    if args.mode == "calibrate":
        out = _calibrate()
    elif args.mode == "cache-info":
        out = _cache_info(args)
    elif args.mode == "trace":
        out = _trace(args)
    else:
        out = _in_process(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    # The guard matters: spawn re-imports __main__ in the shard workers.
    sys.exit(main())
