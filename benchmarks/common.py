"""Shared infrastructure for the benchmarks.

``bench_experiments.py`` regenerates every registered figure at the
scale selected by ``REPRO_SCALE`` (quick by default, paper for the full
grids) and:

* prints the reproduced rows as an ASCII table (captured into
  ``bench_output.txt`` when run with ``tee``),
* writes the full rows (including std-dev columns) to
  ``benchmarks/results/<figure>.csv`` for EXPERIMENTS.md bookkeeping.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
from typing import Dict, List

from repro.harness import parallel
from repro.harness.cache import ResultCache, default_cache_dir
from repro.harness.experiments import ExperimentResult
from repro.harness.presets import Scale, get_scale
from repro.harness.reporting import (format_engine_stats, format_experiment,
                                     to_csv)

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"


def configure_engine() -> parallel.ParallelRunner:
    """Install the benchmark execution engine from the environment.

    ``REPRO_JOBS`` selects the worker count (0 = all CPUs, default 1).
    Every figure sweep goes through the process-wide engine
    (:func:`repro.study.run_study`), so this single configuration
    parallelises the whole suite.

    The result cache is **opt-in** here (``REPRO_CACHE=1``), the
    opposite of the CLI's default: this is a *timing* suite, and a warm
    cache would silently turn every benchmark into a measurement of
    pickle loads, hiding real simulation regressions.
    """
    jobs = parallel.resolve_jobs()
    cache = (ResultCache(default_cache_dir())
             if os.environ.get("REPRO_CACHE") else None)
    return parallel.configure(jobs=jobs, cache=cache)


ENGINE = configure_engine()


def engine_stats_line() -> str:
    """The engine's cache-hit report for the session so far."""
    return format_engine_stats(ENGINE.stats, jobs=ENGINE.jobs,
                               cached=ENGINE.cache is not None)


def scale() -> Scale:
    return get_scale()


#: Tables rendered during this session; the conftest terminal-summary hook
#: replays them after pytest's capture ends, so a plain
#: ``pytest benchmarks/ --benchmark-only | tee bench_output.txt`` records
#: every reproduced figure.
PUBLISHED: list = []


def publish_text(text: str) -> None:
    """Queue free-form text (e.g. a pivoted grid) for the end-of-session
    replay alongside the figure tables."""
    print("\n" + text, flush=True)
    PUBLISHED.append(text)


def git_rev() -> str:
    """The short revision this measurement belongs to.

    ``REPRO_GIT_REV`` wins (CI sets it from the checkout SHA so detached
    or shallow clones report the right rev); otherwise ask git;
    ``unknown`` when neither is available.
    """
    env = os.environ.get("REPRO_GIT_REV")
    if env:
        return env
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=pathlib.Path(__file__).resolve().parent.parent,
            capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def publish_bench_json(name: str, rows: List[Dict],
                       meta: Dict | None = None) -> pathlib.Path:
    """Record a perf measurement in the repo's standard BENCH format.

    The perf trajectory convention: every timing benchmark emits one
    ``BENCH {...}`` line to stdout (greppable from any captured log) and
    *appends* the measurement to ``benchmarks/results/<name>.json``,
    keyed by git revision —
    ``{"bench": name, "trajectory": [{"rev": ..., "meta": {...},
    "rows": [...]}, ...]}`` with one flat dict per measured cell.
    Re-measuring the same rev replaces that rev's entry instead of
    duplicating it, so the committed file *is* the trajectory: one entry
    per measured revision, oldest first.  Compare like against like
    (same scale, same machine class — both recorded in ``meta``).
    """
    entry = {"rev": git_rev(), "meta": meta or {}, "rows": rows}
    line = json.dumps({"bench": name, **entry}, sort_keys=True)
    print(f"\nBENCH {line}", flush=True)
    PUBLISHED.append(f"BENCH {line}")
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    trajectory: List[Dict] = []
    if path.exists():
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError:
            doc = {}
        if isinstance(doc, dict):
            if isinstance(doc.get("trajectory"), list):
                trajectory = doc["trajectory"]
            elif "rows" in doc:
                # Legacy single-payload file: adopt it as the first
                # trajectory entry so no measurement is thrown away.
                trajectory = [{"rev": doc.get("rev", "unknown"),
                               "meta": doc.get("meta", {}),
                               "rows": doc.get("rows", [])}]
    trajectory = [e for e in trajectory if e.get("rev") != entry["rev"]]
    trajectory.append(entry)
    path.write_text(json.dumps({"bench": name, "trajectory": trajectory},
                               sort_keys=True, indent=1) + "\n")
    return path


def publish(result: ExperimentResult) -> None:
    """Render the table, persist CSV + .txt, and queue it for the
    end-of-session replay."""
    text = format_experiment(result)
    print("\n" + text, flush=True)
    PUBLISHED.append(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    to_csv(result, str(RESULTS_DIR / f"{result.experiment_id}.csv"))
    (RESULTS_DIR / f"{result.experiment_id}.txt").write_text(text + "\n")
