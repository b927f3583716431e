"""End-to-end benchmark driver: five workloads, five bounded metrics, one
layer ledger.

Two ways in, one measurement underneath (:func:`run_workload`):

``run.py --workload W --seed S --seconds T --trace 0|1``
    One *run* of one workload — the form ``BENCHMARK.json`` declares.
    The last stdout line is one JSON object ``{correct, attempted,
    failed, metrics}``: the end-to-end metrics with ``--trace 0``, the
    per-layer metrics with ``--trace 1``.

``run.py [--seed S] [--repeats K] [--trace] [--selfcheck] [--smoke]``
    The whole set: ``K`` rounds, each running every workload once
    (``for round: for workload``), then median and IQR per metric x
    workload.  ``--trace`` adds one traced pass per workload,
    ``--selfcheck`` runs two sets and compares them against the bounds,
    ``--smoke`` shrinks every workload to a sub-20-second sanity pass.

The driver is the single load generator: every operation is a fresh
child process (``child.py`` or the experiment CLI), never more than one
at a time, and the program under test never gets more than two workers.
It exits non-zero on any failed correctness check.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import workloads                                   # noqa: E402
from tracer import LAYER_METRICS                   # noqa: E402

#: End-to-end metrics: (name, unit, better, bound).  ``bound`` is the
#: share of the parent's median by which the metric may get worse.
E2E_METRICS: Tuple[Tuple[str, str, str, float], ...] = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("sim_rate", "node-s/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.05),
)

DEFAULT_SECONDS = 15
SETUP_SAMPLES = 3
WARM_INVOCATIONS_MIN = 10
#: ``cli_cold`` takes about the whole window once; a second invocation
#: gives the run a best-of to report on a host whose speed swings.
COLD_INVOCATIONS_MIN = 2
CHILD_TIMEOUT_S = 170.0
CALIBRATION_TOLERANCE = 0.15
MAX_ROUND_RERUNS = 2


# --------------------------------------------------------------------------
# Launching one child and accounting for its whole process tree
# --------------------------------------------------------------------------

@dataclass
class Launch:
    """What one child process cost, measured from outside."""

    exit_code: int
    wall_s: float               # launch -> exit
    cpu_s: float                # user + sys of the child and its reaped tree
    peak_rss_mb: float          # ru_maxrss over the same tree
    launched_monotonic: float
    stdout: str

    def last_json(self) -> Optional[dict]:
        """The child's result line, or ``None`` when it printed none."""
        lines = self.stdout.strip().splitlines()
        try:
            return json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            return None


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def launch(argv: Sequence[str], log: pathlib.Path,
           extra_env: Optional[Dict[str, str]] = None) -> Launch:
    """Run ``python <argv>`` from the checkout root in its own session,
    wait for it, and return its cost.  ``os.wait4`` reports the rusage of
    the child *and every descendant it reaped* (pool and shard workers),
    which is the process tree the metrics are defined over."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + \
        (os.pathsep + inherited if inherited else "")
    env.update(extra_env or {})
    with open(log, "wb") as sink:
        launched = time.monotonic()
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=sink,
                                env=env, cwd=ROOT, start_new_session=True)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            _kill_group(proc.pid)      # no straggler outlives its operation
        wall_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Launch(exit_code=proc.returncode, wall_s=wall_s,
                  cpu_s=usage.ru_utime + usage.ru_stime,
                  peak_rss_mb=usage.ru_maxrss / 1024.0,
                  launched_monotonic=launched,
                  stdout=log.read_text(errors="replace"))


# --------------------------------------------------------------------------
# One run of one workload
# --------------------------------------------------------------------------

@dataclass
class Op:
    """One timed operation (a ``run_scenario`` call or a CLI invocation)."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    node_seconds: float = 0.0
    setup_s: Optional[float] = None
    digest: Optional[str] = None
    failure: Optional[str] = None


@dataclass
class RunResult:
    """Everything one run of one workload measured."""

    workload: str
    seed: int
    ops: List[Op] = field(default_factory=list)
    untimed_failures: List[str] = field(default_factory=list)
    untimed_attempts: int = 0
    setups: List[float] = field(default_factory=list)
    layers: Optional[Dict[str, Optional[float]]] = None
    notes: List[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.ops) + self.untimed_attempts

    @property
    def failures(self) -> List[str]:
        return [op.failure for op in self.ops if op.failure] + \
            self.untimed_failures

    @property
    def digest(self) -> Optional[str]:
        digests = [op.digest for op in self.ops if op.digest]
        return digests[0] if digests else None

    def e2e(self) -> Dict[str, float]:
        """The end-to-end metrics of this run.

        Every good operation of a run did identical work (same workload,
        same seed, same digest), and what disturbs a timing on a shared
        host only ever adds to it, so the run reports its *best*
        operation: the least ``wall_s`` / ``cpu_s`` / ``setup_s`` and the
        ``sim_rate`` that goes with the least wall.  ``peak_rss_mb`` is
        the largest peak any operation reached.
        """
        good = [op for op in self.ops if op.failure is None]
        if not good or not self.setups:
            return {}
        fastest = min(good, key=lambda op: op.wall_s)
        return {
            "wall_s": fastest.wall_s,
            "setup_s": min(self.setups),
            "cpu_s": min(op.cpu_s for op in good),
            "sim_rate": fastest.node_seconds / fastest.wall_s,
            "peak_rss_mb": max(op.peak_rss_mb for op in good),
        }


class WorkloadRun:
    """Runs one workload once, inside a scratch directory of its own."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool):
        self.name, self.seed, self.smoke = name, seed, smoke
        self.seconds, self.trace = seconds, trace
        self._entry_bytes = 0
        self.result = RunResult(workload=name, seed=seed)
        self.scratch = OUT / f"tmp-{name}-{seed}-{os.getpid()}"
        self._n = 0

    # -- helpers --------------------------------------------------------------

    def _log(self) -> pathlib.Path:
        self._n += 1
        return self.scratch / f"launch-{self._n}.out"

    def _child(self, mode: str, *extra: str, env=None) -> Launch:
        argv = [str(HERE / "child.py"), mode, "--workload", self.name,
                "--seed", str(self.seed), *extra]
        if self.smoke:
            argv.append("--smoke")
        return launch(argv, self._log(), env)

    def _cli(self, *argv: str) -> Launch:
        return launch(["-m", "repro.harness.cli", *argv], self._log())

    def _timed_ops(self, operation, at_least: int = 1,
                   start: Optional[float] = None) -> None:
        """Start operations for ``--seconds`` of wall-clock since
        ``start`` (default: now): another one starts only while it is
        expected (from the one just finished) to end inside the window,
        so a run overshoots by its first operation at most.  The smoke
        pass stops at ``at_least``; a traced run needs one reference
        operation only."""
        if self.trace:
            at_least = 1
        if start is None:
            start = time.monotonic()
        while True:
            began = time.monotonic()
            self.result.ops.append(operation())
            now = time.monotonic()
            enough = len(self.result.ops) >= at_least
            if enough and (self.smoke or self.trace or
                           now - start + (now - began) > self.seconds):
                return

    def _setup_samples(self, sample) -> None:
        want = 1 if self.smoke or self.trace else SETUP_SAMPLES
        while len(self.result.setups) < want:
            value = sample()
            if value is None:
                return
            self.result.setups.append(value)

    def _untimed_failure(self, message: str) -> None:
        self.result.untimed_failures.append(f"{self.name}: {message}")

    # -- in-process workloads -------------------------------------------------

    def _scenario_op(self) -> Op:
        done = self._child("run", env=workloads.CHILD_ENV.get(self.name))
        out = done.last_json()
        op = Op(wall_s=done.wall_s, cpu_s=done.cpu_s,
                peak_rss_mb=done.peak_rss_mb)
        if done.exit_code != 0 or out is None:
            op.failure = f"{self.name}: child exited {done.exit_code}"
            return op
        op.wall_s = out["wall_s"]
        op.node_seconds = out["node_seconds"]
        op.setup_s = out["ready_monotonic"] - done.launched_monotonic
        op.digest = out["digest"]
        floor = workloads.RELIABILITY_FLOOR.get(self.name)
        if floor is not None and not self.smoke \
                and out["reliability"] < floor:
            op.failure = (f"{self.name}: reliability {out['reliability']:.3f}"
                          f" below the paper band {floor}")
        elif out["frames"] <= 0:
            op.failure = f"{self.name}: no frame was sent"
        elif self.name == "city_shard" and not out["barriers"]:
            op.failure = f"{self.name}: no shard barrier ran"
        return op

    def _scenario_setup(self) -> Optional[float]:
        self.result.untimed_attempts += 1
        done = self._child("setup", env=workloads.CHILD_ENV.get(self.name))
        out = done.last_json()
        if done.exit_code != 0 or out is None:
            self._untimed_failure(f"set-up child exited {done.exit_code}")
            return None
        return out["ready_monotonic"] - done.launched_monotonic

    def _run_in_process(self) -> None:
        self._timed_ops(self._scenario_op)
        self.result.setups = [op.setup_s for op in self.result.ops
                              if op.setup_s is not None]
        self._setup_samples(self._scenario_setup)

    # -- CLI workloads --------------------------------------------------------

    def _cli_invocation(self, tag: str, cache: pathlib.Path,
                        cold: bool) -> Tuple[Op, bytes]:
        """One invocation of the workloads' command against ``cache``,
        which must simulate (``cold``) or must not (warm)."""
        csv = self.scratch / f"{tag}.csv"
        done = self._cli(*workloads.cli_argv(str(cache), str(csv), self.seed,
                                             smoke=self.smoke))
        op = Op(wall_s=done.wall_s, cpu_s=done.cpu_s,
                peak_rss_mb=done.peak_rss_mb)
        data = csv.read_bytes() if csv.is_file() else b""
        executed_none = ", 0 executed" in done.stdout
        if done.exit_code != 0:
            op.failure = f"{self.name}: CLI exited {done.exit_code}"
        elif data.count(b"\n") < 2:
            op.failure = f"{self.name}: CLI wrote no CSV rows"
        elif cold and executed_none:
            op.failure = f"{self.name}: cold invocation executed nothing"
        elif not cold and not executed_none:
            op.failure = f"{self.name}: warm invocation did not report " \
                         f"'0 executed'"
        op.digest = hashlib.sha256(data).hexdigest()
        return op, data

    def _cache_info(self, cache: pathlib.Path) -> dict:
        self.result.untimed_attempts += 1
        done = self._child("cache-info", "--cache-dir", str(cache))
        out = done.last_json()
        if done.exit_code != 0 or out is None or not out["entries"]:
            self._untimed_failure("cache entries could not be read back")
            return {"node_seconds": 0.0, "entry_bytes": 0, "entries": 0}
        return out

    def _cli_list(self) -> Optional[float]:
        self.result.untimed_attempts += 1
        done = self._cli("list")
        if done.exit_code != 0:
            self._untimed_failure(f"'cli list' exited {done.exit_code}")
            return None
        return done.wall_s

    def _run_cli(self) -> pathlib.Path:
        """Returns the cache directory the timed invocations left full."""
        counter = [0]

        def cold() -> Op:
            counter[0] += 1
            cache = self.scratch / f"cache-{counter[0]}"
            return self._cli_invocation(f"cold-{counter[0]}", cache, True)[0]

        if self.name == "cli_cold":
            self._timed_ops(
                cold, at_least=1 if self.smoke else COLD_INVOCATIONS_MIN)
            cache = self.scratch / "cache-1"
        else:
            # Fill the cache with the identical command first (an
            # operation that can fail, but not a timed one; it does use
            # up the run's window).
            window_start = time.monotonic()
            cache = self.scratch / "cache-fill"
            self.result.untimed_attempts += 1
            fill, fill_csv = self._cli_invocation("fill", cache, True)
            if fill.failure:
                self._untimed_failure(f"cache fill failed ({fill.failure})")

            def warm() -> Op:
                counter[0] += 1
                op, data = self._cli_invocation(f"warm-{counter[0]}", cache,
                                                False)
                if op.failure is None and data != fill_csv:
                    op.failure = f"{self.name}: warm CSV bytes differ " \
                                 f"from the cold run's"
                return op

            self._timed_ops(
                warm, at_least=2 if self.smoke else WARM_INVOCATIONS_MIN,
                start=window_start)
        info = self._cache_info(cache)
        for op in self.result.ops:
            op.node_seconds = info["node_seconds"]
        self._entry_bytes = info["entry_bytes"]
        self._setup_samples(self._cli_list)
        return cache

    # -- the traced pass ------------------------------------------------------

    def _traced_pass(self, cache: Optional[pathlib.Path]) -> None:
        """One traced operation after the untraced reference one; the
        substitutions that let spans see every layer are printed."""
        reference = next((op.wall_s for op in self.result.ops
                          if op.failure is None), None)
        trace_out = OUT / (f"trace-{self.name}-smoke.json" if self.smoke
                           else f"trace-{self.name}.json")
        extra = ["--trace-out", str(trace_out)]
        env = None
        if self.name == "city_shard":
            env = {"REPRO_SHARD_BACKEND": "inproc"}
            self.result.notes.append(
                "traced pass substitutes REPRO_SHARD_BACKEND=inproc for spawn")
        if self.name in workloads.CLI:
            if self.name == "cli_cold":
                cache = self.scratch / "cache-traced"
            extra += ["--cache-dir", str(cache),
                      "--csv", str(self.scratch / "traced.csv")]
            self.result.notes.append(
                "traced pass substitutes in-process cli.main([..., "
                "'--jobs', '1']) for the --jobs 2 child")
        self.result.untimed_attempts += 1
        done = self._child("trace", *extra, env=env)
        out = done.last_json()
        if done.exit_code != 0 or out is None:
            self._untimed_failure(f"traced child exited {done.exit_code}")
            return
        layers = dict(out["layer_metrics"])
        # The same interval on both sides: run_scenario for the
        # in-process workloads, launch -> exit for the CLI ones.
        traced = done.wall_s if self.name in workloads.CLI else out["wall_s"]
        layers["trace.overhead_ratio"] = \
            traced / reference if reference else None
        for name in ("harness.cli.import_s", "harness.cli.list_s",
                     "harness.cache.entry_bytes"):
            layers.setdefault(name, None)
        if self.name in workloads.CLI:
            layers["harness.cache.entry_bytes"] = self._entry_bytes
            if self.result.setups:
                layers["harness.cli.list_s"] = self.result.setups[0]
            self.result.untimed_attempts += 1
            imported = launch(["-c", "import repro.harness.cli"], self._log())
            if imported.exit_code == 0:
                layers["harness.cli.import_s"] = imported.wall_s
            else:
                self._untimed_failure("'import repro.harness.cli' failed")
        self.result.layers = layers
        self.result.notes.append(f"trace written to "
                                 f"{trace_out.relative_to(ROOT)}")

    # -- entry ----------------------------------------------------------------

    def run(self) -> RunResult:
        """Measure the workload (plus one traced pass when tracing)."""
        self.scratch.mkdir(parents=True, exist_ok=True)
        try:
            cache = None
            if self.name in workloads.CLI:
                cache = self._run_cli()
            else:
                self._run_in_process()
            self._check_digests()
            if self.trace:
                self._traced_pass(cache)
        finally:
            shutil.rmtree(self.scratch, ignore_errors=True)
        return self.result

    def _check_digests(self) -> None:
        """Repeats of one (workload, seed) must agree bit for bit."""
        reference = self.result.digest
        for op in self.result.ops:
            if op.failure is None and op.digest != reference:
                op.failure = (f"{self.name}: repeat disagrees on the "
                              f"output digest (seed {self.seed})")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> RunResult:
    """One run of one workload: the unit both entry points share."""
    return WorkloadRun(name, seed, seconds, trace, smoke).run()


# --------------------------------------------------------------------------
# Reporting
# --------------------------------------------------------------------------

def _golden() -> dict:
    try:
        return json.loads((HERE / "golden.json").read_text())
    except (OSError, json.JSONDecodeError):
        return {}


def digest_matches_pin(result: RunResult, smoke: bool) -> Optional[bool]:
    """Informational: does the seed-0 digest equal the pinned one?  Never
    counted as a failure — a behaviour fix cannot edit ``golden.json``."""
    if result.seed != 0 or result.digest is None:
        return None
    pin = _golden().get("smoke" if smoke else "full", {}).get(result.workload)
    return None if pin is None else pin == result.digest


def _fmt(value: Optional[float]) -> str:
    return "null" if value is None else f"{value:.6g}"


def print_run(result: RunResult, smoke: bool) -> None:
    """Every metric of one run by name, with its unit."""
    name = result.workload
    e2e = result.e2e()
    good = sum(op.failure is None for op in result.ops)
    for metric, unit, _, _ in E2E_METRICS:
        samples = len(result.setups) if metric == "setup_s" else good
        print(f"{name} {metric} = {_fmt(e2e.get(metric))} {unit} "
              f"(best of n={samples})")
    print(f"{name} per-operation wall_s: "
          f"{' '.join(f'{op.wall_s:.4g}' for op in result.ops)}")
    print(f"{name} failed_share = "
          f"{len(result.failures) / max(result.attempted, 1):.6g} ratio "
          f"({len(result.failures)} of {result.attempted} operations)")
    print(f"{name} digest = {result.digest} digest_matches_pin = "
          f"{digest_matches_pin(result, smoke)}")
    for failure in result.failures:
        print(f"FAILED {failure}")
    for note in result.notes:
        print(f"{name} note: {note}")
    if result.layers is not None:
        for metric, unit in LAYER_METRICS:
            print(f"{name} {metric} = {_fmt(result.layers.get(metric))} "
                  f"{unit}")


def contract_result(result: RunResult, trace: bool) -> dict:
    """The one JSON object the contract asks for as the last line."""
    if trace:
        layers = result.layers or {}
        # The contract wants a number for every declared metric: a layer
        # the run never entered (printed ``null`` above) reads 0 here.
        metrics = {name: {"value": layers.get(name) or 0, "unit": unit}
                   for name, unit in LAYER_METRICS}
        complete = result.layers is not None
    else:
        e2e = result.e2e()
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit, _, _ in E2E_METRICS if name in e2e}
        complete = len(metrics) == len(E2E_METRICS)
    return {
        "correct": complete and not result.failures,
        "attempted": max(result.attempted, 1),
        "failed": len(result.failures),
        "metrics": metrics,
    }


# --------------------------------------------------------------------------
# The whole set: rounds, calibration, self-check
# --------------------------------------------------------------------------

def host_calibration() -> Optional[float]:
    """A fixed ~1 s pure-Python + numpy spin, timed in a child so the
    driver stays small (a child's ``ru_maxrss`` starts at its parent's).
    Informational: it tells a slow *host* from a slow *program* (this
    sandbox drifted ~30 % between sessions while the benchmark was
    sized)."""
    done = launch([str(HERE / "child.py"), "calibrate"], OUT / "calibrate.out")
    out = done.last_json()
    (OUT / "calibrate.out").unlink(missing_ok=True)
    return out["calib_s"] if done.exit_code == 0 and out else None


def _spread(values: Sequence[float]) -> Tuple[float, float]:
    """``(median, IQR)`` with the quartiles of ``statistics.quantiles``."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q3 - q1


Summary = Dict[Tuple[str, str], Tuple[float, float, int]]


def run_set(label: str, seed: int, repeats: int, seconds: float, smoke: bool
            ) -> Tuple[Summary, List[str]]:
    """``repeats`` interleaved rounds over every workload; returns
    ``{(workload, metric): (median, IQR, n)}`` and the failures seen.
    The smoke pass traces inside its single round, so each workload is
    launched once."""
    rounds: List[Tuple[float, Dict[str, RunResult]]] = []
    failures: List[str] = []
    digests: Dict[str, set] = {}

    def one_round(index: int) -> Tuple[float, Dict[str, RunResult]]:
        calib = host_calibration()
        if calib is None:
            failures.append("the host calibration child failed")
            calib = float("nan")
        print(f"{label} round {index}: host_calib_s = {calib:.4f} s")
        results = {}
        for name in workloads.WORKLOADS:
            result = run_workload(name, seed, seconds, smoke, smoke)
            print_run(result, smoke)
            failures.extend(result.failures)
            if result.digest:
                digests.setdefault(name, set()).add(result.digest)
            results[name] = result
        return calib, results

    for index in range(repeats):
        rounds.append(one_round(index))
    reruns = 0
    while reruns < MAX_ROUND_RERUNS and len(rounds) > 1:
        median = statistics.median(calib for calib, _ in rounds)
        off = [i for i, (calib, _) in enumerate(rounds)
               if abs(calib / median - 1.0) > CALIBRATION_TOLERANCE]
        if not off:
            break
        reruns += 1
        print(f"{label}: discarding round {off[0]} (host_calib_s "
              f"{rounds[off[0]][0]:.4f} s vs the set's median "
              f"{median:.4f} s) and rerunning it")
        rounds[off[0]] = one_round(off[0])
    for name, seen in digests.items():
        if len(seen) > 1:
            failures.append(f"{name}: rounds disagree on the output digest "
                            f"(seed {seed})")
    summary: Summary = {}
    for name in workloads.WORKLOADS:
        per_round = [results[name].e2e() for _, results in rounds]
        for metric, _, _, _ in E2E_METRICS:
            values = [e2e[metric] for e2e in per_round if metric in e2e]
            if values:
                summary[name, metric] = (*_spread(values), len(values))
    return summary, failures


def _unit_and_bound(metric: str) -> Tuple[str, float]:
    return next((u, b) for m, u, _, b in E2E_METRICS if m == metric)


def print_summary(label: str, summary: Summary) -> None:
    """Median, IQR, sample count and bound per metric x workload."""
    for (name, metric), (median, iqr, n) in summary.items():
        unit, bound = _unit_and_bound(metric)
        print(f"{label} {name} {metric}: median {median:.6g} {unit}, "
              f"IQR {iqr:.4g} ({iqr / median:.2%} of median), n={n}, "
              f"bound {bound:.0%}")


def selfcheck(first: Summary, second: Summary) -> List[str]:
    """Two sets of the same code must agree within the metric's bound."""
    problems = []
    for key in first:
        name, metric = key
        _, bound = _unit_and_bound(metric)
        (m1, iqr1, _), (m2, iqr2, _) = first[key], second[key]
        shift = abs(m2 - m1) / m1
        noise = max(iqr1 / m1, iqr2 / m2)
        verdict = "ok" if shift <= bound else "DIFFERS"
        print(f"selfcheck {name} {metric}: medians {m1:.6g} / {m2:.6g}, "
              f"IQRs {iqr1:.4g} / {iqr2:.4g}, shift {shift:.2%}, "
              f"noise {noise:.2%}, bound {bound:.0%}: {verdict}")
        if shift > bound:
            problems.append(f"{name} {metric} moved {shift:.2%} between two "
                            f"sets of the same code (bound {bound:.0%})")
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS),
                        help="run this workload once and end with the "
                             "contract's JSON line (default: the whole set)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="how long one run keeps starting operations")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="add the traced pass")
    parser.add_argument("--repeats", type=int, default=5,
                        help="rounds per set (whole-set mode)")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run two sets and compare them to the bounds")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workloads, one round, trace on")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "harness").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} is not here; the benchmark "
              f"runs the program from source", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    if args.workload is not None:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), args.smoke)
        print_run(result, args.smoke)
        outcome = contract_result(result, bool(args.trace))
        print(json.dumps(outcome))
        return 0 if outcome["correct"] else 1

    repeats = 1 if args.smoke else args.repeats
    summary, failures = run_set("set-1", args.seed, repeats, args.seconds,
                                args.smoke)
    if args.selfcheck:
        second, more = run_set("set-2", args.seed, repeats, args.seconds,
                               args.smoke)
        failures += more
    if args.trace and not args.smoke:
        for name in workloads.WORKLOADS:
            result = run_workload(name, args.seed, args.seconds, True)
            print_run(result, args.smoke)
            failures.extend(result.failures)
    print_summary("set-1", summary)
    if args.selfcheck:
        print_summary("set-2", second)
        failures += selfcheck(summary, second)
    for failure in failures:
        print(f"FAILED {failure}")
    print(f"{'FAILED' if failures else 'ok'}: {len(failures)} failed "
          f"check(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
