"""Parallel multi-seed execution engine.

The paper averages every data point over 30 differently-seeded runs, and
those runs are independent by construction — a sweep is embarrassingly
parallel work.  This module owns the scheduling: a
:class:`ParallelRunner` fans fully-specified ``ScenarioConfig`` jobs (one
per seed) across a process pool, consults an optional on-disk
:class:`~repro.harness.cache.ResultCache` before computing anything, and
always returns results in the caller's seed order regardless of which
worker finished first.

Why ``spawn`` and not ``fork``
------------------------------
Workers are started with the multiprocessing *spawn* method on every
platform, deliberately:

* **Determinism.**  A spawned worker is a pristine interpreter: it
  imports :mod:`repro` fresh and carries none of the parent's accumulated
  module-level state (street-map caches, benchmark sweep caches, already
  seeded global RNGs).  Every scenario therefore executes in exactly the
  environment a serial run in a fresh process would see, which is what
  lets the determinism suite assert *bit-identical* serial/parallel
  results.  A forked worker would instead inherit whatever mutable state
  the parent happened to have built up at fork time, making results
  depend on scheduling history.
* **Safety.**  ``fork`` in a process that might hold locks (logging,
  pytest capture plugins) deadlocks sporadically; CPython 3.12+ warns and
  3.14 changed the Linux default to spawn for exactly this reason.

The sharded engine's workers (:mod:`repro.sim.shard.engine`) are the
one place the repo forks, and the reasons above do not reach them.  A
shard worker lives for one run and serves no other job, so it has no
scheduling history to inherit; and what it does inherit — imported
modules, the street-map cache, the config — is exactly what the
in-process shard backend already shares by stepping every shard world
inside the driver, with bit-identical results.  The engine forks only
when the driver has no other live thread (this pool's manager thread
is one), and steps the shards in-process otherwise, so no lock can be
held across the fork.  Forking skips a fresh interpreter, a re-import
and a rebuilt street map per worker; the pool's long-lived workers
keep *spawn*.

Everything crossing the process boundary — the config out, the
:class:`~repro.harness.scenario.ScenarioResult` back — must pickle.  A
result is plain data (the metrics, energy and fault records its world
handed over at close), so it pickles as is, the payload is the
measurements rather than the world graph, and the copy equals the
original.

With ``jobs=1`` (the default) no pool and no pickling are involved at
all: jobs run in-process, keeping tier-1 tests dependency- and
subprocess-free.

There is no process-wide runner.  Whoever runs a sweep owns the
runner it runs on: each CLI builds one from its flags and hands it
down (:func:`repro.study.run_study`, every ``ALL_EXPERIMENTS`` entry
and :func:`repro.rt.bridge.loopback_bridge` take it as an argument),
and ``None`` there means a fresh serial, uncached runner.

The pool is a ``concurrent.futures`` executor, not a
``multiprocessing.Pool``, which silently replaces a killed worker and
never yields its job (the sweep hangs).  A lost worker raises
:class:`WorkerLost` instead.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.harness.cache import CanonicalMemo, ResultCache, config_digest
from repro.harness.runner import MultiSeedResult
from repro.harness.scenario import (ScenarioConfig, ScenarioResult,
                                    run_scenario)

#: Environment variable giving the default worker count (CLI/benchmarks).
JOBS_ENV = "REPRO_JOBS"


def available_cpu_count() -> int:
    """CPUs this *process* may actually run on (container-aware).

    ``os.cpu_count()`` reports the machine, which overcounts inside a
    cgroup CPU limit or a restricted affinity mask — and overcounting
    makes the auto backends (worker pools, the shard spawn/inproc
    choice) oversubscribe.  Prefer the scheduler affinity mask, then
    ``os.process_cpu_count()`` where it exists (3.13+), then fall back
    to the machine count.  Benchmarks record this value in their meta
    so trajectory entries are comparable across hosts.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return len(getaffinity(0)) or 1
        except OSError:   # pragma: no cover - non-Linux affinity quirk
            pass
    process_count = getattr(os, "process_cpu_count", None)
    if process_count is not None:   # pragma: no cover - 3.13+
        return process_count() or 1
    return os.cpu_count() or 1


def resolve_jobs(jobs: Optional[int] = None, default: int = 1) -> int:
    """Normalise a worker count: ``None`` reads ``$REPRO_JOBS`` (falling
    back to ``default``), and ``0`` means "all *available* CPUs"
    (container-aware: see :func:`available_cpu_count`).  The single home
    of that rule — the CLI and the benchmark suite both resolve through
    it.  A negative or non-integer count raises a one-line
    :class:`ValueError`.
    """
    if jobs is None:
        raw = os.environ.get(JOBS_ENV)
        try:
            jobs = default if raw is None else int(raw)
        except ValueError:
            raise ValueError(f"{JOBS_ENV} must be an integer worker "
                             f"count: {raw!r}") from None
    if jobs < 0:
        raise ValueError(f"worker count (--jobs, {JOBS_ENV}) must be >= 0 "
                         f"(0 = all CPUs): {jobs}")
    if jobs == 0:
        return available_cpu_count()
    return jobs


def _execute(config: ScenarioConfig) -> ScenarioResult:
    """Top-level worker entry point (spawn requires it importable).

    The summary is derived here, in the worker, so its memo travels
    with the result into the parent and the cache entry.
    """
    result = run_scenario(config)
    result.summary()
    return result


def _mark_daemonic() -> None:
    """Worker initializer: pool workers are daemonic, as
    ``multiprocessing.Pool``'s were, so they may not spawn children
    (the sharded engine degrades to in-process inside them)."""
    import multiprocessing
    multiprocessing.current_process().daemon = True


class WorkerLost(RuntimeError):
    """A worker process died (killed, crashed) before returning a job.

    ``config_digest`` is the cache key of the first job whose result
    never arrived; every result that arrived before it is cached.
    """

    def __init__(self, digest: str):
        super().__init__(f"a --jobs worker process died before returning "
                         f"config {digest}")
        self.config_digest = digest


@dataclass
class EngineStats:
    """What a runner actually did, for cache-hit reporting."""

    executed: int = 0       # scenarios simulated (here or in a worker)
    cache_hits: int = 0     # scenarios answered from the result cache

    @property
    def total(self) -> int:
        """All scenario runs answered (executed + cache hits)."""
        return self.executed + self.cache_hits

    def reset(self) -> None:
        """Zero the counters (start of a new reporting window)."""
        self.executed = 0
        self.cache_hits = 0


class ParallelRunner:
    """Schedule scenario runs over ``jobs`` worker processes.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (default) executes in-process with no
        multiprocessing machinery at all; ``N > 1`` keeps a spawn-method
        pool of N workers alive for the runner's lifetime (use as a
        context manager, or call :meth:`close`, to reap it).
    cache:
        Optional :class:`ResultCache` consulted before executing each
        job and updated with every fresh result.
    """

    def __init__(self, jobs: int = 1, cache: Optional[ResultCache] = None):
        self._pool = None        # before validation: __del__ always safe
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1: {jobs}")
        self.jobs = jobs
        self.cache = cache
        self.stats = EngineStats()

    # -- lifecycle ------------------------------------------------------------

    def _ensure_pool(self):
        if self._pool is None:
            # Imported here, not at module level: multiprocessing and
            # concurrent.futures weigh ~1.3 MiB, which every `repro`
            # command — a warm-cache rerun included — would pay.
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=multiprocessing.get_context("spawn"),
                initializer=_mark_daemonic)
        return self._pool

    def close(self) -> None:
        """Reap the worker pool (idempotent; the runner stays usable —
        the pool is recreated on the next parallel call)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "ParallelRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC timing dependent
        self.close()

    # -- execution ------------------------------------------------------------

    def run_configs(self, configs: Sequence[ScenarioConfig]
                    ) -> List[ScenarioResult]:
        """Run every config; results align index-for-index with input.

        Cache hits are filled in immediately; the remaining jobs go to
        the pool (or run serially in-process for ``jobs=1``).  Output
        order is the input order by construction — completion order
        never leaks through.  Fresh results are written to the cache as
        each one arrives, so a run killed mid-sweep still leaves every
        completed cell on disk and a rerun only computes what is
        actually missing.  A worker that dies mid-job raises
        :class:`WorkerLost`.
        """
        configs = list(configs)
        results: List[Optional[ScenarioResult]] = [None] * len(configs)
        pending: List[int] = []
        # One canonical form per shared sub-config object for the batch.
        memo: CanonicalMemo = {}
        for i, config in enumerate(configs):
            # ``is not None``: a ResultCache is sized by globbing its
            # directory, and an empty one is still a cache.
            cached = (self.cache.get(config, memo=memo)
                      if self.cache is not None else None)
            if cached is not None:
                results[i] = cached
                self.stats.cache_hits += 1
            else:
                pending.append(i)

        if pending:
            if self.jobs == 1 or len(pending) == 1:
                fresh = (_execute(configs[i]) for i in pending)
            else:
                fresh = self._pooled([configs[i] for i in pending])
            for i, result in zip(pending, fresh):
                results[i] = result
                self.stats.executed += 1
                if self.cache is not None:
                    self.cache.put(result, memo=memo)
        return results  # type: ignore[return-value]  # all filled above

    def _pooled(self, configs: List[ScenarioConfig]
                ) -> Iterator[ScenarioResult]:
        """Results of ``configs`` from the pool, in input order; a
        broken pool is reaped and surfaces as :class:`WorkerLost`."""
        results = self._ensure_pool().map(_execute, configs)
        from concurrent.futures.process import BrokenProcessPool
        for config in configs:
            try:
                yield next(results)
            except BrokenProcessPool as exc:
                self.close()
                raise WorkerLost(config_digest(config)) from exc

    def run_seeds(self, config: ScenarioConfig,
                  seeds: Iterable[int]) -> MultiSeedResult:
        """Run ``config`` once per seed (everything else held fixed)."""
        seed_list = list(seeds)
        if not seed_list:
            raise ValueError("run_seeds needs at least one seed")
        results = self.run_configs(
            [config.with_changes(seed=seed) for seed in seed_list])
        return MultiSeedResult(results=results)

    def run_matrix(self, configs: Dict[str, ScenarioConfig],
                   seeds: Iterable[int]) -> Dict[str, MultiSeedResult]:
        """Run several named configurations over the same seed list.

        Used by the protocol-comparison experiments: each protocol sees
        the identical seeds, hence identical mobility and subscriber
        draws.  The whole matrix is submitted as one batch so the pool
        stays saturated across protocol boundaries.
        """
        seed_list = list(seeds)
        if not seed_list:
            raise ValueError("run_matrix needs at least one seed")
        names = list(configs)
        flat = [configs[name].with_changes(seed=seed)
                for name in names for seed in seed_list]
        results = self.run_configs(flat)
        out: Dict[str, MultiSeedResult] = {}
        for j, name in enumerate(names):
            chunk = results[j * len(seed_list):(j + 1) * len(seed_list)]
            out[name] = MultiSeedResult(results=chunk)
        return out
