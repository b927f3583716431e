"""Multi-seed aggregation and the serial execution entry points.

The paper averages every data point over 30 differently seeded runs; this
module owns the statistics of that loop.  Seeding is paired: the same seed
produces the same mobility traces and subscriber draw for every protocol,
so protocol comparisons (Figs. 17-20) are paired comparisons, not
independent samples.

Scheduling (including the worker pool and the on-disk result cache) lives
in :mod:`repro.harness.parallel`; the :func:`run_seeds`/:func:`run_matrix`
functions here delegate to the process-wide engine, so existing callers
transparently pick up whatever ``--jobs``/cache configuration the CLI or
benchmark suite installed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Sequence

from repro.harness.scenario import ScenarioConfig, ScenarioResult, \
    run_scenario

__all__ = ["Aggregate", "aggregate", "MultiSeedResult", "run_seeds",
           "run_matrix", "run_scenario"]


@dataclass(frozen=True)
class Aggregate:
    """Mean and standard deviation of one metric across seeds."""

    mean: float
    std: float
    n: int

    def __str__(self) -> str:
        return f"{self.mean:.4g} ± {self.std:.2g} (n={self.n})"


def aggregate(values: Sequence[float]) -> Aggregate:
    """Population mean/std of a metric series (n >= 1).

    Non-finite inputs are rejected outright: a single ``inf`` (e.g.
    ``joules_per_delivery`` of a run that delivered nothing) or ``nan``
    would silently poison the mean of all 30 seeds, which is far worse
    than failing loudly at the offending data point.
    """
    vals = list(values)
    if not vals:
        raise ValueError("cannot aggregate an empty series")
    for v in vals:
        if not math.isfinite(v):
            raise ValueError(
                f"cannot aggregate non-finite value {v!r}: one bad seed "
                f"would corrupt the whole mean — filter or guard the "
                f"metric (series: {vals!r})")
    mean = sum(vals) / len(vals)
    var = sum((v - mean) ** 2 for v in vals) / len(vals)
    return Aggregate(mean=mean, std=math.sqrt(var), n=len(vals))


@dataclass
class MultiSeedResult:
    """All per-seed results plus aggregated summaries."""

    results: List[ScenarioResult]

    def metric(self, fn: Callable[[ScenarioResult], float]) -> Aggregate:
        """Aggregate ``fn(result)`` across the seeds (mean/std/min/max)."""
        return aggregate([fn(r) for r in self.results])

    def summary(self) -> Dict[str, Aggregate]:
        """Aggregates of the five standard metrics.

        ``joules_per_delivery`` is ``inf`` *by design* for a seed that
        delivered nothing in time (PR 1's inf-safe convention), so a
        metric series containing ``inf`` — but no ``nan`` — aggregates
        to an honestly-infinite mean instead of tripping
        :func:`aggregate`'s strictness and aborting the whole sweep.
        The std of such a series is undefined and reported as ``nan``
        (the table renderer prints non-finite cells verbatim).
        """
        summaries = [result.summary() for result in self.results]
        series: Dict[str, List[float]] = {k: [] for k in summaries[0]}
        for summary in summaries:
            for key, value in summary.items():
                series[key].append(value)
        out: Dict[str, Aggregate] = {}
        for key, vals in series.items():
            if any(math.isinf(v) for v in vals) \
                    and not any(math.isnan(v) for v in vals):
                out[key] = Aggregate(mean=math.inf, std=math.nan,
                                     n=len(vals))
            else:
                out[key] = aggregate(vals)   # nan still fails loudly
        return out

    @property
    def reliability(self) -> Aggregate:
        """Reliability aggregated across the seeds."""
        return self.metric(lambda r: r.reliability())


def run_seeds(config: ScenarioConfig,
              seeds: Iterable[int]) -> MultiSeedResult:
    """Run ``config`` once per seed (everything else held fixed).

    Delegates to the process-wide execution engine — serial and uncached
    by default, parallel and/or cached once the CLI or benchmark suite
    has called :func:`repro.harness.parallel.configure`.
    """
    # Imported lazily: parallel imports this module for MultiSeedResult.
    from repro.harness import parallel
    return parallel.run_seeds(config, seeds)


def run_matrix(configs: Dict[str, ScenarioConfig],
               seeds: Iterable[int]) -> Dict[str, MultiSeedResult]:
    """Run several named configurations over the same seed list.

    Used by the protocol-comparison experiments: each protocol sees the
    identical seeds, hence identical mobility and subscriber draws.
    """
    from repro.harness import parallel
    return parallel.run_matrix(configs, seeds)
