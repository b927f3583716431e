"""Sharded-execution configuration: tile shape and latency.

:class:`ShardConfig` is the one type of ``ScenarioConfig.shards``: a
plain count is rejected there, so "four vertical stripes" is spelled
``ShardConfig(shards=4)``.

The knobs
---------
* ``shards`` / ``rows`` — the tile grid.  ``shards=K`` total tiles,
  arranged as ``rows`` full-width bands of ``K // rows`` columns each
  (``rows=1``, the default, is the classic vertical-stripe plan; a
  ``2x2`` plan is ``shards=4, rows=2``).  The partition itself lives in
  :class:`~repro.sim.shard.partition.ShardPlan`.
* ``latency_s`` — the *semantic* knob: every cross-node frame is
  delivered (and occupies the channel, as heard by everyone but its
  sender) exactly ``latency_s`` seconds after the classic engine would
  deliver it.  This constant air-to-delivery latency is what makes the
  barrier spacing unobservable: a frame sent at ``s`` is committed at
  the first barrier after ``s`` — no later than ``s + epoch`` — and
  first *used* at ``s + latency_s``, so any ``epoch <= latency_s``
  commits every frame before any shard can observe it — which is why
  the spacing is not a setting (:func:`resolve_epoch_s` picks the
  cheapest sound one).  The default of 1 s sits at the protocol stack's
  heartbeat cadence: one epoch of traffic is about one heartbeat round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Default cross-node delivery latency, seconds — see the module
#: docstring for why 1 s (one heartbeat round) is the reference point.
DEFAULT_LATENCY_S = 1.0


@dataclass(frozen=True)
class ShardConfig:
    """How (and whether) a scenario runs on the sharded engine.

    Attributes
    ----------
    shards:
        Total tile count ``K``; ``0`` (falsy) keeps the classic
        single-world engine.
    rows:
        Tile-grid rows ``R`` (must divide ``shards``); ``1`` gives the
        classic vertical stripes, ``R>1`` an ``R x (K/R)`` grid.
    latency_s:
        The constant cross-node delivery latency of the sharded
        universe, seconds (> 0).
    """

    shards: int = 0
    rows: int = 1
    latency_s: float = DEFAULT_LATENCY_S

    def __post_init__(self) -> None:
        if self.shards < 0:
            raise ValueError(f"shards must be >= 0: {self.shards}")
        if self.rows < 1:
            raise ValueError(f"rows must be >= 1: {self.rows}")
        if self.shards and self.shards % self.rows:
            raise ValueError(
                f"rows must divide the shard count: "
                f"{self.shards} % {self.rows} != 0")
        if self.latency_s <= 0 or not math.isfinite(self.latency_s):
            raise ValueError(
                f"latency_s must be positive and finite: {self.latency_s}")

    def __bool__(self) -> bool:
        """Truthy iff the sharded engine is enabled — keeps the
        historical ``if config.shards:`` dispatch working."""
        return self.shards > 0

    @property
    def cols(self) -> int:
        """Tile-grid columns ``C = K // R`` (0 when disabled)."""
        return self.shards // self.rows if self.shards else 0

    @property
    def plan_label(self) -> str:
        """The ``RxC`` shape tag benches and metadata stamp per row."""
        return f"{self.rows}x{self.cols}" if self.shards else "off"

    @classmethod
    def parse(cls, text: str) -> "ShardConfig":
        """Parse a CLI shard spec: ``"4"`` (stripes) or ``"2x2"`` (an
        ``RxC`` tile grid)."""
        raw = text.strip().lower()
        try:
            if "x" in raw:
                rows_s, cols_s = raw.split("x", 1)
                rows, cols = int(rows_s), int(cols_s)
                if rows < 1 or cols < 1:
                    raise ValueError
                return cls(shards=rows * cols, rows=rows)
            return cls(shards=int(raw))
        except ValueError:
            raise ValueError(
                f"shard spec must be an integer K or RxC grid "
                f"(e.g. '4' or '2x2'): {text!r}") from None


def resolve_epoch_s(shards: ShardConfig, duration: float,
                    warmup: float) -> float:
    """The barrier spacing one run uses, seconds.

    The largest power of two no longer than the soundness bound
    ``latency_s`` and no longer than half the run, so short scenarios
    still cross a couple of barriers.  Powers of two are binary-exact,
    hence every shard computes bit-equal barrier instants; and because
    any sound spacing yields bit-identical results (the retimed
    exchange, see :mod:`repro.sim.shard.engine`), the choice only buys
    wall-clock: fewer barriers, less drain/merge/ingest overhead per
    simulated second.
    """
    bound = min(shards.latency_s, max((warmup + duration) / 2.0, 2 ** -6))
    return 2.0 ** math.floor(math.log2(bound))
