"""Sharded-world execution: spatial partitioning + epoch-barrier engine.

Split one logical world into an R x C grid of tiles
(:class:`~repro.sim.shard.partition.ShardPlan`; ``rows=1`` gives the
classic vertical stripes), run each tile's resident nodes in its own
sub-world, and exchange radio traffic at epoch barriers in a canonical
merge order with retimed, epoch-exact deliveries
(:mod:`~repro.sim.shard.engine`) — bit-identical results for any shard
count, tile shape or (sound) epoch length.  Enabled per scenario with
``ScenarioConfig(shards=K)`` or a full
:class:`~repro.sim.shard.config.ShardConfig`; the default ``shards=0``
keeps the classic single-world engine.

The engine module is loaded lazily (PEP 562): it imports the harness
for world construction, while the harness imports *this* package for
:class:`ShardConfig` — eager loading would be circular, and the classic
engine should not pay for the sharded one anyway.
"""

from repro.sim.shard.config import (DEFAULT_EPOCH_S, DEFAULT_LATENCY_S,
                                    ShardConfig, resolve_epoch_s)
from repro.sim.shard.partition import ShardPlan

_ENGINE_EXPORTS = ("ShardFrame", "ShardMedium", "ShardWorkerLost",
                   "compute_barriers", "compute_ownership",
                   "run_sharded_scenario")

__all__ = [
    "DEFAULT_EPOCH_S",
    "DEFAULT_LATENCY_S",
    "ShardConfig",
    "ShardFrame",
    "ShardMedium",
    "ShardPlan",
    "ShardWorkerLost",
    "compute_barriers",
    "compute_ownership",
    "resolve_epoch_s",
    "run_sharded_scenario",
]


def __getattr__(name: str):
    """Resolve engine exports on first touch (lazy import)."""
    if name in _ENGINE_EXPORTS:
        from repro.sim.shard import engine
        return getattr(engine, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}")
