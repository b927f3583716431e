"""Sharded-world execution: spatial partitioning + epoch-barrier engine.

Split one logical world into an R x C grid of tiles
(:class:`~repro.sim.shard.partition.ShardPlan`; ``rows=1`` gives the
classic vertical stripes), run each tile's resident nodes in its own
sub-world, and exchange radio traffic at epoch barriers in a canonical
merge order with retimed, epoch-exact deliveries
(:mod:`~repro.sim.shard.engine`) — bit-identical results for any shard
count, tile shape or (sound) epoch length.  Enabled per scenario with
``ScenarioConfig(shards=ShardConfig(shards=K))``; the default
``ShardConfig()`` keeps the classic single-world engine.

Every name is loaded lazily (:mod:`repro._lazy`): the engine imports
the harness for world construction, while the harness imports *this*
package for :class:`ShardConfig` — eager loading would be circular, and
neither the classic engine nor a config read should pay for the
partition geometry or the sharded engine.
"""

from repro._lazy import lazy_exports

__all__ = [
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

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sim.shard.config": ("DEFAULT_LATENCY_S", "ShardConfig",
                               "resolve_epoch_s"),
    "repro.sim.shard.partition": ("ShardPlan",),
    "repro.sim.shard.engine": ("ShardFrame", "ShardMedium",
                               "ShardWorkerLost", "compute_barriers",
                               "compute_ownership", "run_sharded_scenario"),
})
