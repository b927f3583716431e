"""Discrete-event simulation substrate.

This subpackage provides the deterministic discrete-event kernel the whole
reproduction runs on.  The paper evaluated its protocol inside Qualnet 3.7;
Qualnet is proprietary, so :mod:`repro.sim` supplies the equivalent
facilities the protocol layer actually observes:

* :class:`~repro.sim.kernel.Simulator` — a heap-based event loop with
  cancellable timers and periodic tasks,
* :class:`~repro.sim.rng.RngRegistry` — reproducible, independently seeded
  random streams (one per node/purpose, so adding a node never perturbs the
  draws of another),
* :mod:`repro.sim.space` — 2-D vector math and a uniform-grid spatial index
  used by the wireless medium for O(neighbourhood) range queries.

Names resolve lazily (:mod:`repro._lazy`), so reading a seed stream
(:mod:`repro.sim.rng`) does not load the kernel.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.sim.kernel": ("Simulator", "Timer", "PeriodicTask",
                         "SimulationError"),
    "repro.sim.rng": ("RngRegistry",),
    "repro.sim.space": ("Vec2", "SpatialGrid"),
})
