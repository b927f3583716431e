"""Fault and churn injection: availability as a first-class scenario axis.

The paper's system model lets processes "crash (or recover) at any time"
over a collision-prone medium (Section 2).  This subpackage turns that
sentence into a seed-deterministic subsystem driven entirely off the
simulation clock, so any scenario — and therefore any experiment or
figure — can run under failures:

* :mod:`repro.faults.plan` — declarative :class:`FaultPlan` /
  :class:`FaultEvent` schedules (crash, recover, silence, restore,
  drain) targeting explicit node ids or population fractions,
* :mod:`repro.faults.churn` — stochastic population churn: alternating
  session/rest renewal processes per node, each drawing from its own
  :class:`~repro.sim.rng.RngRegistry` stream so results are
  bit-reproducible and cache-keyable,
* :mod:`repro.faults.outage` — regional outages/jamming: every node
  inside a spatial region (resolved through the medium's
  :class:`~repro.sim.space.SpatialGrid`) loses its radio for a window,
* :mod:`repro.faults.loss` — per-link and burst message-loss models
  layered on the :class:`~repro.net.medium.WirelessMedium`,
* :mod:`repro.faults.injector` — the per-world driver
  (:class:`FaultInjector`) that schedules all of the above and records
  the :class:`FaultTimeline` the availability metrics are computed from.

A scenario opts in via ``ScenarioConfig.faults``; with ``faults=None``
nothing here is imported into the run path and every result is
bit-identical to a fault-free build (the paired-verification tests in
``tests/test_faults.py`` assert exactly that for the *empty*
:class:`FaultConfig` too).  Names resolve lazily (:mod:`repro._lazy`),
and no module here loads the kernel or the medium at import time.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.faults.churn": ("ChurnConfig",),
    "repro.faults.injector": ("FaultConfig", "FaultInjector",
                              "FaultTimeline"),
    "repro.faults.loss": ("LinkLossConfig", "LinkLossProcess"),
    "repro.faults.outage": ("RegionalOutage",),
    "repro.faults.plan": ("FAULT_KINDS", "FaultEvent", "FaultPlan"),
})
