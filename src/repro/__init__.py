"""Reproduction of *Frugal Event Dissemination in a Mobile Environment*
(Baehni, Chhabra, Guerraoui — Middleware 2005).

A topic-based publish/subscribe protocol for mobile ad-hoc networks,
implemented on a from-scratch discrete-event wireless simulation substrate:

* :mod:`repro.core` — the frugal protocol (heartbeats, id exchange,
  back-off dissemination, Equation-1 garbage collection),
* :mod:`repro.baselines` — the paper's three flooding comparators,
* :mod:`repro.sim` — deterministic discrete-event kernel, seeded RNG
  streams and spatial indexing,
* :mod:`repro.mobility` — random-waypoint, city-section and stationary
  mobility models,
* :mod:`repro.net` — radio propagation, broadcast medium with collisions,
  message wire-size model and the node/host binding,
* :mod:`repro.metrics` — reliability / bandwidth / duplicates / parasites
  accounting (the paper's four measurements),
* :mod:`repro.energy` — radio power states, batteries and duty cycling:
  the paper's frugality claim priced in joules and network lifetime,
* :mod:`repro.harness` — scenario builder, multi-seed runner and the
  per-figure experiment functions (Figs. 11-20 plus ablations and the
  energy experiments).

Quickstart::

    from repro.harness import ScenarioConfig, run_scenario

    result = run_scenario(ScenarioConfig.random_waypoint_demo(seed=1))
    print(result.reliability())

Every package re-exports its names lazily (:mod:`repro._lazy`): importing
``repro`` — or the harness, the cache and the CLI — loads no simulation
engine code until something runs a world.
"""

from repro._lazy import lazy_exports

__version__ = "0.14.0"

__getattr__, __dir__, _lazy_names = lazy_exports(__name__, {
    "repro.core.events": ("Event", "EventId"),
    "repro.core.config": ("FrugalConfig",),
    "repro.core.protocol": ("FrugalPubSub",),
    "repro.core.topics": ("Topic", "TopicError"),
    "repro.net.radio": ("RadioConfig",),
    "repro.net.messages": ("SizeModel",),
    "repro.sim.kernel": ("Simulator",),
})
__all__ = ["__version__", *_lazy_names]
