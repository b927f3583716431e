"""Experiment harness: scenarios, multi-seed running and the paper's figures.

* :mod:`repro.harness.scenario` — declarative scenario configs and the
  world builder/runner,
* :mod:`repro.harness.runner` — multi-seed averaging with paired seeds,
* :mod:`repro.harness.parallel` — the parallel execution engine
  (process pool, deterministic ordering, cache integration),
* :mod:`repro.harness.cache` — the on-disk result cache,
* :mod:`repro.harness.presets` — `quick` vs `paper` experiment scales,
* :mod:`repro.harness.experiments` — the experiment result type, the
  scenario factories and the config transforms the declared studies
  (:mod:`repro.study.studies`, Figs. 11-20 plus ablations) sweep,
* :mod:`repro.harness.reporting` — ASCII tables and CSV output,
* :mod:`repro.harness.cli` — the command line over the declaration
  registry (the one harness module that imports :mod:`repro.study`).

Import layering: the config, result, cache, study and CLI modules load
no engine code — :mod:`~repro.harness.scenario` imports the kernel,
medium, nodes and mobility models inside the functions that build a
world — so a warm-cache rerun never loads the simulator.  The scenario
names are bound eagerly (that module is engine-free, and every harness
user loads it); the rest resolve lazily (:mod:`repro._lazy`).  Eager
binding also keeps each name here the function ``scenario`` defined,
even if that module's attribute is patched at run time later (the
end-to-end benchmark's tracer wraps both bindings).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.harness.scenario": ("CitySectionSpec", "FixedPositionsSpec",
                               "MobilitySpec", "Publication",
                               "RandomWaypointSpec", "ScenarioConfig",
                               "ScenarioResult", "StationarySpec", "World",
                               "build_world", "run_scenario"),
    "repro.harness.runner": ("Aggregate", "MultiSeedResult", "aggregate"),
    "repro.harness.cache": ("ResultCache", "code_version_tag",
                            "config_digest"),
    "repro.harness.parallel": ("EngineStats", "ParallelRunner"),
    "repro.harness.presets": ("PAPER", "QUICK", "SMOKE", "Scale",
                              "get_scale"),
    "repro.harness.experiments": ("ExperimentResult", "churn_scenario",
                                  "city_scenario", "energy_scenario",
                                  "rwp_scenario"),
    "repro.harness.reporting": ("depletion_timeline", "format_engine_stats",
                                "format_experiment", "format_table",
                                "to_csv"),
}, eager=("repro.harness.scenario",))
