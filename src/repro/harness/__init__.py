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
"""

from repro.harness.scenario import (CitySectionSpec, FixedPositionsSpec,
                                    MobilitySpec, Publication,
                                    RandomWaypointSpec, ScenarioConfig,
                                    ScenarioResult, StationarySpec, World,
                                    build_world, known_protocols,
                                    make_protocol, run_scenario)
from repro.harness.runner import (Aggregate, MultiSeedResult, aggregate,
                                  run_matrix, run_seeds)
from repro.harness.cache import ResultCache, code_version_tag, config_digest
from repro.harness.parallel import EngineStats, ParallelRunner
from repro.harness.presets import PAPER, QUICK, SMOKE, Scale, get_scale
from repro.harness.experiments import (ExperimentResult, churn_scenario,
                                       city_scenario, energy_scenario,
                                       rwp_scenario)
from repro.harness.reporting import (availability_timeline,
                                     depletion_timeline,
                                     format_engine_stats,
                                     format_experiment, format_table,
                                     reliability_grid, to_csv)

__all__ = [
    "CitySectionSpec",
    "FixedPositionsSpec",
    "MobilitySpec",
    "Publication",
    "RandomWaypointSpec",
    "ScenarioConfig",
    "ScenarioResult",
    "StationarySpec",
    "World",
    "build_world",
    "known_protocols",
    "make_protocol",
    "run_scenario",
    "Aggregate",
    "MultiSeedResult",
    "aggregate",
    "run_matrix",
    "run_seeds",
    "EngineStats",
    "ParallelRunner",
    "ResultCache",
    "code_version_tag",
    "config_digest",
    "format_engine_stats",
    "PAPER",
    "QUICK",
    "SMOKE",
    "Scale",
    "get_scale",
    "ExperimentResult",
    "churn_scenario",
    "city_scenario",
    "energy_scenario",
    "rwp_scenario",
    "availability_timeline",
    "depletion_timeline",
    "format_experiment",
    "format_table",
    "reliability_grid",
    "to_csv",
]
