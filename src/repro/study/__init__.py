"""Declarative studies: axis grids + component toggles over the registry.

The study subsystem turns experiment matrices from hand-written nested
loops into declarations: a :class:`StudySpec` names a base scenario,
an ordered grid of :class:`Axis` sweeps and :class:`Component`
:class:`Toggles`, the seeds and the :class:`Metric` columns — and
:func:`run_study` expands, executes (one batch on the caller's
:class:`~repro.harness.parallel.ParallelRunner`, whose result cache
makes re-runs compute only dirty cells) and folds the
result into the same :class:`~repro.harness.experiments.ExperimentResult`
shape every hand-written experiment produces.  Analysis rides along:
multi-key pivots (:class:`PivotSpec`), component delta tables, and
Pareto-frontier extraction (:class:`Objective`,
:func:`pareto_frontier`).

The registered declarations — every figure, ablation and sweep — live
in :mod:`repro.study.studies`; ``tests/golden_experiments.json`` pins
the CSV bytes of each.  Names resolve lazily (:mod:`repro._lazy`).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.study.analysis": ("DominatedPoint", "FrontierResult",
                             "component_deltas", "delta_report", "dominates",
                             "frontier_report", "pareto_frontier",
                             "pivot_report"),
    "repro.study.engine": ("StudyResult", "run_study"),
    "repro.study.spec": ("Axis", "Component", "Metric", "Objective",
                         "PivotSpec", "StudyCell", "StudySpec", "Toggles",
                         "Variant", "expand", "set_field_path"),
    "repro.study.studies": ("ALL_EXPERIMENTS", "STUDIES", "Study",
                            "build_study", "get_study", "study_names"),
})
