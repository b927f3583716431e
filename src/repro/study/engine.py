"""Study execution: expand the grid, run it through the cached engine.

:func:`run_study` is the whole pipeline: expand the
:class:`~repro.study.spec.StudySpec` into its cell cross product,
submit every ``(cell, seed)`` job as *one* batch to the parallel
execution engine (:mod:`repro.harness.parallel`) — so worker pools
stay saturated across cell boundaries and the on-disk result cache
answers every previously-computed cell, making re-runs compute only
dirty cells — then fold the per-seed results into one
:class:`~repro.harness.experiments.ExperimentResult` row per cell (per
group of cells under a folded axis).

Analysis (component delta tables, the declared pivot, the Pareto
frontier) is rendered into ``ExperimentResult.notes`` so the CLI
prints it below the row table without any per-study code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.harness import parallel
from repro.harness.experiments import ExperimentResult
from repro.harness.runner import MultiSeedResult, aggregate
from repro.study import analysis
from repro.study.spec import StudyCell, StudySpec, Toggles, expand

__all__ = ["StudyResult", "run_study"]


@dataclass
class StudyResult:
    """A fully executed study: per-seed results folded into rows.

    ``experiment`` is the flat row table (its CSV bytes are what
    ``tests/golden_experiments.json`` pins per declaration);
    ``per_cell`` keeps the underlying
    :class:`~repro.harness.runner.MultiSeedResult` of every cell for
    ad-hoc analysis beyond the declared metrics.
    """

    spec: StudySpec
    cells: Tuple[StudyCell, ...]
    per_cell: List[MultiSeedResult]
    experiment: ExperimentResult

    def frontier(self) -> analysis.FrontierResult:
        """Pareto extraction over the spec's declared objectives."""
        if not self.spec.objectives:
            raise ValueError(
                f"study {self.spec.study_id!r} declares no objectives")
        return analysis.pareto_frontier(self.experiment.rows,
                                        self.spec.objectives)


def _fill_metrics(spec: StudySpec, points: Sequence[MultiSeedResult],
                  row: Dict[str, object]) -> None:
    """Write the metric columns of one row from its grid points (one
    point, or one per value of the folded axis)."""
    folded = spec.folded_axis() is not None
    summaries = [multi.summary() for multi in points]
    for metric in spec.metrics:
        if metric.derive is not None:
            values, spread = [metric.derive(multi) for multi in points], None
        else:
            key = metric.key or metric.column
            if key not in summaries[0]:
                raise KeyError(
                    f"study {spec.study_id!r}: metric key {key!r} not in "
                    f"the scenario summary; known keys: "
                    f"{sorted(summaries[0])} (energy/fault metrics appear "
                    f"only when the base config is instrumented)")
            values = [summary[key].mean for summary in summaries]
            spread = summaries[0][key].std          # across the seeds
        if folded and metric.fold is not None:
            value, spread = metric.fold(values), None
        elif folded:
            across = aggregate(values)              # across the points
            value, spread = across.mean, across.std
        else:
            value, = values
        row[metric.column] = value
        if metric.std and spread is not None:
            row[metric.column + "_std"] = spread


def _notes(spec: StudySpec, rows: List[Dict[str, object]]) -> List[str]:
    notes: List[str] = []
    if spec.pivot is not None:
        notes.append(analysis.pivot_report(rows, spec.pivot))
    if any(isinstance(dim, Toggles) for dim in spec.grid):
        notes.append(analysis.delta_report(rows, spec.variant_keys(),
                                           spec.axis_keys(), spec.metrics))
    if spec.objectives:
        result = analysis.pareto_frontier(rows, spec.objectives)
        cell_keys = list(spec.axis_keys()) + list(spec.variant_keys())
        notes.append(analysis.frontier_report(result, cell_keys))
    return notes


def run_study(spec: StudySpec,
              runner: Optional[parallel.ParallelRunner] = None
              ) -> StudyResult:
    """Execute a study spec end to end and fold it into rows.

    All ``len(cells) * len(seeds)`` scenario jobs are submitted as one
    ordered batch through ``runner`` (default: the process-wide engine,
    so the CLI's ``--jobs``/cache flags apply transparently).  Results
    are bit-identical to running each cell through
    :func:`~repro.harness.parallel.run_seeds` in a nested loop — the
    batching only changes scheduling, never values or row order.  A
    folded axis is rightmost, so the cells of one row are consecutive.
    """
    runner = runner or parallel.get_default_runner()
    cells = expand(spec)
    seeds = spec.seeds
    configs = [cell.config.with_changes(seed=seed)
               for cell in cells for seed in seeds]
    results = runner.run_configs(configs)
    per_cell = [
        MultiSeedResult(results=results[i * len(seeds):(i + 1) * len(seeds)])
        for i in range(len(cells))]
    folded = spec.folded_axis()
    width = len(folded.values) if folded is not None else 1
    rows: List[Dict[str, object]] = []
    for start in range(0, len(cells), width):
        row: Dict[str, object] = dict(cells[start].cells)
        _fill_metrics(spec, per_cell[start:start + width], row)
        rows.append(row)
    experiment = ExperimentResult(
        experiment_id=spec.study_id, title=spec.title,
        parameters=dict(spec.parameters), rows=rows,
        notes=_notes(spec, rows))
    return StudyResult(spec=spec, cells=cells, per_cell=per_cell,
                       experiment=experiment)
