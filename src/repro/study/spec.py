"""Declarative study specifications: axis grids and component toggles.

A *study* turns one base :class:`~repro.harness.scenario.ScenarioConfig`
plus a handful of declarations into a full experiment matrix:

* an :class:`Axis` is a named grid over any config field path
  (``"faults.churn.mean_session_s"``, ``"gossip.fanout"``,
  ``"protocol"`` via the registry, ...) or an arbitrary per-value
  config transform;
* a :class:`Component` is an on/off toggle expressed as config changes
  (back-off, id-exchange, adaptive heartbeat, ...); a :class:`Toggles`
  dimension enumerates named :class:`Variant` subsets of its
  components (default: the full system plus each leave-one-out);
* a :class:`StudySpec` combines the base config, an ordered ``grid``
  of dimensions, the averaging seeds and the :class:`Metric` columns
  to report — optionally with Pareto :class:`Objective` directions and
  a :class:`PivotSpec` rendering.

:func:`expand` turns a spec into its deterministic cross product of
:class:`StudyCell` jobs — pure declaration-to-configs translation, no
execution (that is :func:`repro.study.engine.run_study`'s job).  The
expansion order is the grid declaration order with the *rightmost*
dimension varying fastest, exactly like the nested ``for`` loops the
hand-written experiments used — which is what lets every declaration
reproduce its pinned CSV (``tests/golden_experiments.json``) row for
row.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field
from typing import (Callable, Dict, Mapping, Optional, Sequence, Tuple,
                    Union)

from repro.harness.scenario import ScenarioConfig

__all__ = ["Axis", "Component", "Variant", "Toggles", "Metric",
           "Objective", "PivotSpec", "StudySpec", "StudyCell",
           "set_field_path", "expand"]


# --------------------------------------------------------------------------
# Config field paths
# --------------------------------------------------------------------------

def set_field_path(config, path: str, value):
    """Return a copy of ``config`` with the dotted ``path`` set to
    ``value``.

    Every segment but the last must name a dataclass field holding
    another dataclass (``"frugal.eviction_policy"`` replaces the
    ``eviction_policy`` field of the nested
    :class:`~repro.core.config.FrugalConfig`); all the intermediate
    objects are rebuilt immutably via :func:`dataclasses.replace`, so
    the originals are never mutated.  Unknown fields and ``None``
    intermediates raise :class:`ValueError` naming the offending
    segment — a typo'd axis path must fail at declaration time, not
    silently sweep nothing.
    """
    segments = path.split(".")
    chain = [config]          # the object each segment is a field of
    for depth, name in enumerate(segments):
        node = chain[-1]
        if depth and node is None:
            raise ValueError(
                f"cannot set {path!r}: intermediate field "
                f"{segments[depth - 1]!r} is None (give the base config "
                f"a concrete value first)")
        if not dataclasses.is_dataclass(node):
            raise ValueError(
                f"cannot descend into {type(node).__name__!r} at "
                f"segment {name!r} of path {path!r}: not a dataclass")
        names = {f.name for f in dataclasses.fields(node)}
        if name not in names:
            raise ValueError(
                f"unknown config field {name!r} in path {path!r}; "
                f"known fields of {type(node).__name__}: {sorted(names)}")
        if depth < len(segments) - 1:
            chain.append(getattr(node, name))
    for node, name in zip(reversed(chain), reversed(segments)):
        value = dataclasses.replace(node, **{name: value})
    return value


# --------------------------------------------------------------------------
# Dimensions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Axis:
    """A named grid over one config degree of freedom.

    ``values`` are swept in declaration order.  Each value is applied
    to the base config either through ``path`` — one dotted field path,
    or a tuple of paths all set to the same value (e.g. pinning
    ``mobility.speed_min`` and ``mobility.speed_max`` together) — or
    through an arbitrary ``apply(config, value) -> config`` transform
    for knobs that are not a plain field (duty-cycle schedules, fault
    plans).  When neither is given, ``path`` defaults to ``name``,
    which covers top-level fields such as ``"protocol"`` directly.

    ``cells`` maps a value to the parameter cells of its result row
    (default ``{name: value}``); axes over composite values use it to
    explode a tuple into several row columns.

    A ``folded`` axis is swept like any other but emits no row cells:
    its points are reduced into *one* row per combination of the other
    dimensions (see :attr:`Metric.fold`) — the paper's "all processes,
    in turn, become the original publisher" is a folded publisher axis.
    It must be the rightmost grid dimension.
    """

    name: str
    values: Tuple
    path: Optional[Union[str, Tuple[str, ...]]] = None
    apply: Optional[Callable[[ScenarioConfig, object], ScenarioConfig]] = None
    cells: Optional[Callable[[object], Dict[str, object]]] = None
    folded: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValueError(f"axis {self.name!r} has no values")
        if self.path is not None and self.apply is not None:
            raise ValueError(
                f"axis {self.name!r}: give either path or apply, not both")

    def paths(self) -> Tuple[str, ...]:
        """The field path(s) this axis writes (empty for apply-axes)."""
        if self.apply is not None:
            return ()
        path = self.name if self.path is None else self.path
        return (path,) if isinstance(path, str) else tuple(path)

    def points(self) -> Tuple[Tuple[Dict[str, object], Callable], ...]:
        """One ``(row cells, config transform)`` pair per value."""
        out = []
        for value in self.values:
            if self.folded:
                cells = {}
            elif self.cells is not None:
                cells = dict(self.cells(value))
            else:
                cells = {self.name: value}

            def transform(config, _value=value):
                if self.apply is not None:
                    return self.apply(config, _value)
                for path in self.paths():
                    config = set_field_path(config, path, _value)
                return config

            out.append((cells, transform))
        return tuple(out)


@dataclass(frozen=True)
class Component:
    """An on/off toggle expressed as config changes.

    The base config describes the *full* system, so a component is its
    name plus ``off``: dotted field paths mapped to the values installed
    when the component is disabled.  Enabling it changes nothing.
    """

    name: str
    off: Mapping[str, object] = field(default_factory=dict)

    def apply(self, config: ScenarioConfig,
              enabled: bool) -> ScenarioConfig:
        """Install this component's disabled changes unless ``enabled``."""
        if not enabled:
            for path, value in self.off.items():
                config = set_field_path(config, path, value)
        return config


@dataclass(frozen=True)
class Variant:
    """One named subset of enabled components.

    ``cells`` overrides the row cells (default ``{toggles.key:
    label}``); ``label`` overrides the derived name (``"+"``-joined
    component names when everything is on, ``no-<name>`` per missing
    component otherwise).
    """

    enabled: Tuple[str, ...]
    label: Optional[str] = None
    cells: Optional[Mapping[str, object]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "enabled", tuple(self.enabled))


@dataclass(frozen=True)
class Toggles:
    """The component-variant dimension of a study grid.

    Enumerates ``variants`` — explicit subsets of ``components`` to
    run — in declaration order.  The default is the classic ablation
    shape: the full system first (every component on, the baseline the
    delta tables compare against), then one leave-one-out variant per
    component.  Disabled components apply their ``off`` changes in
    component declaration order, so toggles compose deterministically.
    """

    components: Tuple[Component, ...]
    key: str = "variant"
    variants: Optional[Tuple[Variant, ...]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", tuple(self.components))
        if not self.components:
            raise ValueError("Toggles needs at least one component")
        names = [c.name for c in self.components]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate component names: {names}")
        if self.variants is not None:
            object.__setattr__(self, "variants", tuple(self.variants))
            for variant in self.variants:
                unknown = set(variant.enabled) - set(names)
                if unknown:
                    raise ValueError(
                        f"variant enables unknown components "
                        f"{sorted(unknown)}; declared: {names}")

    def resolved_variants(self) -> Tuple[Variant, ...]:
        """The explicit variants, or the default all-on + leave-one-out."""
        if self.variants is not None:
            return self.variants
        names = tuple(c.name for c in self.components)
        out = [Variant(enabled=names)]
        for name in names:
            out.append(Variant(enabled=tuple(n for n in names
                                             if n != name)))
        return tuple(out)

    def label(self, variant: Variant) -> str:
        """The display label of ``variant`` (explicit or derived)."""
        if variant.label is not None:
            return variant.label
        names = [c.name for c in self.components]
        missing = [n for n in names if n not in variant.enabled]
        if not missing:
            return "+".join(names)
        return "+".join(f"no-{n}" for n in missing)

    def points(self) -> Tuple[Tuple[Dict[str, object], Callable], ...]:
        """One ``(row cells, config transform)`` pair per variant."""
        out = []
        for variant in self.resolved_variants():
            cells = (dict(variant.cells) if variant.cells is not None
                     else {self.key: self.label(variant)})

            def transform(config, _variant=variant):
                for component in self.components:
                    config = component.apply(
                        config, component.name in _variant.enabled)
                return config

            out.append((cells, transform))
        return tuple(out)


#: A study grid dimension: an axis sweep or a component-variant set.
Dimension = Union[Axis, Toggles]


# --------------------------------------------------------------------------
# Metrics, objectives, pivots
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Metric:
    """One reported column of a study row.

    By default the column is the mean of summary key ``key`` (which
    defaults to ``column``) across the seeds; ``std=True`` also emits
    ``<column>_std``.  ``derive`` computes the value from the whole
    :class:`~repro.harness.runner.MultiSeedResult` instead (e.g. mean
    wall-clock), overriding the summary lookup.

    Under a folded axis the column reduces the per-point values (one
    seed-mean per folded point, declaration order): by default through
    :func:`~repro.harness.runner.aggregate` — their mean, and with
    ``std=True`` their deviation as ``<column>_std`` — or through
    ``fold(values) -> float`` when given (``max``, a spread, ...).
    """

    column: str
    key: Optional[str] = None
    std: bool = False
    derive: Optional[Callable] = None
    fold: Optional[Callable[[Sequence[float]], float]] = None


@dataclass(frozen=True)
class Objective:
    """One Pareto objective: a row key and an optimisation direction."""

    key: str
    goal: str = "max"

    def __post_init__(self) -> None:
        if self.goal not in ("max", "min"):
            raise ValueError(
                f"objective {self.key!r}: goal must be 'max' or 'min', "
                f"got {self.goal!r}")

    def better(self, a: float, b: float) -> bool:
        """Whether value ``a`` strictly beats ``b`` in this direction."""
        return a > b if self.goal == "max" else a < b


@dataclass(frozen=True)
class PivotSpec:
    """A pivot rendering: row keys x column keys -> value key."""

    rows: Tuple[str, ...]
    cols: Tuple[str, ...]
    value: str

    def __post_init__(self) -> None:
        rows = ((self.rows,) if isinstance(self.rows, str)
                else tuple(self.rows))
        cols = ((self.cols,) if isinstance(self.cols, str)
                else tuple(self.cols))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        if not rows or not cols:
            raise ValueError("pivot needs at least one row and col key")


# --------------------------------------------------------------------------
# The study spec and its expansion
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class StudySpec:
    """A complete declarative experiment: base + grid + seeds + metrics.

    ``grid`` is an ordered tuple of dimensions (axes and component
    toggles); the cross product is swept with the rightmost dimension
    varying fastest.  ``parameters`` becomes the resulting
    :class:`~repro.harness.experiments.ExperimentResult.parameters`;
    ``objectives`` arm Pareto-frontier extraction and ``pivot`` a grid
    rendering, both attached to the result as printable notes.
    """

    study_id: str
    title: str
    base: ScenarioConfig
    grid: Tuple[Dimension, ...]
    seeds: Tuple[int, ...]
    metrics: Tuple[Metric, ...]
    parameters: Mapping[str, object] = field(default_factory=dict)
    objectives: Tuple[Objective, ...] = ()
    pivot: Optional[PivotSpec] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "grid", tuple(self.grid))
        object.__setattr__(self, "seeds", tuple(self.seeds))
        object.__setattr__(self, "metrics", tuple(self.metrics))
        object.__setattr__(self, "objectives", tuple(self.objectives))
        if not self.grid:
            raise ValueError(f"study {self.study_id!r} has an empty grid")
        if not self.seeds:
            raise ValueError(f"study {self.study_id!r} has no seeds")
        if not self.metrics:
            raise ValueError(f"study {self.study_id!r} has no metrics")
        columns = [m.column for m in self.metrics]
        if len(set(columns)) != len(columns):
            raise ValueError(
                f"study {self.study_id!r} repeats metric columns: "
                f"{columns}")
        for dim in self.grid[:-1]:
            if isinstance(dim, Axis) and dim.folded:
                raise ValueError(
                    f"study {self.study_id!r}: folded axis {dim.name!r} "
                    f"must be the rightmost grid dimension")

    def folded_axis(self) -> Optional[Axis]:
        """The folded (rightmost) axis, or ``None`` when rows are cells."""
        last = self.grid[-1]
        return last if isinstance(last, Axis) and last.folded else None

    def variant_keys(self) -> Tuple[str, ...]:
        """Row-cell keys contributed by the Toggles dimensions."""
        keys = []
        for dim in self.grid:
            if isinstance(dim, Toggles):
                for cells, _ in dim.points():
                    for key in cells:
                        if key not in keys:
                            keys.append(key)
        return tuple(keys)

    def axis_keys(self) -> Tuple[str, ...]:
        """Row-cell keys contributed by the Axis dimensions."""
        keys = []
        for dim in self.grid:
            if isinstance(dim, Axis):
                for cells, _ in dim.points():
                    for key in cells:
                        if key not in keys:
                            keys.append(key)
        return tuple(keys)


@dataclass(frozen=True)
class StudyCell:
    """One expanded grid point: its row cells and its full config."""

    cells: Mapping[str, object]
    config: ScenarioConfig


def expand(spec: StudySpec) -> Tuple[StudyCell, ...]:
    """The deterministic cross product of a study's grid.

    Pure declaration-to-config translation: the same spec always
    expands to the same cells in the same order (grid declaration
    order, rightmost dimension fastest — the nested-loop order of the
    hand-written experiments).  Two dimensions emitting the same row
    key is a declaration bug and raises :class:`ValueError`.
    """
    per_dim = [dim.points() for dim in spec.grid]
    out = []
    for combo in itertools.product(*per_dim):
        cells: Dict[str, object] = {}
        config = spec.base
        for dim_cells, transform in combo:
            clash = set(dim_cells) & set(cells)
            if clash:
                raise ValueError(
                    f"study {spec.study_id!r}: row key(s) {sorted(clash)} "
                    f"emitted by more than one grid dimension")
            cells.update(dim_cells)
            config = transform(config)
        out.append(StudyCell(cells=cells, config=config))
    return tuple(out)
