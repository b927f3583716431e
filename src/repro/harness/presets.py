"""Experiment scales: `smoke` (tiny), `quick` (CI-friendly), `paper` (full).

The paper's evaluation runs 150 processes over 25 km² for the random
waypoint model and 15 processes over the 1200x900 m campus for the city
section model, averaging 30 seeds.  That takes minutes per data point in
pure Python, so every experiment also has a `quick` scale which preserves
the *density* (processes per unit of radio coverage) and the qualitative
shape while shrinking population, area and seed count.

Select with the ``REPRO_SCALE`` environment variable (``quick`` default,
``paper``, or the minimal ``smoke`` used by CI smoke steps) or by passing
a :class:`Scale` explicitly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from repro.sim.shard.config import ShardConfig


@dataclass(frozen=True)
class Scale:
    """Sizing knobs shared by all experiments."""

    name: str
    # Random waypoint (Figs. 11, 12, 17-20)
    rwp_processes: int
    rwp_area_m: float          # side of the square area
    rwp_warmup: float          # paper: 600 s
    # City section (Figs. 13-16)
    city_processes: int
    city_warmup: float
    city_publisher_rotations: int   # paper: all 15 processes in turn
    # Averaging
    seeds: int                 # paper: 30
    # Sweep granularity (indices into the paper's full parameter lists)
    sweep_density: str         # "coarse" or "full"
    # First seed of the averaging window (CLI --seed re-bases every
    # figure onto a fresh deterministic seed set without editing presets).
    seed_base: int = 0
    # Shard plan every scenario factory stamps (CLI --shards); the
    # default keeps the classic single-world engine.
    shards: ShardConfig = ShardConfig()

    def seed_list(self, base: Optional[int] = None) -> List[int]:
        """The deterministic averaging seeds, starting at ``base``
        (default: this scale's ``seed_base``)."""
        start = self.seed_base if base is None else base
        return [start + i for i in range(self.seeds)]

    def with_seed_base(self, base: int) -> "Scale":
        """A copy of this scale whose seed list starts at ``base``."""
        return replace(self, seed_base=base)

    def pick(self, full: Sequence, coarse: Sequence) -> List:
        """Choose the full or coarse sweep values for this scale."""
        return list(full if self.sweep_density == "full" else coarse)


SMOKE = Scale(
    name="smoke",
    # Smallest population that still forms a multi-hop network at the
    # paper's ~6 processes/km² density; 2 seeds.  For CI smoke steps and
    # local sanity runs where wall-clock matters more than error bars.
    rwp_processes=10,
    rwp_area_m=1300.0,
    rwp_warmup=10.0,
    city_processes=6,
    city_warmup=10.0,
    city_publisher_rotations=1,
    seeds=2,
    sweep_density="coarse",
)

QUICK = Scale(
    name="quick",
    # ~6 processes per km² like the paper (150 / 25 km²), 442 m radio range.
    rwp_processes=24,
    rwp_area_m=2000.0,
    rwp_warmup=40.0,
    city_processes=10,
    city_warmup=30.0,
    city_publisher_rotations=3,
    seeds=3,
    sweep_density="coarse",
)

PAPER = Scale(
    name="paper",
    rwp_processes=150,
    rwp_area_m=5000.0,
    rwp_warmup=600.0,
    city_processes=15,
    city_warmup=60.0,
    city_publisher_rotations=15,
    seeds=30,
    sweep_density="full",
)

_SCALES = {s.name: s for s in (SMOKE, QUICK, PAPER)}


def get_scale(name: Optional[str] = None) -> Scale:
    """Resolve a scale by name, or from ``REPRO_SCALE`` (default quick)."""
    if name is None:
        name = os.environ.get("REPRO_SCALE", "quick")
    try:
        return _SCALES[name]
    except KeyError:
        raise ValueError(f"unknown scale {name!r}; "
                         f"known: {sorted(_SCALES)}") from None
