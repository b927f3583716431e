"""A process that never moves (the paper's 0 m/s configurations)."""

from __future__ import annotations

from repro.mobility.base import MobilityModel, PauseLeg
from repro.sim.space import Vec2


class Stationary(MobilityModel):
    """Fixed-position mobility.

    If ``position`` is omitted, a uniform random point in
    ``width x height`` is drawn at start time, which lets stationary
    scenarios share the placement distribution of
    :class:`~repro.mobility.random_waypoint.RandomWaypoint`.

    Spatial indexing: a stationary process pushes exactly one (parked)
    leg, at start, and the medium's re-anchoring passes skip parked
    rows, so a 1000-node stationary population costs the grid nothing
    after setup.
    """

    def __init__(self, position: Vec2 | None = None,
                 width: float | None = None, height: float | None = None):
        super().__init__()
        if position is None and (width is None or height is None):
            raise ValueError(
                "provide either a fixed position or area dimensions")
        self._fixed = position
        self.width = width
        self.height = height

    def _initial_position(self) -> Vec2:
        if self._fixed is not None:
            return self._fixed
        return Vec2(self._rng.uniform(0.0, self.width),
                    self._rng.uniform(0.0, self.height))

    def _next_leg(self, origin: Vec2):
        return PauseLeg(origin, float("inf"), 0.0)
