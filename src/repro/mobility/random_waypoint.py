"""Random waypoint mobility (Johnson & Maltz, 1996).

The model used for the paper's large-area experiments (Section 5.1):
processes pick a uniformly random destination in the area, move to it at a
speed drawn uniformly from ``[speed_min, speed_max]``, pause for
``pause_time`` seconds, and repeat.  The paper uses a 5 km x 5 km area
(25 km^2), 150 processes and a 1 s pause time.

``speed_min == speed_max == v`` gives the paper's fixed-speed data points;
``speed_max == 0`` degenerates to a stationary process (the 0 m/s points).

Spatial indexing: waypoint legs routinely span kilometres, so this is
the model whose nodes drift farthest from their grid anchors between
leg pushes.  The medium's :class:`~repro.sim.batch.LegTable` re-anchors
them in one pass at query time whenever the drift could exceed the
slack (at 10 m/s and the default 55 m slack, about every 5.5 s); the
model itself pushes only its legs.
"""

from __future__ import annotations

from repro.mobility.base import Leg, MobilityModel, PauseLeg
from repro.sim.space import Vec2


class RandomWaypoint(MobilityModel):
    """Uniform random-waypoint movement in an axis-aligned rectangle."""

    def __init__(self, width: float, height: float,
                 speed_min: float, speed_max: float,
                 pause_time: float = 1.0):
        super().__init__()
        if width <= 0 or height <= 0:
            raise ValueError("area dimensions must be positive")
        if speed_min < 0 or speed_max < speed_min:
            raise ValueError(
                f"need 0 <= speed_min <= speed_max, got "
                f"[{speed_min}, {speed_max}]")
        if pause_time < 0:
            raise ValueError(f"pause_time must be >= 0: {pause_time}")
        self.width = float(width)
        self.height = float(height)
        self.speed_min = float(speed_min)
        self.speed_max = float(speed_max)
        self.pause_time = float(pause_time)
        self._pausing = False

    def _random_point(self) -> Vec2:
        return Vec2(self._rng.uniform(0.0, self.width),
                    self._rng.uniform(0.0, self.height))

    def _initial_position(self) -> Vec2:
        return self._random_point()

    def _next_leg(self, origin: Vec2):
        if self.speed_max <= 0.0:
            # Degenerate stationary configuration: never move again.
            return PauseLeg(origin, float("inf"), 0.0)
        if self._pausing or self.pause_time == 0.0:
            self._pausing = False
            dest = self._random_point()
            speed = self._rng.uniform(self.speed_min, self.speed_max)
            if speed <= 0.0:
                speed = max(self.speed_max * 1e-3, 1e-6)
            return Leg(origin, dest, speed, 0.0)
        self._pausing = True
        return PauseLeg(origin, self.pause_time, 0.0)
