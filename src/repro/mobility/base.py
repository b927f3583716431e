"""Mobility model interface and the shared leg-interpolation machinery.

A *leg* is a straight-line movement from one point to another at constant
speed (a pause is a zero-speed leg).  Concrete models only decide *what the
next leg is*; this base class owns interpolation, leg scheduling and the
``position()``/``current_speed()`` queries the rest of the system uses.

Leg pushes
----------
Besides answering exact ``position()`` queries, a model *pushes* one
notification per leg change (start, arrival, pause, stop) to an observer
(``on_leg_change``), so consumers never have to poll every node: the
wireless medium re-reads :meth:`MobilityModel.leg_state`, which encodes
``position()`` exactly until the next change.  Keeping the spatial index
fresh between pushes is the consumer's business
(:class:`repro.sim.batch.LegTable`); a model arms no timer for it.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.sim.kernel import Simulator
from repro.sim.space import Vec2


@dataclass(frozen=True, slots=True)
class Leg:
    """One constant-velocity movement segment."""

    start: Vec2
    end: Vec2
    speed: float      # metres/second; 0 for a pause
    start_time: float

    @property
    def duration(self) -> float:
        if self.speed <= 0.0:
            raise ValueError("pause legs have explicit durations; "
                             "use Leg.pause()")
        return self.start.distance_to(self.end) / self.speed

    @staticmethod
    def pause(at: Vec2, duration: float, start_time: float) -> "PauseLeg":
        return PauseLeg(at, duration, start_time)


@dataclass(frozen=True, slots=True)
class PauseLeg:
    """A stationary wait at a point for a fixed duration."""

    at: Vec2
    wait: float
    start_time: float


class MobilityModel(abc.ABC):
    """Base class for all mobility models.

    Lifecycle: construct with model parameters, then :meth:`start` binds the
    model to a simulator and an RNG stream and begins movement.  After
    ``start()``, :meth:`position` and :meth:`current_speed` are valid at any
    simulation time >= the start instant.
    """

    def __init__(self) -> None:
        self._sim: Optional[Simulator] = None
        self._rng = None
        self._leg: Optional[Leg] = None
        self._pause: Optional[PauseLeg] = None
        self._arrival_timer = None
        self.legs_completed = 0
        #: Observer notified (no arguments) whenever the current leg
        #: changes — at every leg boundary and on :meth:`stop`.  The
        #: medium subscribes and re-reads :meth:`leg_state`, which stays
        #: exact for the *whole* leg.
        self.on_leg_change: Optional[Callable[[], None]] = None

    # -- lifecycle ---------------------------------------------------------

    def place(self, rng) -> Vec2:
        """Bind ``rng`` and draw the entry position from it.

        :meth:`start` begins with this step.  Called alone it plans no
        leg and arms no timer, for callers that only need where a
        process enters (the sharded engine's ownership)."""
        self._rng = rng
        return self._initial_position()

    def start(self, sim: Simulator, rng) -> None:
        """Bind to a simulator and begin the movement process."""
        if self._sim is not None:
            raise RuntimeError("mobility model already started")
        self._sim = sim
        self._begin_next_leg(self.place(rng))

    def stop(self) -> None:
        """Freeze the model at its current position (node crash/shutdown)."""
        if self._sim is None:
            return
        here = self.position()
        if self._arrival_timer is not None:
            self._arrival_timer.cancel()
        self._pause = PauseLeg(here, float("inf"), self._sim.now)
        self._leg = None
        if self.on_leg_change is not None:
            self.on_leg_change()

    @property
    def started(self) -> bool:
        return self._sim is not None

    # -- queries -----------------------------------------------------------

    def position(self) -> Vec2:
        """Exact position at the current simulation time."""
        self._require_started()
        if self._pause is not None:
            return self._pause.at
        leg = self._leg
        assert leg is not None
        if leg.speed <= 0.0:
            return leg.start
        elapsed = self._sim.now - leg.start_time
        total = leg.duration
        if total <= 0.0:
            return leg.end
        t = min(1.0, max(0.0, elapsed / total))
        return leg.start.lerp(leg.end, t)

    def current_speed(self) -> float:
        """Instantaneous speed in m/s (0 while paused)."""
        self._require_started()
        if self._pause is not None:
            return 0.0
        assert self._leg is not None
        return self._leg.speed

    def leg_state(self) -> Tuple[float, float, float, float, float, float]:
        """The current leg as ``(x0, y0, x1, y1, t0, dur)``.

        An exact encoding of :meth:`position` for the *remainder of the
        leg*: evaluating ``u = min(1, max(0, (now - t0) / dur))`` then
        ``(x0 + (x1 - x0) * u, y0 + (y1 - y0) * u)`` reproduces
        ``position()`` bit for bit at any ``now`` until the next leg
        change.  Pauses and degenerate legs encode as a parked point
        with ``dur = inf`` (``u`` is then exactly 0).  This is what the
        medium's :class:`~repro.sim.batch.LegTable` consumes.
        """
        self._require_started()
        if self._pause is not None:
            at = self._pause.at
            return (at.x, at.y, at.x, at.y, self._pause.start_time,
                    math.inf)
        leg = self._leg
        assert leg is not None
        if leg.speed <= 0.0:
            p = leg.start
            return (p.x, p.y, p.x, p.y, leg.start_time, math.inf)
        total = leg.duration
        if total <= 0.0:
            p = leg.end
            return (p.x, p.y, p.x, p.y, leg.start_time, math.inf)
        return (leg.start.x, leg.start.y, leg.end.x, leg.end.y,
                leg.start_time, total)

    # -- to be provided by concrete models -----------------------------------

    @abc.abstractmethod
    def _initial_position(self) -> Vec2:
        """Position at which the process enters the simulation."""

    @abc.abstractmethod
    def _next_leg(self, origin: Vec2):
        """Return the next :class:`Leg` or :class:`PauseLeg` from ``origin``.

        Called at the instant the previous leg finished; the returned leg's
        ``start_time`` is overwritten with the current simulation time.
        """

    # -- internal ------------------------------------------------------------

    def _require_started(self) -> None:
        if self._sim is None:
            raise RuntimeError("mobility model not started")

    def _begin_next_leg(self, origin: Vec2) -> None:
        nxt = self._next_leg(origin)
        now = self._sim.now
        if isinstance(nxt, PauseLeg):
            self._pause = PauseLeg(nxt.at, nxt.wait, now)
            self._leg = None
            if nxt.wait != float("inf"):
                self._arrival_timer = self._sim.schedule(
                    nxt.wait, self._on_leg_end, nxt.at)
        elif isinstance(nxt, Leg):
            leg = Leg(nxt.start, nxt.end, nxt.speed, now)
            self._pause = None
            self._leg = leg
            if leg.speed <= 0.0 or leg.start.distance_to(leg.end) == 0.0:
                # Degenerate leg: treat as an instantaneous hop to avoid a
                # zero-duration busy loop; re-draw after a short beat.
                self._arrival_timer = self._sim.schedule(
                    1e-3, self._on_leg_end, leg.end)
            else:
                self._arrival_timer = self._sim.schedule(
                    leg.duration, self._on_leg_end, leg.end)
        else:  # pragma: no cover - defensive
            raise TypeError(f"_next_leg returned {type(nxt).__name__}")
        if self.on_leg_change is not None:
            self.on_leg_change()

    def _on_leg_end(self, endpoint: Vec2) -> None:
        self.legs_completed += 1
        self._begin_next_leg(endpoint)
