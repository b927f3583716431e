"""City-section mobility (Davies, 2000), as used in the paper's Section 5.

Processes move only along the streets of a :class:`~repro.mobility.maps.StreetMap`:

* each process starts at a random intersection,
* it draws a destination intersection weighted by road popularity (popular
  roads attract traffic, creating the meeting hot-spots the paper observed),
* it follows the popularity-aware route edge by edge, driving each road
  segment at that road's speed limit (the paper: "all 15 processes drive at
  a given speed which is the speed limit of the road they are currently
  driving on, between 8 and 13 m/s"),
* at every intermediate intersection it may stop for a red light with
  probability ``stop_probability`` for U(stop_min, stop_max) seconds
  ("it may happen that they stop for a while — red light, parking etc."),
* at the destination it pauses for U(stop_min, stop_max) and then draws a
  new destination.

Spatial indexing: street segments on the campus map are short (one
block, ~150-200 m), so the leg pushed at every intersection re-anchors
the node in the medium's grid often; the grid's lazy re-anchoring
passes cover the stretches in between.
"""

from __future__ import annotations

from typing import List, Optional

from repro.mobility.base import Leg, MobilityModel, PauseLeg
from repro.mobility.maps import StreetMap
from repro.sim.space import Vec2


class CitySection(MobilityModel):
    """Street-constrained mobility over a :class:`StreetMap`."""

    def __init__(self, street_map: StreetMap,
                 stop_probability: float = 0.3,
                 stop_min: float = 2.0,
                 stop_max: float = 15.0,
                 start_node: Optional[int] = None):
        super().__init__()
        if not 0.0 <= stop_probability <= 1.0:
            raise ValueError(f"stop_probability must be in [0,1]: "
                             f"{stop_probability}")
        if stop_min < 0 or stop_max < stop_min:
            raise ValueError("need 0 <= stop_min <= stop_max")
        self.map = street_map
        self.stop_probability = float(stop_probability)
        self.stop_min = float(stop_min)
        self.stop_max = float(stop_max)
        self._start_node = start_node
        self._at_node: Optional[int] = None        # intersection we're at
        self._route: List[int] = []                 # remaining intersections
        self._pending_stop = False

    # -- MobilityModel hooks ---------------------------------------------------

    def _initial_position(self) -> Vec2:
        if self._start_node is not None:
            node = self._start_node
            if node not in self.map:
                raise ValueError(f"start_node {node} not in map")
        else:
            node = self._rng.choice(self.map.intersections())
        self._at_node = node
        return self.map.position_of(node)

    def _next_leg(self, origin: Vec2):
        rng = self._rng
        if self._pending_stop:
            # We decided to stop at this intersection; serve the stop first.
            self._pending_stop = False
            wait = rng.uniform(self.stop_min, self.stop_max)
            return PauseLeg(origin, wait, 0.0)

        if not self._route:
            # Arrived (or starting): pick a fresh destination and route.
            dest = self.map.choose_destination(rng, exclude=self._at_node)
            path = self.map.route(self._at_node, dest)
            self._route = path[1:]  # drop the current node
            if not self._route:
                # Isolated corner case: dest == src; just wait a beat.
                return PauseLeg(origin, rng.uniform(self.stop_min,
                                                    self.stop_max), 0.0)

        nxt = self._route.pop(0)
        speed = self.map.speed_limit(self._at_node, nxt)
        leg = Leg(origin, self.map.position_of(nxt), speed, 0.0)
        self._at_node = nxt
        # Decide now whether we will stop at the *arrival* intersection
        # (only at intermediate intersections; destinations always pause).
        if self._route:
            self._pending_stop = rng.random() < self.stop_probability
        else:
            self._pending_stop = True   # terminal pause at destination
        return leg
