"""Mobility models.

The paper evaluates under the two most popular MANET mobility models
(Section 2): *random waypoint* and *city section*.  Both are implemented
here with continuous positions — a model exposes its exact position at any
simulation instant by interpolating along its current movement leg, so the
wireless medium never sees stale, tick-quantised coordinates.

* :class:`~repro.mobility.random_waypoint.RandomWaypoint` — uniform random
  destinations in a rectangle, speed drawn from ``[speed_min, speed_max]``,
  pause between legs.
* :class:`~repro.mobility.city_section.CitySection` — movement constrained
  to a street graph with per-road speed limits, road popularity weights and
  stochastic stops at intersections (red lights / parking).
* :class:`~repro.mobility.stationary.Stationary` — a fixed position
  (the paper's 0 m/s data points).
* :func:`~repro.mobility.maps.campus_map` — a synthetic 1200x900 m street
  network standing in for the EPFL campus map used by the paper.

Names resolve lazily (:mod:`repro._lazy`); the harness's mobility specs
import a model only when they build one.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.mobility.base": ("MobilityModel", "Leg"),
    "repro.mobility.random_waypoint": ("RandomWaypoint",),
    "repro.mobility.city_section": ("CitySection",),
    "repro.mobility.stationary": ("Stationary",),
    "repro.mobility.maps": ("StreetMap", "campus_map", "grid_map"),
})
