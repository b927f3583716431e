"""Unit tests for mobility models (repro.mobility)."""

from __future__ import annotations

import math
import random

import pytest

from repro.mobility import (CitySection, RandomWaypoint, Stationary,
                            StreetMap, campus_map, grid_map)
from repro.mobility.base import Leg, MobilityModel, PauseLeg
from repro.sim.space import Vec2


class TestLegInterpolation:
    class OneLeg(MobilityModel):
        """Moves 0,0 -> 100,0 at 10 m/s, then stays forever."""
        def _initial_position(self):
            return Vec2(0, 0)
        def _next_leg(self, origin):
            if self.legs_completed == 0:
                return Leg(origin, Vec2(100, 0), 10.0, 0.0)
            return PauseLeg(origin, float("inf"), 0.0)

    def test_position_interpolates_linearly(self, sim, rngs):
        model = self.OneLeg()
        model.start(sim, rngs.stream("m"))
        assert model.position() == Vec2(0, 0)
        sim.run(until=5.0)
        assert model.position().x == pytest.approx(50.0)
        assert model.current_speed() == 10.0

    def test_position_clamps_at_leg_end(self, sim, rngs):
        model = self.OneLeg()
        model.start(sim, rngs.stream("m"))
        sim.run(until=20.0)
        assert model.position() == Vec2(100, 0)
        assert model.current_speed() == 0.0   # paused forever

    def test_queries_before_start_rejected(self):
        model = self.OneLeg()
        with pytest.raises(RuntimeError):
            model.position()
        with pytest.raises(RuntimeError):
            model.current_speed()

    def test_double_start_rejected(self, sim, rngs):
        model = self.OneLeg()
        model.start(sim, rngs.stream("m"))
        with pytest.raises(RuntimeError):
            model.start(sim, rngs.stream("m"))

    def test_stop_freezes_position(self, sim, rngs):
        model = self.OneLeg()
        model.start(sim, rngs.stream("m"))
        sim.run(until=3.0)
        model.stop()
        frozen = model.position()
        sim.run(until=30.0)
        assert model.position() == frozen
        assert model.current_speed() == 0.0


class TestStationary:
    def test_fixed_position(self, sim, rngs):
        model = Stationary(position=Vec2(7, 8))
        model.start(sim, rngs.stream("m"))
        sim.run(until=100.0)
        assert model.position() == Vec2(7, 8)
        assert model.current_speed() == 0.0

    def test_random_position_inside_area(self, sim, rngs):
        model = Stationary(width=50.0, height=20.0)
        model.start(sim, rngs.stream("m"))
        p = model.position()
        assert 0 <= p.x <= 50 and 0 <= p.y <= 20

    def test_requires_position_or_area(self):
        with pytest.raises(ValueError):
            Stationary()


class TestRandomWaypoint:
    def test_stays_inside_area(self, sim, rngs):
        model = RandomWaypoint(100.0, 100.0, 5.0, 10.0, pause_time=0.5)
        model.start(sim, rngs.stream("m"))
        for t in range(1, 60):
            sim.run(until=float(t))
            p = model.position()
            assert -1e-9 <= p.x <= 100.0 + 1e-9
            assert -1e-9 <= p.y <= 100.0 + 1e-9

    def test_speed_within_range_when_moving(self, sim, rngs):
        model = RandomWaypoint(1000.0, 1000.0, 5.0, 10.0, pause_time=0.0)
        model.start(sim, rngs.stream("m"))
        speeds = set()
        for t in range(1, 40):
            sim.run(until=float(t))
            s = model.current_speed()
            if s > 0:
                speeds.add(s)
                assert 5.0 <= s <= 10.0
        assert speeds   # it did move

    def test_pause_between_legs(self, sim, rngs):
        model = RandomWaypoint(100.0, 100.0, 50.0, 50.0, pause_time=5.0)
        model.start(sim, rngs.stream("m"))
        paused_seen = False
        for t in [x * 0.5 for x in range(1, 80)]:
            sim.run(until=t)
            if model.current_speed() == 0.0:
                paused_seen = True
        assert paused_seen

    def test_zero_speed_max_is_stationary(self, sim, rngs):
        model = RandomWaypoint(100.0, 100.0, 0.0, 0.0)
        model.start(sim, rngs.stream("m"))
        first = model.position()
        sim.run(until=50.0)
        assert model.position() == first

    def test_actual_displacement_matches_speed(self, sim, rngs):
        model = RandomWaypoint(10_000.0, 10_000.0, 10.0, 10.0,
                               pause_time=0.0)
        model.start(sim, rngs.stream("m"))
        sim.run(until=1.0)
        p0 = model.position()
        sim.run(until=2.0)
        p1 = model.position()
        # Within one leg the distance covered in 1 s is exactly the speed
        # (legs in a 10 km area are long, direction change unlikely).
        if model.legs_completed == 0:
            assert p0.distance_to(p1) == pytest.approx(10.0, rel=1e-6)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RandomWaypoint(0.0, 100.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            RandomWaypoint(100.0, 100.0, 5.0, 2.0)
        with pytest.raises(ValueError):
            RandomWaypoint(100.0, 100.0, 1.0, 2.0, pause_time=-1.0)

    def test_deterministic_given_seed(self):
        def trace(seed):
            from repro.sim import RngRegistry, Simulator
            sim = Simulator()
            model = RandomWaypoint(500.0, 500.0, 1.0, 10.0)
            model.start(sim, RngRegistry(seed).stream("m"))
            out = []
            for t in range(1, 20):
                sim.run(until=float(t))
                out.append(model.position())
            return out
        assert trace(5) == trace(5)
        assert trace(5) != trace(6)


class TestStreetMaps:
    def test_campus_map_extent(self):
        extent = campus_map().extent
        assert extent == (1200.0, 900.0)

    def test_speed_limits_in_paper_band(self):
        smap = campus_map()
        for road in smap.roads():
            assert 8.0 <= road.speed_limit <= 13.0

    def test_popularity_weights_positive(self):
        weights = campus_map().popularity_weights()
        assert all(w > 0 for w in weights.values())

    def test_main_avenue_more_popular(self):
        smap = grid_map(5, 5, 400, 400, main_avenue_popularity=6.0, seed=1)
        pops = [road.popularity for road in smap.roads()]
        assert max(pops) == 6.0
        assert min(pops) < 2.0

    def test_route_connects_endpoints(self):
        smap = campus_map()
        nodes = smap.intersections()
        path = smap.route(nodes[0], nodes[-1])
        assert path[0] == nodes[0] and path[-1] == nodes[-1]
        for a, b in zip(path, path[1:]):
            assert smap.has_road(a, b)

    def test_route_cache_returns_same_object(self):
        smap = campus_map()
        nodes = smap.intersections()
        assert smap.route(nodes[0], nodes[3]) is \
            smap.route(nodes[0], nodes[3])

    def test_grid_map_validation(self):
        with pytest.raises(ValueError):
            grid_map(1, 5, 100, 100)

    def test_choose_destination_excludes_current(self, rngs):
        smap = campus_map()
        rng = rngs.stream("d")
        current = smap.intersections()[0]
        for _ in range(20):
            assert smap.choose_destination(rng, exclude=current) != current

    @pytest.mark.parametrize("smap", [campus_map(), grid_map(9, 7, 800, 600)],
                             ids=["campus", "grid-9x7"])
    def test_choose_destination_matches_filtered_lists(self, smap):
        """The sliced lists equal the filtered ones, so every seeded draw
        is the one ``rng.choices`` makes over the filtered lists."""
        weights = smap.popularity_weights()
        for exclude in smap.intersections():
            nodes = [n for n in smap.intersections() if n != exclude]
            totals = [weights[n] for n in nodes]
            expected, actual = random.Random(exclude), random.Random(exclude)
            for _ in range(25):
                assert smap.choose_destination(actual, exclude) == \
                    expected.choices(nodes, weights=totals, k=1)[0]


class TestStreetMapValidation:
    def test_empty_map_rejected(self):
        with pytest.raises(ValueError, match="no intersections"):
            StreetMap([], [])

    def test_disconnected_map_rejected(self):
        positions = [Vec2(0, 0), Vec2(100, 0), Vec2(300, 0)]
        with pytest.raises(ValueError, match="connected"):
            StreetMap(positions, [(0, 1, 10.0, 1.0)])

    @pytest.mark.parametrize("speed", [0.0, -5.0])
    def test_non_positive_speed_limit_rejected(self, speed):
        with pytest.raises(ValueError, match="speed_limit"):
            StreetMap([Vec2(0, 0), Vec2(100, 0)], [(0, 1, speed, 1.0)])


class TestRouteOracle:
    """``StreetMap.route`` equals networkx's weighted shortest path on the
    same roads added in the same order — ties between equal-cost routes
    included."""

    @staticmethod
    def _assert_routes_match(smap, pairs):
        nx = pytest.importorskip("networkx")
        graph = nx.Graph()
        for road in smap.roads():
            graph.add_edge(road.u, road.v, route_cost=(
                road.length / road.speed_limit / road.popularity))
        for u, v in pairs:
            assert smap.route(u, v) == nx.shortest_path(
                graph, u, v, weight="route_cost"), (u, v)

    def test_campus_all_pairs(self):
        smap = campus_map()
        nodes = smap.intersections()
        self._assert_routes_match(smap, [(u, v) for u in nodes for v in nodes])

    @pytest.mark.parametrize("seed", range(5))
    def test_grid_all_pairs(self, seed):
        smap = grid_map(9, 7, 1600.0, 1200.0, seed=seed)
        nodes = smap.intersections()
        self._assert_routes_match(smap, [(u, v) for u in nodes for v in nodes])

    def test_city_scale_grid_sample(self):
        """The 27 x 20 grid a 300-process city world drives on."""
        smap = grid_map(27, 20, 5366.6, 4024.9)
        rng = random.Random(0)
        nodes = smap.intersections()
        self._assert_routes_match(
            smap, [(rng.choice(nodes), rng.choice(nodes))
                   for _ in range(2000)])


class TestCitySection:
    def test_positions_stay_on_streets(self, sim, rngs):
        smap = campus_map()
        model = CitySection(smap, stop_probability=0.2)
        model.start(sim, rngs.stream("m"))
        positions = {n: smap.position_of(n) for n in smap.intersections()}
        for t in range(1, 120, 3):
            sim.run(until=float(t))
            p = model.position()
            on_street = any(
                _point_on_segment(p, positions[u], positions[v])
                for u, v, *_ in smap.roads())
            assert on_street, f"{p} off-street at t={t}"

    def test_speed_is_road_speed_limit(self, sim, rngs):
        smap = campus_map()
        model = CitySection(smap, stop_probability=0.0)
        model.start(sim, rngs.stream("m"))
        for t in range(1, 60, 2):
            sim.run(until=float(t))
            s = model.current_speed()
            assert s == 0.0 or 8.0 <= s <= 13.0

    def test_stops_happen(self, sim, rngs):
        model = CitySection(campus_map(), stop_probability=1.0,
                            stop_min=2.0, stop_max=4.0)
        model.start(sim, rngs.stream("m"))
        stopped = False
        for t in [x * 0.5 for x in range(1, 200)]:
            sim.run(until=t)
            if model.current_speed() == 0.0:
                stopped = True
        assert stopped

    def test_fixed_start_node(self, sim, rngs):
        smap = campus_map()
        node = smap.intersections()[4]
        model = CitySection(smap, start_node=node)
        model.start(sim, rngs.stream("m"))
        assert model.position() == smap.position_of(node)

    def test_unknown_start_node_rejected(self, sim, rngs):
        model = CitySection(campus_map(), start_node=99999)
        with pytest.raises(ValueError):
            model.start(sim, rngs.stream("m"))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CitySection(campus_map(), stop_probability=1.5)
        with pytest.raises(ValueError):
            CitySection(campus_map(), stop_min=5.0, stop_max=1.0)


def _point_on_segment(p: Vec2, a: Vec2, b: Vec2, tol: float = 1e-6) -> bool:
    """Is p within tol of segment ab?"""
    abx, aby = b.x - a.x, b.y - a.y
    denom = abx * abx + aby * aby
    if denom == 0:
        return p.distance_to(a) <= tol
    t = max(0.0, min(1.0, ((p.x - a.x) * abx + (p.y - a.y) * aby) / denom))
    closest = a.lerp(b, t)
    return p.distance_to(closest) <= tol
