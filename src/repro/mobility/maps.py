"""Street maps for the city-section mobility model.

The paper drove 15 processes over the real EPFL campus street map
(1200 x 900 m) with per-road speed limits and *realistic traffic
conditions* — "some roads are more often used than others".  The real map
is not distributed with the paper, so :func:`campus_map` synthesises a
street network with the properties the evaluation depends on:

* the same 1200 x 900 m extent and urban radio range,
* speed limits in the paper's 8-13 m/s band,
* a popularity weight per road, with a dominant main avenue, so that
  processes concentrate on popular roads and meet at hot-spots (the effect
  the paper uses to explain Figs. 14-16).

A :class:`StreetMap` is plain data built once and never mutated:
intersections are the ids ``0 .. n-1`` with a :class:`Vec2` position
each, and roads are undirected segments with a ``speed_limit`` (m/s), a
``popularity`` (> 0, relative traffic share) and a ``length`` (m,
derived).  Routing is the standard library's ``heapq`` over per-
intersection ``(neighbour, route_cost)`` tuples; no graph library is
loaded.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from itertools import count
from typing import (Dict, Iterable, List, NamedTuple, Optional, Sequence,
                    Set, Tuple)

from repro.sim.space import Vec2


class Road(NamedTuple):
    """One undirected road segment between intersections ``u`` and ``v``."""

    u: int
    v: int
    speed_limit: float
    popularity: float
    length: float


class StreetMap:
    """A connected street network plus its route cache.

    ``positions[i]`` places intersection ``i``; ``roads`` lists
    ``(u, v, speed_limit, popularity)`` per road.  The order of
    ``roads`` is the order each intersection sees its roads in, which
    breaks ties between equal-cost routes — keep it stable.
    """

    def __init__(self, positions: Sequence[Vec2],
                 roads: Iterable[Tuple[int, int, float, float]],
                 name: str = "street-map") -> None:
        if not positions:
            raise ValueError("street map has no intersections")
        self.name = name
        self._positions = tuple(positions)
        n = len(self._positions)
        self._nodes = list(range(n))
        built: List[Road] = []
        self._by_ends: Dict[Tuple[int, int], Road] = {}
        # Per intersection: (neighbour, route_cost) in road order.
        self._adjacency: List[List[Tuple[int, float]]] = [
            [] for _ in range(n)]
        incident: List[List[float]] = [[] for _ in range(n)]
        for u, v, speed_limit, popularity in roads:
            if u not in self or v not in self:
                raise ValueError(f"road {u}-{v} ends outside the map")
            if speed_limit <= 0 or popularity <= 0:
                raise ValueError(f"road {u}-{v} needs a positive "
                                 f"speed_limit and popularity")
            road = Road(u, v, speed_limit, popularity,
                        self._positions[u].distance_to(self._positions[v]))
            built.append(road)
            self._by_ends[u, v] = self._by_ends[v, u] = road
            # Routing cost: popular roads are *cheaper*, so shortest-path
            # routing concentrates traffic on them, creating the hot-spots
            # the paper observed on the campus.
            cost = road.length / speed_limit / popularity
            self._adjacency[u].append((v, cost))
            self._adjacency[v].append((u, cost))
            incident[u].append(popularity)
            incident[v].append(popularity)
        self._roads = tuple(built)
        if len(self._reachable_from(0)) != n:
            raise ValueError("street map must be connected")
        #: Intersection attractiveness = total popularity of its roads,
        #: indexed like :meth:`intersections` (the destination draw's
        #: weights).
        self._weights = [sum(pops) for pops in incident]
        self.max_speed_limit = max(
            (road.speed_limit for road in self._roads), default=0.0)
        self._route_cache: Dict[Tuple[int, int], List[int]] = {}

    def _reachable_from(self, start: int) -> Set[int]:
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for nbr, _ in self._adjacency[node]:
                if nbr not in seen:
                    seen.add(nbr)
                    frontier.append(nbr)
        return seen

    # -- queries -------------------------------------------------------------

    def __contains__(self, node: object) -> bool:
        return isinstance(node, int) and 0 <= node < len(self._positions)

    def intersections(self) -> List[int]:
        """The sorted intersection ids (shared — do not mutate)."""
        return self._nodes

    def position_of(self, node_id: int) -> Vec2:
        return self._positions[node_id]

    def roads(self) -> Tuple[Road, ...]:
        """Every road once, in construction order."""
        return self._roads

    def has_road(self, u: int, v: int) -> bool:
        return (u, v) in self._by_ends

    def speed_limit(self, u: int, v: int) -> float:
        return self._by_ends[u, v].speed_limit

    def popularity_weights(self) -> Dict[int, float]:
        """Node attractiveness = total popularity of incident roads."""
        return dict(zip(self._nodes, self._weights))

    def choose_destination(self, rng: random.Random, exclude: int) -> int:
        """Draw a destination intersection, weighted by attractiveness."""
        nodes, weights = self._nodes, self._weights
        if exclude in self:
            nodes = nodes[:exclude] + nodes[exclude + 1:]
            weights = weights[:exclude] + weights[exclude + 1:]
        if not nodes:
            return exclude
        return rng.choices(nodes, weights=weights, k=1)[0]

    def route(self, src: int, dst: int) -> List[int]:
        """Popularity-aware shortest path (cached — do not mutate)."""
        key = (src, dst)
        path = self._route_cache.get(key)
        if path is None:
            if src not in self or dst not in self:
                raise ValueError(f"no intersection {src} or {dst} in "
                                 f"{self.name}")
            path = self._route_cache[key] = self._shortest_path(src, dst)
        return path

    def _shortest_path(self, source: int, target: int) -> List[int]:
        """Bidirectional Dijkstra with a fixed tie-break: the searches
        alternate starting forward, heap entries are ``(dist, counter,
        node)``, neighbours relax in road order and the meeting point
        moves only on a strictly shorter total.  Which of two equal-cost
        routes is taken is part of every city world's trajectory (the
        golden digests pin it); ``tests/test_mobility.py`` checks the
        routes against the reference graph library's."""
        if source == target:
            return [source]
        adjacency = self._adjacency
        dists: Tuple[Dict[int, float], Dict[int, float]] = ({}, {})
        preds: Tuple[Dict[int, Optional[int]], ...] = (
            {source: None}, {target: None})
        seen: Tuple[Dict[int, float], Dict[int, float]] = (
            {source: 0}, {target: 0})
        tick = count()
        fringe: Tuple[list, list] = ([(0, next(tick), source)],
                                     [(0, next(tick), target)])
        finaldist: Optional[float] = None
        meetnode = source
        direction = 1
        while fringe[0] and fringe[1]:
            direction = 1 - direction
            dist, _, v = heappop(fringe[direction])
            done = dists[direction]
            if v in done:
                continue
            done[v] = dist
            if v in dists[1 - direction]:
                path: List[int] = []
                node: Optional[int] = meetnode
                while node is not None:
                    path.append(node)
                    node = preds[0][node]
                path.reverse()
                node = preds[1][meetnode]
                while node is not None:
                    path.append(node)
                    node = preds[1][node]
                return path
            heap, near, far = fringe[direction], seen[direction], \
                seen[1 - direction]
            back = preds[direction]
            for w, cost in adjacency[v]:
                if w in done:
                    continue
                length = dist + cost
                if w not in near or length < near[w]:
                    near[w] = length
                    heappush(heap, (length, next(tick), w))
                    back[w] = v
                    if w in far:
                        total = length + far[w]
                        if finaldist is None or finaldist > total:
                            finaldist, meetnode = total, w
        raise ValueError(f"no route from {source} to {target}")

    @property
    def extent(self) -> Tuple[float, float]:
        xs = [p.x for p in self._positions]
        ys = [p.y for p in self._positions]
        return (max(xs) - min(xs), max(ys) - min(ys))


def grid_map(columns: int, rows: int, width: float, height: float,
             speed_limits: Tuple[float, float] = (8.0, 13.0),
             main_avenue_popularity: float = 6.0,
             seed: int = 0,
             name: str = "grid") -> StreetMap:
    """Build a ``columns x rows`` Manhattan street grid.

    One horizontal *main avenue* (the middle row) gets
    ``main_avenue_popularity`` while side streets get popularity drawn from
    U(0.5, 1.5); speed limits are drawn uniformly from ``speed_limits`` per
    road segment.  Deterministic for a given ``seed``.
    """
    if columns < 2 or rows < 2:
        raise ValueError("grid needs at least 2x2 intersections")
    rng = random.Random(seed)
    dx = width / (columns - 1)
    dy = height / (rows - 1)
    positions = [Vec2(ix * dx, iy * dy)
                 for iy in range(rows) for ix in range(columns)]
    main_row = rows // 2
    lo, hi = speed_limits
    roads = []
    for iy in range(rows):
        for ix in range(columns):
            here = iy * columns + ix
            # Draw order (popularity before speed across, speed before
            # popularity down) is part of the map's seed contract.
            if ix + 1 < columns:
                pop = (main_avenue_popularity if iy == main_row
                       else rng.uniform(0.5, 1.5))
                roads.append((here, here + 1, rng.uniform(lo, hi), pop))
            if iy + 1 < rows:
                roads.append((here, here + columns, rng.uniform(lo, hi),
                              rng.uniform(0.5, 1.5)))
    return StreetMap(positions, roads, name=name)


def campus_map(seed: int = 7) -> StreetMap:
    """The synthetic stand-in for the paper's EPFL campus map.

    1200 x 900 m, a 7 x 5 street grid (roughly the block size of the
    campus), speed limits 8-13 m/s, one dominant east-west avenue.
    """
    return grid_map(columns=7, rows=5, width=1200.0, height=900.0,
                    speed_limits=(8.0, 13.0),
                    main_avenue_popularity=6.0,
                    seed=seed, name="epfl-campus-synthetic")
