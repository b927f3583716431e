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

Maps are :class:`networkx.Graph` instances wrapped in :class:`StreetMap`;
nodes are intersections with ``pos`` attributes (:class:`Vec2`), edges are
road segments with ``speed_limit`` (m/s), ``popularity`` (> 0, relative
traffic share) and ``length`` (m, derived).

``networkx`` is imported where a map is built or routed, not at module
import: random-waypoint worlds, ``repro list`` and warm-cache reruns
never touch a street map and should not pay for the library.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.sim.space import Vec2

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx


@dataclass
class StreetMap:
    """A street network plus cached routing structures."""

    graph: nx.Graph
    name: str = "street-map"
    _route_cache: Dict[Tuple[int, int], List[int]] = field(
        default_factory=dict, repr=False)
    # Lazy caches over the (immutable after __post_init__) graph: the
    # destination draw runs on every mobility leg of every node, and
    # networkx attribute views are far too slow for that hot path.
    _weights_cache: Dict[int, float] = field(
        default_factory=dict, repr=False)
    _nodes_cache: List[int] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        import networkx as nx
        if self.graph.number_of_nodes() == 0:
            raise ValueError("street map has no intersections")
        if not nx.is_connected(self.graph):
            raise ValueError("street map must be connected")
        for u, v, data in self.graph.edges(data=True):
            if "speed_limit" not in data or data["speed_limit"] <= 0:
                raise ValueError(f"edge {u}-{v} missing positive speed_limit")
            pu: Vec2 = self.graph.nodes[u]["pos"]
            pv: Vec2 = self.graph.nodes[v]["pos"]
            data["length"] = pu.distance_to(pv)
            data.setdefault("popularity", 1.0)
            # Routing cost: popular roads are *cheaper*, so shortest-path
            # routing concentrates traffic on them, creating the hot-spots
            # the paper observed on the campus.
            data["route_cost"] = (data["length"] / data["speed_limit"]
                                  / data["popularity"])

    # -- queries -------------------------------------------------------------

    def intersections(self) -> List[int]:
        """The sorted intersection ids (cached — do not mutate)."""
        if not self._nodes_cache:
            self._nodes_cache = sorted(self.graph.nodes)
        return self._nodes_cache

    def position_of(self, node_id: int) -> Vec2:
        return self.graph.nodes[node_id]["pos"]

    def speed_limit(self, u: int, v: int) -> float:
        return self.graph.edges[u, v]["speed_limit"]

    def popularity_weights(self) -> Dict[int, float]:
        """Node attractiveness = total popularity of incident roads
        (cached — the graph is immutable after construction)."""
        if not self._weights_cache:
            weights = self._weights_cache
            for node in self.graph.nodes:
                weights[node] = sum(
                    self.graph.edges[node, nbr]["popularity"]
                    for nbr in self.graph.neighbors(node))
        return self._weights_cache

    def choose_destination(self, rng: random.Random, exclude: int) -> int:
        """Draw a destination intersection, weighted by attractiveness."""
        weights = self.popularity_weights()
        nodes = [n for n in self.intersections() if n != exclude]
        if not nodes:
            return exclude
        totals = [weights[n] for n in nodes]
        return rng.choices(nodes, weights=totals, k=1)[0]

    def route(self, src: int, dst: int) -> List[int]:
        """Popularity-aware shortest path (cached)."""
        key = (src, dst)
        path = self._route_cache.get(key)
        if path is None:
            import networkx as nx
            path = nx.shortest_path(self.graph, src, dst,
                                    weight="route_cost")
            self._route_cache[key] = path
        return path

    @property
    def extent(self) -> Tuple[float, float]:
        xs = [self.position_of(n).x for n in self.graph.nodes]
        ys = [self.position_of(n).y for n in self.graph.nodes]
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
    import networkx as nx
    rng = random.Random(seed)
    graph = nx.Graph()
    dx = width / (columns - 1)
    dy = height / (rows - 1)

    def node_id(ix: int, iy: int) -> int:
        return iy * columns + ix

    for iy in range(rows):
        for ix in range(columns):
            graph.add_node(node_id(ix, iy), pos=Vec2(ix * dx, iy * dy))

    main_row = rows // 2
    lo, hi = speed_limits
    for iy in range(rows):
        for ix in range(columns):
            here = node_id(ix, iy)
            if ix + 1 < columns:
                pop = (main_avenue_popularity if iy == main_row
                       else rng.uniform(0.5, 1.5))
                graph.add_edge(here, node_id(ix + 1, iy),
                               speed_limit=rng.uniform(lo, hi),
                               popularity=pop)
            if iy + 1 < rows:
                graph.add_edge(here, node_id(ix, iy + 1),
                               speed_limit=rng.uniform(lo, hi),
                               popularity=rng.uniform(0.5, 1.5))
    return StreetMap(graph=graph, name=name)


def campus_map(seed: int = 7) -> StreetMap:
    """The synthetic stand-in for the paper's EPFL campus map.

    1200 x 900 m, a 7 x 5 street grid (roughly the block size of the
    campus), speed limits 8-13 m/s, one dominant east-west avenue.
    """
    return grid_map(columns=7, rows=5, width=1200.0, height=900.0,
                    speed_limits=(8.0, 13.0),
                    main_avenue_popularity=6.0,
                    seed=seed, name="epfl-campus-synthetic")
