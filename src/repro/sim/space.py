"""2-D geometry and spatial indexing for the wireless medium.

The medium must answer "who is within radio range of this transmitter?"
for every transmission.  With up to a few hundred processes a brute-force
scan would work, but the uniform-grid index keeps large parameter sweeps
(150 processes x hundreds of seconds x 30 seeds) comfortably fast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Set, Tuple


@dataclass(frozen=True, slots=True)
class Vec2:
    """An immutable 2-D point in metres."""

    x: float
    y: float

    def distance_to(self, other: "Vec2") -> float:
        """Euclidean distance to ``other``, in metres."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def lerp(self, other: "Vec2", t: float) -> "Vec2":
        """Linear interpolation: ``self`` at t=0, ``other`` at t=1."""
        return Vec2(self.x + (other.x - self.x) * t,
                    self.y + (other.y - self.y) * t)


class SpatialGrid:
    """Uniform-grid index mapping object ids to positions.

    ``cell_size`` should be on the order of the query radius; range queries
    then only touch a 3x3 block of cells plus an exact distance filter.
    """

    def __init__(self, cell_size: float):
        if cell_size <= 0:
            raise ValueError(f"cell_size must be positive: {cell_size=}")
        self.cell_size = float(cell_size)
        self._cells: Dict[Tuple[int, int], Set[int]] = {}
        self._positions: Dict[int, Vec2] = {}

    def _cell_of(self, pos: Vec2) -> Tuple[int, int]:
        return (math.floor(pos.x / self.cell_size),
                math.floor(pos.y / self.cell_size))

    def __len__(self) -> int:
        return len(self._positions)

    def __contains__(self, obj_id: int) -> bool:
        return obj_id in self._positions

    def position(self, obj_id: int) -> Vec2:
        """Last indexed position of ``obj_id`` (raises KeyError if absent)."""
        return self._positions[obj_id]

    def insert(self, obj_id: int, pos: Vec2) -> None:
        """Insert or move an object."""
        old = self._positions.get(obj_id)
        if old is not None:
            old_cell = self._cell_of(old)
            new_cell = self._cell_of(pos)
            if old_cell == new_cell:
                self._positions[obj_id] = pos
                return
            bucket = self._cells[old_cell]
            bucket.discard(obj_id)
            if not bucket:
                del self._cells[old_cell]
        self._positions[obj_id] = pos
        self._cells.setdefault(self._cell_of(pos), set()).add(obj_id)

    def remove(self, obj_id: int) -> None:
        """Drop an object from the index (no-op if absent)."""
        pos = self._positions.pop(obj_id, None)
        if pos is None:
            return
        cell = self._cell_of(pos)
        bucket = self._cells.get(cell)
        if bucket is not None:
            bucket.discard(obj_id)
            if not bucket:
                del self._cells[cell]

    def cell_block(self, x: float, y: float,
                   radius: float) -> List[Set[int]]:
        """The non-empty buckets of every cell a disc of ``radius``
        around ``(x, y)`` can touch (live sets — do not mutate).

        A superset of the objects within ``radius``: the caller applies
        its own exact filter.  For radii larger than the cell size the
        block widens accordingly, so correctness never depends on tuning
        ``cell_size``.
        """
        size = self.cell_size
        reach = max(1, math.ceil(radius / size))
        cx = math.floor(x / size)
        cy = math.floor(y / size)
        cells = self._cells
        block: List[Set[int]] = []
        for ix in range(cx - reach, cx + reach + 1):
            for iy in range(cy - reach, cy + reach + 1):
                bucket = cells.get((ix, iy))
                if bucket:
                    block.append(bucket)
        return block

    def query_radius(self, center: Vec2, radius: float,
                     exclude: int | None = None) -> List[int]:
        """Return ids of all objects within ``radius`` of ``center``,
        ascending.

        The predicate is ``math.hypot(dx, dy) <= radius`` — the same one
        :meth:`Vec2.distance_to` states; the squared form ``dx*dx +
        dy*dy <= radius*radius`` underflows for tiny offsets and admits
        points the distance excludes.
        """
        if radius < 0:
            raise ValueError(f"radius must be non-negative: {radius=}")
        positions = self._positions
        found: List[int] = []
        for bucket in self.cell_block(center.x, center.y, radius):
            for obj_id in bucket:
                if obj_id == exclude:
                    continue
                p = positions[obj_id]
                if math.hypot(p.x - center.x, p.y - center.y) <= radius:
                    found.append(obj_id)
        found.sort()
        return found

    def items(self) -> Iterator[Tuple[int, Vec2]]:
        """Iterate ``(obj_id, position)`` pairs in insertion order."""
        return iter(self._positions.items())

    def ids(self) -> Iterable[int]:
        """All indexed object ids (a live view)."""
        return self._positions.keys()
