"""Spatial partitioning of one world into an R x C grid of shard tiles.

A :class:`ShardPlan` slices the world's extent into ``shards = R * C``
tiles of whole grid cells, using the *same* cell geometry as
:class:`repro.sim.space.SpatialGrid`: cells are ``cell_size`` wide and
aligned to the origin (column ``c`` spans ``[c*cell, (c+1)*cell)``, the
half-open interval ``math.floor(x / cell_size)`` induces), and rows the
same along y.  Each axis gets the classic balanced integer split
(``i*T//N .. (i+1)*T//N`` over ``T`` cells), so band widths differ by at
most one cell and a world narrower than its band count simply leaves the
surplus bands empty.  ``rows=1`` — the default — reproduces the PR 8
vertical-stripe plan exactly: full-height stripes whose ownership never
consults y.

The plan answers one geometric question, :meth:`ShardPlan.shard_of` —
which shard owns a position (positions outside the covered extent clamp
to the nearest tile, so drifting mobility models never fall off the
map).  Who can *hear* a frame is not the plan's business: owned nodes
drift out of their home tile over time, so the exchange layer routes by
each shard's resident bounding region, measured at every barrier.

Ownership is pure float comparisons on the band edges, so every worker
computes the identical answer — the property suite in
``tests/test_space.py`` checks it against brute-force oracles for
stripes and tiles alike.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.sim.space import Vec2


def _bands(lo: float, hi: float, count: int,
           cell: float) -> Tuple[Tuple[int, int], ...]:
    """Balanced half-open cell-index ranges covering ``[lo, hi]``."""
    first = math.floor(lo / cell)
    last = math.floor(hi / cell)
    total = last - first + 1
    return tuple((first + (i * total) // count,
                  first + ((i + 1) * total) // count)
                 for i in range(count))


@dataclass(frozen=True)
class ShardPlan:
    """A fixed R x C tile partition of a world extent.

    Attributes
    ----------
    min_x, max_x:
        The x-extent to cover, metres (``max_x > min_x``).
    shards:
        Total tile count ``K = rows * cols >= 1``.
    cell_size:
        Grid-cell pitch, metres — callers pass the medium's inflated
        query radius (``range + anchor slack``) so tile borders line
        up with :class:`~repro.sim.space.SpatialGrid` cells.
    rows:
        Horizontal bands ``R`` (must divide ``shards``); ``1`` keeps
        the classic full-height vertical stripes.
    min_y, max_y:
        The y-extent to cover when ``rows > 1`` (ignored for stripes,
        whose bands span all of y).
    """

    min_x: float
    max_x: float
    shards: int
    cell_size: float
    rows: int = 1
    min_y: float = 0.0
    max_y: Optional[float] = None
    #: Half-open column index ranges ``[start, stop)`` per *shard* (not
    #: per column band), in absolute SpatialGrid column units — kept in
    #: per-shard form for compatibility with the stripe-era accessors.
    columns: Tuple[Tuple[int, int], ...] = field(init=False)
    #: Half-open row index ranges per shard (``rows=1``: every shard
    #: gets the unbounded sentinel ``(None, None)`` — full height).
    row_bands: Tuple[Tuple[Optional[int], Optional[int]], ...] = \
        field(init=False)

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1: {self.shards}")
        if self.rows < 1 or self.shards % self.rows:
            raise ValueError(
                f"rows must divide the shard count: "
                f"{self.shards} % {self.rows} != 0")
        if self.cell_size <= 0:
            raise ValueError(f"cell_size must be positive: {self.cell_size}")
        if not self.max_x > self.min_x:
            raise ValueError(
                f"need max_x > min_x: [{self.min_x}, {self.max_x}]")
        cols = self.shards // self.rows
        col_bands = _bands(self.min_x, self.max_x, cols, self.cell_size)
        if self.rows > 1:
            if self.max_y is None or not self.max_y > self.min_y:
                raise ValueError(
                    f"rows={self.rows} needs max_y > min_y: "
                    f"[{self.min_y}, {self.max_y}]")
            y_bands: Tuple[Tuple[Optional[int], Optional[int]], ...] = \
                _bands(self.min_y, self.max_y, self.rows, self.cell_size)
        else:
            y_bands = ((None, None),)
        # Row-major shard order: shard r*C + c is row band r, col band c.
        object.__setattr__(self, "columns", tuple(
            col_bands[s % cols] for s in range(self.shards)))
        object.__setattr__(self, "row_bands", tuple(
            y_bands[s // cols] for s in range(self.shards)))
        object.__setattr__(self, "_col_bands", col_bands)
        object.__setattr__(self, "_y_bands", y_bands)

    # -- derived geometry ---------------------------------------------------

    @property
    def cols(self) -> int:
        """Column bands ``C = shards // rows``."""
        return self.shards // self.rows

    def stripe(self, shard: int) -> Tuple[float, float]:
        """The half-open x-interval ``[lo, hi)`` of one shard's tile.

        Empty bands (a world narrower than its band count) return a
        zero-width interval; boundary positions therefore always
        resolve to exactly one owner.
        """
        start, stop = self.columns[shard]
        return start * self.cell_size, stop * self.cell_size

    def tile(self, shard: int) -> Tuple[float, float, float, float]:
        """One shard's half-open rectangle ``(x_lo, y_lo, x_hi, y_hi)``
        (stripes: y unbounded)."""
        x_lo, x_hi = self.stripe(shard)
        r_start, r_stop = self.row_bands[shard]
        if r_start is None:
            return (x_lo, -math.inf, x_hi, math.inf)
        return (x_lo, r_start * self.cell_size,
                x_hi, r_stop * self.cell_size)

    def _edges(self, bands) -> List[float]:
        # Interior band boundaries, ascending — bisection targets.
        return [bands[i][0] * self.cell_size for i in range(1, len(bands))]

    def shard_of(self, pos: Vec2) -> int:
        """The single shard owning ``pos`` (clamped into the extent).

        Each axis resolves independently by bisection on its interior
        band edges — positions left of the first band belong to band 0,
        positions at or right of the last boundary to the last band —
        and the owner is the row-major tile index.  Stripes (``rows=1``)
        never consult y, exactly as before.
        """
        col = bisect.bisect_right(self._edges(self._col_bands), pos.x)
        if self.rows == 1:
            return col
        row = bisect.bisect_right(self._edges(self._y_bands), pos.y)
        return row * self.cols + col
