"""The frame path's two stores: current movement legs and recent frames.

The wireless medium asks two geometric questions thousands of times per
simulated second: *who is within radio range of this transmitter?*
(:meth:`LegTable.audible`) and *which overlapping frames were audible at
this receiver?* (:meth:`TxLog.busy`, :meth:`TxLog.corrupt_verdicts`).
Each is one pass over plain Python floats: at the paper's density a
frame has a handful of receivers and under one overlapping frame, so
what matters is how few rows a question touches.

Exact positions from leg tuples
-------------------------------
A leg ``(x0, y0, x1, y1, t0, dur)`` is evaluated in exactly the
expression order of :meth:`repro.mobility.base.MobilityModel.position`
— ``u = min(1, max(0, (now - t0) / dur))`` then ``x0 + (x1 - x0) * u``.
IEEE-754 double arithmetic is deterministic per operation, so the result
is the same double ``position()`` returns, and every range predicate is
``math.hypot(dx, dy) <= r`` on those doubles: the spatial grid only
decides which legs are evaluated, never who is in range.

Anchors kept fresh where they are read
--------------------------------------
The grid indexes each node by an *anchor*, a point within ``slack`` of
its true position at every :meth:`LegTable.audible` call.  A node is
anchored at its exact position whenever its leg is noted, and the table
keeps ``v_max``, the largest leg speed it has seen.  A query at ``now``
first re-anchors every moving row in one pass once ``(now - last pass)
* v_max`` exceeds the slack; otherwise no anchor can have drifted
farther than that product.  Simulation time only moves forward, so the
bound holds at every query without a timer.

A start-ordered log read from its tail
--------------------------------------
:class:`TxLog` keeps frames in start order (the medium adds a frame at
``start = sim.now``) and remembers the largest airtime it was handed.  A
frame can only matter to a question about instant ``t`` if its ``end >
t``.  Walking newest → oldest, the first row with ``start + max_airtime
<= t`` ends the scan: its own ``end = start + airtime`` is ``<= start +
max_airtime`` because float addition is monotone in each operand, and
every older row starts no later, so the same bound holds for it.  The
stop test needs no epsilon and only ever *prunes*: every row examined is
still decided by the exact predicates.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.sim.space import SpatialGrid, Vec2

#: Leg-state tuple: ``(x0, y0, x1, y1, t0, dur)`` — start point, end
#: point, leg start time and leg duration (``inf`` encodes "parked").
LegState = Tuple[float, float, float, float, float, float]

#: One resolved receiver: ``(node id, exact x, exact y)``.
Hit = Tuple[int, float, float]


def static_state(x: float, y: float, t0: float) -> LegState:
    """The leg state of a node parked at ``(x, y)`` since ``t0``.

    ``dur = inf`` makes the interpolation parameter ``u`` exactly 0.0 for
    any finite elapsed time, and ``x1 == x0`` zeroes the delta term, so
    the evaluated position is bitwise ``(x, y)`` (modulo the sign of a
    floating-point zero, which no distance predicate can observe).
    """
    return (x, y, x, y, t0, math.inf)


class LegTable:
    """Current movement leg of every tracked node, over a spatial grid.

    The table owns a :class:`~repro.sim.space.SpatialGrid` of
    ``cell_size`` and keeps one anchor per node in it, within
    ``slack_m`` metres of the true position whenever :meth:`audible`
    reads it; the leg turns cell membership into an exact position.
    """

    def __init__(self, cell_size: float, slack_m: float):
        self._grid = SpatialGrid(cell_size)
        self._slack_m = slack_m
        self._state: Dict[int, LegState] = {}
        self._v_max = 0.0        # fastest leg ever noted (m/s)
        self._swept = 0.0        # last re-anchoring pass (time starts at 0)

    def note(self, node_id: int, state: LegState, now: float) -> None:
        """Insert or replace ``node_id``'s current leg, anchoring the
        node at its exact position at ``now``."""
        self._state[node_id] = state
        x0, y0, x1, y1, _, dur = state
        if dur != math.inf:
            speed = math.hypot(x1 - x0, y1 - y0) / dur
            if speed > self._v_max:
                self._v_max = speed
        self._grid.insert(node_id, Vec2(*_at(state, now)))

    def remove(self, node_id: int) -> None:
        """Forget a node and its anchor (no-op if absent)."""
        self._state.pop(node_id, None)
        self._grid.remove(node_id)

    def audible(self, now: float, cx: float, cy: float, radius: float,
                exclude: Optional[int] = None) -> List[Hit]:
        """Nodes whose exact position at ``now`` lies within ``radius``
        of ``(cx, cy)``, as ``(id, x, y)`` in ascending-id order.

        The grid's cell block of reach ``radius + slack`` contains
        every node whose true position is in range (its anchor is at
        most the slack away), so each member's leg is evaluated and
        decided by ``math.hypot`` directly.  The ascending order fixes
        the order of every delivery, energy charge and RNG draw.
        """
        if (now - self._swept) * self._v_max > self._slack_m:
            insert = self._grid.insert
            for i, state in self._state.items():
                if state[5] != math.inf:
                    insert(i, Vec2(*_at(state, now)))
            self._swept = now
        state = self._state
        hits: List[Hit] = []
        for bucket in self._grid.cell_block(cx, cy, radius + self._slack_m):
            for i in bucket:
                if i == exclude:
                    continue
                x0, y0, x1, y1, t0, dur = state[i]
                u = (now - t0) / dur
                if u < 0.0:
                    u = 0.0
                elif u > 1.0:
                    u = 1.0
                px = x0 + (x1 - x0) * u
                py = y0 + (y1 - y0) * u
                if math.hypot(px - cx, py - cy) <= radius:
                    hits.append((i, px, py))
        hits.sort()
        return hits


def _at(state: LegState, now: float) -> Tuple[float, float]:
    """The exact position a leg state encodes at ``now``."""
    x0, y0, x1, y1, t0, dur = state
    u = min(1.0, max(0.0, (now - t0) / dur))
    return x0 + (x1 - x0) * u, y0 + (y1 - y0) * u


class TxLog:
    """Recent transmissions in start order, newest last.

    One ``(start, end, sender, x, y, range, seq)`` row per frame, pruned
    from the head once a frame ages past the collision horizon.  Both
    history queries of the MAC — :meth:`busy` (carrier sense) and
    :meth:`corrupt_verdicts` (collisions at one frame's receivers) —
    walk back from the tail and stop at the ``max_airtime`` bound.
    """

    def __init__(self, horizon_s: float):
        self._horizon_s = float(horizon_s)
        self._rows: Deque[tuple] = deque()
        self._max_airtime = 0.0
        self._next_seq = 0

    def __len__(self) -> int:
        return len(self._rows)

    def add(self, sender: int, x: float, y: float, range_m: float,
            start: float, duration: float) -> int:
        """Record a frame on the air over ``[start, start + duration)``;
        prunes expired rows; returns the frame's seq, which names it in
        later :meth:`corrupt_verdicts` calls (a frame never collides
        with itself).  Frames must arrive in start order — the tail
        scans rest on it — so a ``start`` earlier than the newest
        row's raises ``ValueError``.
        """
        rows = self._rows
        if rows and start < rows[-1][0]:
            raise ValueError(
                f"frames must be added in start order: {start=} precedes "
                f"the newest row's {rows[-1][0]}")
        horizon = start - self._horizon_s
        while rows and rows[0][1] < horizon:
            rows.popleft()
        if duration > self._max_airtime:
            self._max_airtime = duration
        seq = self._next_seq
        self._next_seq = seq + 1
        rows.append((start, start + duration, sender, x, y, range_m, seq))
        return seq

    def busy(self, px: float, py: float, now: float) -> bool:
        """Carrier sense: any frame still on the air (``end > now``) and
        audible at the point (``hypot(sx - px, sy - py) <= r``)?"""
        reach = self._max_airtime
        for start, end, _, sx, sy, r, _ in reversed(self._rows):
            if start + reach <= now:
                break
            if end > now and math.hypot(sx - px, sy - py) <= r:
                return True
        return False

    def corrupt_verdicts(self, tx_seq: int, tx_start: float, tx_end: float,
                         receivers: Sequence[Hit]) -> Optional[List[bool]]:
        """Collision verdicts for every receiver of one frame at once.

        Returns ``None`` when no *other* frame overlapped ``[tx_start,
        tx_end)`` — nobody was corrupted — else a list aligned with
        ``receivers``: True when some overlapping frame was either sent
        by the receiver itself (half-duplex) or audible at the
        receiver's position.  The overlap is strict on both sides, so a
        frame that ends exactly when another starts does not clash.
        """
        reach = self._max_airtime
        clashing = None
        for start, end, sender, sx, sy, r, seq in reversed(self._rows):
            if start + reach <= tx_start:
                break
            if start < tx_end and end > tx_start and seq != tx_seq:
                if clashing is None:
                    clashing = []
                clashing.append((sender, sx, sy, r))
        if clashing is None:
            return None
        verdicts: List[bool] = []
        for rx_id, px, py in receivers:
            for sender, sx, sy, r in clashing:
                if sender == rx_id or math.hypot(sx - px, sy - py) <= r:
                    verdicts.append(True)
                    break
            else:
                verdicts.append(False)
        return verdicts
