"""Vectorized batch engine for frame resolution (numpy-backed).

The wireless medium's hot path answers two geometric questions thousands
of times per simulated second: *who is within radio range of this
transmitter?* (receiver resolution) and *which overlapping frames were
audible at this receiver?* (collision resolution).  Asking each
candidate node for its ``position()`` and testing ``math.hypot`` against
the range costs a Python-level interpolation per candidate.  This module
answers both questions for *all* candidates of a frame at once with
numpy array arithmetic, while staying **bit-identical** to that
per-candidate arithmetic (``tests/test_medium_engine.py`` checks it
against a brute-force oracle and per-node recomputation).

Bit-identity strategy
---------------------
Two ingredients make the batched answers exactly equal to the
per-candidate ones, not merely close:

1. **Identical interpolation arithmetic.**  :class:`LegTable` stores each
   node's current movement leg as ``(x0, y0, x1, y1, t0, dur)`` and
   evaluates positions with elementwise float64 operations in exactly the
   expression order of :meth:`repro.mobility.base.MobilityModel.position`
   / :meth:`repro.sim.space.Vec2.lerp` — ``u = min(1, max(0,
   (now - t0) / dur))`` then ``x0 + (x1 - x0) * u``.  IEEE-754 double
   arithmetic is deterministic per operation, so the batched results are
   the same doubles the scalar path computes.

2. **Band prefilter + exact confirmation.**  Range predicates are *not*
   answered with ``np.hypot`` (whose last-ulp behaviour is not guaranteed
   to match ``math.hypot``).  Instead a vectorized squared-distance test
   against ``r² · (1 + 1e-9)`` selects a tiny superset of candidates (the
   band comfortably covers the ≤ 4-ulp error of the squared-distance
   form), and each survivor is confirmed with the *scalar* predicate —
   ``math.hypot(dx, dy) <= r`` on the very same doubles.  The decision
   procedure is therefore literally the scalar one; numpy only prunes
   candidates that both procedures would reject.

Small-batch fast path
---------------------
At the paper's density (6 processes/km²) a frame has only a handful of
candidate receivers, and numpy's per-call overhead dwarfs the work.
Below :data:`SMALL_BATCH` candidates each query therefore runs a plain
Python loop over the same stored doubles with the *identical* expression
order and the identical exact predicate — the answers are bitwise the
same as the array path's, chosen purely by batch size.  The array path
takes over exactly where it starts winning.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as _np

from repro.sim.space import Vec2

#: Relative squared-distance band for the vectorized prefilter.  The
#: exact predicate ``math.hypot(dx, dy) <= r`` can only accept points
#: with ``dx² + dy² <= r² · (1 + ~4 ulp)``; a relative band of 1e-9 is
#: six orders of magnitude wider, so the prefilter never rejects a point
#: the exact predicate would accept.
_BAND = 1.0 + 1e-9

#: Batches at or below this size run the scalar fast path (a Python
#: loop over the identical doubles); larger batches use numpy.  Chosen
#: empirically: numpy's fixed per-call cost (~20 µs of array setup)
#: only amortises once a few dozen candidates share it.
SMALL_BATCH = 24

#: Leg-state tuple: ``(x0, y0, x1, y1, t0, dur)`` — start point, end
#: point, leg start time and leg duration (``inf`` encodes "parked").
LegState = Tuple[float, float, float, float, float, float]


def static_state(x: float, y: float, t0: float) -> LegState:
    """The leg state of a node parked at ``(x, y)`` since ``t0``.

    ``dur = inf`` makes the interpolation parameter ``u`` exactly 0.0 for
    any finite elapsed time, and ``x1 == x0`` zeroes the delta term, so
    the evaluated position is bitwise ``(x, y)`` (modulo the sign of a
    floating-point zero, which no distance predicate can observe).
    """
    return (x, y, x, y, t0, math.inf)


class LegTable:
    """Current movement legs of every tracked node, as numpy columns.

    Nodes are stored in dense arrays with a side table mapping node id to
    array slot; removal swaps the last row into the hole, so the arrays
    stay gap-free and every batched query is one contiguous gather.
    Query results are returned in the caller's id order (the medium
    passes grid candidates sorted ascending).
    """

    def __init__(self, capacity: int = 64):
        self._slot: Dict[int, int] = {}
        self._ids: List[int] = []
        self._n = 0
        self._cols = _np.zeros((6, max(4, capacity)), dtype=_np.float64)
        # Plain-float mirror of the columns for the small-batch scalar
        # fast path (Python floats *are* float64, so both stores hold
        # the identical doubles).
        self._state: Dict[int, LegState] = {}

    def __len__(self) -> int:
        return self._n

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._slot

    def note(self, node_id: int, state: LegState) -> None:
        """Insert or replace ``node_id``'s current leg."""
        slot = self._slot.get(node_id)
        if slot is None:
            if self._n == self._cols.shape[1]:
                grown = _np.zeros((6, 2 * self._n), dtype=_np.float64)
                grown[:, :self._n] = self._cols
                self._cols = grown
            slot = self._n
            self._n += 1
            self._slot[node_id] = slot
            self._ids.append(node_id)
        self._cols[:, slot] = state
        self._state[node_id] = state

    def remove(self, node_id: int) -> None:
        """Forget a node (no-op if absent)."""
        slot = self._slot.pop(node_id, None)
        if slot is None:
            return
        self._state.pop(node_id, None)
        last = self._n - 1
        if slot != last:
            self._cols[:, slot] = self._cols[:, last]
            moved = self._ids[last]
            self._ids[slot] = moved
            self._slot[moved] = slot
        self._ids.pop()
        self._n = last

    def audible(self, ids: Sequence[int], now: float, cx: float, cy: float,
                radius: float) -> List[Tuple[int, Vec2]]:
        """The subset of ``ids`` within ``radius`` of ``(cx, cy)``.

        Positions are interpolated for all candidates at once; the range
        predicate is the band-prefilter + exact ``math.hypot`` confirm
        described in the module docstring, so the returned set — and the
        returned exact positions — equal the scalar per-node scan.
        Input order (ascending ids, as the grid yields them) is kept.
        """
        if not ids:
            return []
        if len(ids) <= SMALL_BATCH:
            # Scalar fast path: the same doubles, the same expression
            # order, the same final predicate — just without numpy's
            # per-call setup cost.  The band prefilter is skipped
            # because the exact predicate decides every candidate
            # anyway (the band only ever prunes rejects).
            out: List[Tuple[int, Vec2]] = []
            state = self._state
            for i in ids:
                x0, y0, x1, y1, t0, dur = state[i]
                u = (now - t0) / dur
                if u < 0.0:
                    u = 0.0
                elif u > 1.0:
                    u = 1.0
                px = x0 + (x1 - x0) * u
                py = y0 + (y1 - y0) * u
                if math.hypot(px - cx, py - cy) <= radius:
                    out.append((i, Vec2(px, py)))
            return out
        slots = _np.fromiter((self._slot[i] for i in ids),
                             dtype=_np.intp, count=len(ids))
        x0, y0, x1, y1, t0, dur = (col[slots] for col in self._cols)
        u = (now - t0) / dur
        _np.minimum(1.0, _np.maximum(0.0, u, out=u), out=u)
        xs = x0 + (x1 - x0) * u
        ys = y0 + (y1 - y0) * u
        dx = xs - cx
        dy = ys - cy
        d2 = dx * dx + dy * dy
        band = d2 <= (radius * radius) * _BAND
        out: List[Tuple[int, Vec2]] = []
        for k in _np.nonzero(band)[0]:
            px = xs[k].item()
            py = ys[k].item()
            if math.hypot(px - cx, py - cy) <= radius:
                out.append((ids[k], Vec2(px, py)))
        return out


class TxLog:
    """Ring buffer of recent transmissions, as numpy columns.

    Vectorized replacement for the medium's transmission history: one
    row per frame — sender id, sender position, range, airtime window —
    pruned from the head once a frame ages past the collision horizon.
    Serves the two history queries of the MAC:

    * :meth:`busy` — carrier sense ("any frame still on the air and
      audible here?");
    * :meth:`corrupt_verdicts` — collision resolution for a whole
      receiver batch of one frame at once.

    Both use the band-prefilter + exact-confirm predicate, so verdicts
    equal a frame-by-frame ``math.hypot`` scan of the history.
    """

    def __init__(self, horizon_s: float, capacity: int = 64):
        self._horizon_s = float(horizon_s)
        cap = max(4, capacity)
        self._sender = _np.zeros(cap, dtype=_np.int64)
        self._seq = _np.zeros(cap, dtype=_np.int64)
        self._f = _np.zeros((6, cap), dtype=_np.float64)  # x y r r2b t0 t1
        self._head = 0
        self._tail = 0
        self._next_seq = 0

    def __len__(self) -> int:
        return self._tail - self._head

    def add(self, sender: int, x: float, y: float, range_m: float,
            start: float, end: float) -> int:
        """Record a frame; prunes expired rows; returns the frame's seq.

        The returned sequence number identifies the frame in later
        :meth:`corrupt_verdicts` calls (a frame never collides with
        itself).
        """
        horizon = start - self._horizon_s
        while self._head < self._tail and \
                self._f[5, self._head] < horizon:
            self._head += 1
        if self._tail == self._f.shape[1]:
            self._compact()
        t = self._tail
        self._sender[t] = sender
        seq = self._next_seq
        self._next_seq += 1
        self._seq[t] = seq
        self._f[:, t] = (x, y, range_m, (range_m * range_m) * _BAND,
                         start, end)
        self._tail = t + 1
        return seq

    def _compact(self) -> None:
        n = self._tail - self._head
        cap = self._f.shape[1]
        if n > cap // 2:
            cap *= 2
            sender = _np.zeros(cap, dtype=_np.int64)
            seq = _np.zeros(cap, dtype=_np.int64)
            f = _np.zeros((6, cap), dtype=_np.float64)
        else:
            sender, seq, f = self._sender, self._seq, self._f
        window = slice(self._head, self._tail)
        sender[:n] = self._sender[window]
        seq[:n] = self._seq[window]
        f[:, :n] = self._f[:, window]
        self._sender, self._seq, self._f = sender, seq, f
        self._head, self._tail = 0, n

    def busy(self, px: float, py: float, now: float) -> bool:
        """Carrier sense: any frame still on the air audible at the point?

        The predicate is ``end > now`` and ``hypot(sx - px, sy - py)
        <= r``; the short-circuit order does not matter because no RNG
        is consumed here.
        """
        if self._head == self._tail:
            return False
        window = slice(self._head, self._tail)
        f = self._f
        # Frames still on the air are a handful at any instant; find
        # them with one cheap vector compare, then confirm each with
        # the exact scalar predicate.
        active = _np.nonzero(f[5, window] > now)[0]
        base = self._head
        for k in active.tolist():
            row = base + k
            if math.hypot(f[0, row] - px, f[1, row] - py) <= f[2, row]:
                return True
        return False

    def corrupt_verdicts(self, tx_seq: int, tx_start: float, tx_end: float,
                         rx_ids: Sequence[int],
                         rx_pos: Sequence[Vec2]):
        """Collision verdicts for every receiver of one frame at once.

        Returns a boolean array aligned with ``rx_ids``: True when some
        *other* frame overlapping ``[tx_start, tx_end)`` was either sent
        by the receiver itself (half-duplex) or audible at the
        receiver's position.  Time-overlap and half-duplex tests are
        exact integer / float comparisons; audibility uses the band +
        ``math.hypot`` confirm on the identical subtraction results.
        """
        k_rx = len(rx_ids)
        out = _np.zeros(k_rx, dtype=bool)
        if k_rx == 0 or self._head == self._tail:
            return out
        window = slice(self._head, self._tail)
        overlap = ((self._f[4, window] < tx_end)
                   & (self._f[5, window] > tx_start)
                   & (self._seq[window] != tx_seq))
        rows = _np.nonzero(overlap)[0]
        if rows.size == 0:
            return out
        if rows.size * k_rx <= SMALL_BATCH * SMALL_BATCH:
            # Scalar fast path over the few overlapping rows: identical
            # predicate (half-duplex by sender id, else the exact
            # ``math.hypot`` range test), no broadcast matrices.
            f, sender = self._f, self._sender
            base = self._head
            for m in rows.tolist():
                row = base + m
                sx = f[0, row]
                sy = f[1, row]
                r = f[2, row]
                snd = sender[row]
                for k in range(k_rx):
                    if out[k]:
                        continue
                    if snd == rx_ids[k]:
                        out[k] = True
                        continue
                    p = rx_pos[k]
                    if math.hypot(sx - p.x, sy - p.y) <= r:
                        out[k] = True
            return out
        rx_id_arr = _np.fromiter(rx_ids, dtype=_np.int64, count=k_rx)
        rx_x = _np.fromiter((p.x for p in rx_pos),
                            dtype=_np.float64, count=k_rx)
        rx_y = _np.fromiter((p.y for p in rx_pos),
                            dtype=_np.float64, count=k_rx)
        senders = self._sender[window][rows]
        _np.logical_or.reduce(senders[:, None] == rx_id_arr[None, :],
                              axis=0, out=out)
        dx = self._f[0, window][rows][:, None] - rx_x[None, :]
        dy = self._f[1, window][rows][:, None] - rx_y[None, :]
        d2 = dx * dx + dy * dy
        band = d2 <= self._f[3, window][rows][:, None]
        r = self._f[2, window][rows]
        for m, k in zip(*_np.nonzero(band)):
            if not out[k] and math.hypot(dx[m, k], dy[m, k]) <= r[m]:
                out[k] = True
        return out
