"""Sharded-world execution: one logical world, K cooperating shards.

``run_sharded_scenario`` runs the scenario described by a
:class:`~repro.harness.scenario.ScenarioConfig` whose
:class:`~repro.sim.shard.config.ShardConfig` asks for K shards as K
spatially partitioned sub-worlds that exchange radio traffic at **epoch
barriers**, and merges the per-shard measurements into one
:class:`~repro.harness.scenario.ScenarioResult`.  The defining
properties — asserted by ``tests/test_shard.py`` — are

* **shard-count invariance**: summaries for ``shards=1``, ``2`` and
  ``4`` are bit-identical;
* **tile-shape invariance**: a ``4x1``, ``2x2`` and ``1x4`` plan of the
  same K agree bit for bit;
* **epoch-length invariance**: any barrier spacing in
  ``(0, LATENCY_S]`` yields bit-identical results, which is why the
  spacing is derived (:func:`~repro.sim.shard.config.resolve_epoch_s`)
  rather than configured.

The retimed universe
--------------------
The sharded engine models a constant cross-node delivery latency
``L = LATENCY_S`` (1 s): a frame transmitted over
``[s, e = s + airtime)`` occupies the channel **as heard by every node
but its sender** over ``(s + L, e + L)``, and is delivered — verdicts,
loss draws, protocol reactions — at the exact instant ``e + L``, as a
real kernel event inside whichever epoch contains it.  The sender's own
half-duplex busy window stays unshifted (it hears itself in real time).

This is what buys epoch-invariance.  A frame sent at ``s`` is
*committed* (drained, merged, ingested everywhere) at the first barrier
``>= s``, which is at most ``s + epoch`` — while its earliest possible
observable effect is at times ``> s + L``.  With ``epoch <= L``
(guaranteed by :func:`~repro.sim.shard.config.resolve_epoch_s`), commitment
therefore always precedes first use — the conservative-PDES lookahead
bound — and every observable becomes a pure function of frame
timestamps and per-node RNG streams, independent of where the barriers
fall.  Extra barriers (the warm-up boundary, the end instant) only
subdivide epochs, which cannot reorder anything.  The one caveat: an
*exact float tie* between a delivery instant ``e + L`` and an unrelated
local event falls back to kernel scheduling order, which is
epoch-dependent; delivery instants carry airtime fractions
(sub-millisecond, non-round floats), so such ties do not occur in
practice and none has been observed across the test matrix.

How it works
------------
* **Ownership** — every node is assigned to the shard whose tile
  contains its *initial* position (:func:`compute_ownership` draws it
  with ``MobilityModel.place``, the first step of the mobility start
  and the first draw on each node's ``("node", i)`` stream, which is
  exact: ``Node.start`` starts mobility before the protocol ever
  draws).  The plan spans the initial population's extent
  with the medium's grid-cell geometry (``range + anchor slack``) as an
  ``rows x cols`` grid of whole cells — ``rows=1`` is the classic
  vertical-stripe plan.
* **Slotted medium** — inside a shard, frames transmitted during an
  epoch are *invisible* until the next barrier (:class:`ShardMedium`
  overrides the medium's on-air step, ``_put_on_air``, to append them
  to an outbox).  Each barrier is a three-step exchange.  *Advance*:
  every shard runs to the barrier, keeps its drained outbox and
  reports its resident bounding region.  *Outgoing*: handed every
  shard's region (all shards before any is asked for its slices, so
  worker processes route in parallel), each shard routes its own outbox
  by **audibility** — a frame goes to a shard only if that shard's
  region, inflated by the worst-case drift ``v_max * (2 * horizon +
  L)``, lies within the frame's radio reach — keeps its own slice and
  hands over one slice per peer.  *Ingest*: each shard merges its own
  slice with its peers' into the canonical ``(start, sender id,
  per-sender seq)`` order.  A frame pruned by routing is provably
  inaudible to every resident at every relevant instant, so dropping
  it is observably a no-op for any K; and because routing is a
  per-frame predicate and the key is unique, merging the routed
  per-source slices gives exactly the routed slice of the merged
  union.  Mobility specs that cannot bound ``v_max`` disarm the prune
  (ship everywhere), trading wall-clock for the same results.
* **Ingest** — each shard folds its routed batch into a start-sorted
  log (batches arrive in barrier order and batch b's starts all precede
  batch b+1's, so concatenation preserves the sort — no per-barrier
  re-sort) serving both carrier sense and collision verdicts via
  bisect-bounded slivers, and schedules one delivery event per frame at
  its exact ``e + L`` (the *retime* step).
* **Exactness** — nodes interact *only* through the medium, and the
  committed traffic every shard sees is a pure function of per-node
  streams and earlier barriers, so by induction over barriers no
  observable — deliveries, collisions, CSMA back-offs, energy charges,
  fault draws — depends on which nodes happen to be co-resident.
  Carrier sense and uniform frame loss draw from per-node streams
  (``("shard-medium", id)`` / ``("shard-loss", id)``) instead of the
  classic shared medium stream for the same reason.  (Kernel *event
  counts* are not observables: audibility routing legitimately changes
  ``sim_events_processed`` across K, and only the spawn/inproc pairing
  at equal K asserts it.)
* **Collisions** — a frame resolving at ``e + L`` checks strict overlap
  of shifted occupancies, which equals unshifted overlap (the shift
  cancels); every overlapping frame ``g`` satisfies ``g.start < e``, so
  ``g`` is committed by ``g.start + epoch < e + L`` — strictly before
  the verdict needs it, for any sound epoch.  The receiver's *own*
  transmissions block reception in real time (half duplex), checked
  against a resident-local send log rather than the committed one.

``shards=0`` (the default) never reaches this module: the classic
single-world engine runs untouched.  Note the retimed universe is a
*different* (equally valid) physics from the classic engine's
zero-latency one — sharded runs are compared against each other, never
against ``shards=0``.

Backends: one barrier loop (:func:`_run_barriers`) drives two kinds of
shard handle that differ only in *where* a world is stepped — the
:class:`_ShardWorld` itself in this process (``inproc``: K=1, daemonic
pool workers, hosts without a second usable CPU or without ``fork``, a
driver with another live thread), or a :class:`_SpawnedShard` over a
pipe to a worker process that walks the same barrier list on its own,
so epochs overlap (``spawn``).  In-process the peer slices are lists;
a worker pickles each peer slice once and the driver forwards those
bytes untouched, so a shard's own frames never leave its process and
the driver never builds a frame.
``REPRO_SHARD_BACKEND`` forces either; a worker that dies, or stops
answering for far longer than its slowest exchange so far, at either
of a barrier's two replies, surfaces as :class:`ShardWorkerLost`
naming its shard and barrier.

Workers are *forked* from the driver, so a worker inherits the imported
modules, the cached street map, the config, the ownership and the
barrier list instead of re-importing, rebuilding and unpickling them,
and builds only its own :class:`_ShardWorld`.  That is safe because a
worker inherits nothing the ``inproc`` backend does not already share:
``inproc`` steps every shard world inside the driver, after the same
imports and caches, and the two backends agree bit for bit.  The one
inherited thing that matters is file descriptors: a forked worker holds
a copy of every driver-side pipe end open at fork time, its own
included, and closes them first, or the driver hanging up on a worker
would never reach it as EOF.  Forking beside another live thread is
not safe (a lock that thread holds stays held in the child), so a
driver with one steps its shards in-process.  The ``--jobs`` pool
keeps *spawn* for its long-lived workers
(:mod:`repro.harness.parallel`).
"""

from __future__ import annotations

import bisect
import gc
import math
import multiprocessing
import os
import pickle
import threading
import time as _wallclock
import traceback
import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.energy.collector import EnergyRecord
from repro.faults.injector import FaultTimeline
from repro.metrics.collector import MetricsRecord
from repro.net import WirelessMedium
from repro.net.medium import HISTORY_HORIZON_S, Transmission, anchor_slack_m
from repro.sim import RngRegistry, Simulator
from repro.sim.batch import Hit
from repro.sim.shard.config import LATENCY_S, resolve_epoch_s
from repro.sim.shard.partition import ShardPlan
from repro.sim.space import Vec2

#: Metres added to the radio range by audibility routing — keeps the
#: box test a strict superset of the exact audibility predicate
#: regardless of rounding, at zero cost.
_BBOX_SLACK_M = 1.0

#: The conservative stand-down bounding box: covers everything, so
#: every prune that cannot be proven sound simply stops pruning.
_EVERYWHERE = (-math.inf, -math.inf, math.inf, math.inf)

#: A shard worker silent for ``max(_STALL_FLOOR_S, _STALL_FACTOR *
#: its slowest exchange so far)`` seconds is lost (stopped or wedged).
_STALL_FLOOR_S = 300.0
_STALL_FACTOR = 10.0

#: The driver's end of every worker pipe.  A forked worker inherits a
#: copy of each one open at fork time and closes them all before it
#: does anything else.
_DRIVER_ENDS: "weakref.WeakSet" = weakref.WeakSet()


@dataclass
class ShardFrame:
    """One committed (or about-to-commit) frame on the shard bus.

    ``seq`` is the sender's per-run transmission counter; ``(sender,
    seq)`` identifies a frame globally, and ``(start, sender, seq)`` is
    the canonical merge order every shard sorts the committed batch by.
    """

    tx: Transmission
    seq: int


def _frame_key(frame: ShardFrame) -> Tuple[float, int, int]:
    """The deterministic merge-order key: (time, node id, seq)."""
    return (frame.tx.start, frame.tx.sender, frame.seq)


def compute_barriers(warmup: float, duration: float,
                     epoch: float) -> List[float]:
    """The ascending epoch-barrier instants for one run.

    Multiples of ``epoch`` up to the run end, plus the warm-up boundary
    (metrics thaw there) and the exact end instant, deduplicated.  The
    extra instants only subdivide epochs, which the retimed exchange is
    insensitive to.
    """
    end = warmup + duration
    ticks = set()
    k = 1
    while k * epoch < end:
        ticks.add(k * epoch)
        k += 1
    if warmup > 0:
        ticks.add(warmup)
    ticks.add(end)
    return sorted(ticks)


def compute_ownership(config) -> List[int]:
    """Assign every node to a shard by its exact initial position.

    Draws each node's entry position from its ``("node", i)`` stream
    with :meth:`~repro.mobility.base.MobilityModel.place` — the first
    step ``Node.start`` takes through ``MobilityModel.start``, before
    any other draw — without planning a leg.  The tile plan spans the
    initial population's extent with the medium's grid-cell geometry
    (``range + anchor slack``), so shard borders line up with
    :class:`~repro.sim.space.SpatialGrid` cells; ``rows=1`` keeps the
    historical vertical stripes.
    """
    shards = config.shards
    rngs = RngRegistry(config.seed)
    positions = [config.mobility.build(i).place(rngs.stream("node", i))
                 for i in range(config.n_processes)]
    range_m = config.radio.communication_range_m()
    cell = range_m + anchor_slack_m(range_m)

    def extent(values: List[float]) -> Tuple[float, float]:
        lo, hi = min(values), max(values)
        return lo, (hi if hi > lo else lo + cell)

    min_x, max_x = extent([p.x for p in positions])
    min_y, max_y = extent([p.y for p in positions])
    plan = ShardPlan(min_x=min_x, max_x=max_x, shards=shards.shards,
                     cell_size=cell, rows=shards.rows,
                     min_y=min_y, max_y=max_y)
    return [plan.shard_of(p) for p in positions]


def _routing_margin_m(config) -> Optional[float]:
    """The reach inflation that makes audibility routing sound.

    A frame committed at barrier ``t_c`` is last consulted no later
    than ``t_c + 2 * horizon + L`` (its own delivery at ``e + L <= t_c
    + airtime + L``, carrier sense while on the shifted air, and
    collision verdicts of frames it overlaps, each at most ``horizon``
    later — the classic medium already bounds airtime and collision
    windows by its history horizon).  Residents drift at most ``v_max``
    metres per second from the bounding region measured at ``t_c``, so
    inflating each frame's radio range by ``v_max * (2 * horizon + L)``
    (plus the usual slack) makes the box test a strict superset of
    every audibility predicate the shard will ever evaluate against the
    frame.  ``None`` — the mobility spec cannot bound speed — disarms
    the prune entirely.

    The prune never changes a result; it stays because it pays: on the
    e2e ``city_shard`` workload (seed 0, in-process, 2-vCPU host) it
    cuts frames exchanged from 78 748 to 49 602 and kernel events from
    199 117 to 170 128, CPU 2.87-3.49 s against 3.58-4.10 s without.
    """
    v_max = config.mobility.max_speed_mps()
    if v_max is None:
        return None
    return v_max * (2.0 * HISTORY_HORIZON_S + LATENCY_S) + _BBOX_SLACK_M


def _filter_batch(merged: List[ShardFrame],
                  bbox: Optional[Tuple[float, float, float, float]],
                  margin: Optional[float]) -> List[ShardFrame]:
    """One shard's routed slice of the canonical committed batch.

    A subsequence of a canonically sorted list is itself canonically
    sorted, so routing never perturbs merge order.  ``bbox=None`` means
    the shard has no residents (nothing can hear anything — ship
    nothing); an unbounded box or ``margin=None`` stands the prune down
    (ship everything).
    """
    if bbox is None:
        return []
    if margin is None or bbox[0] == -math.inf:
        return merged
    out = []
    for frame in merged:
        pos = frame.tx.sender_pos
        dx = max(bbox[0] - pos.x, 0.0, pos.x - bbox[2])
        dy = max(bbox[1] - pos.y, 0.0, pos.y - bbox[3])
        reach = frame.tx.range_m + margin
        if dx * dx + dy * dy <= reach * reach:
            out.append(frame)
    return out


class ShardMedium(WirelessMedium):
    """The slotted per-shard medium with retimed deliveries.

    Differences from the classic :class:`WirelessMedium`:

    * outgoing frames go to an epoch outbox instead of resolving
      receivers immediately (the ``_put_on_air`` override);
    * committed frames occupy the channel shifted by the universe's
      delivery latency — carrier sense sees a neighbour's frame over
      ``(start + L, end + L)`` and the sender's own over ``[start,
      end)`` (half duplex in real time), never a co-resident
      neighbour's *uncommitted* traffic: co-residency must be
      unobservable;
    * CSMA back-off and uniform frame-loss draws come from per-node
      streams so their sequences are independent of shard composition
      (the send path, receiver walk and delivery batch themselves are
      the parent's: only ``_put_on_air``, ``_channel_busy``,
      ``_corrupt_verdicts``, ``_mac_rng`` and ``_loss_rng`` are
      overridden);
    * each ingested frame's delivery — receiver resolution, collision
      verdict, loss draws, protocol reaction — runs as a kernel event
      at its exact ``end + L``, *inside* the epoch, not at a barrier.
    """

    def __init__(self, sim, radio, config, sizes, rngs: RngRegistry):
        super().__init__(sim, radio, config=config, sizes=sizes, rng=None)
        self._rngs = rngs
        self._latency_s = LATENCY_S
        self._outbox: List[ShardFrame] = []
        self._tx_seq: Dict[int, int] = {}
        self._own_tx: Dict[int, List[Tuple[float, float]]] = {}
        self._log: List[ShardFrame] = []       # committed, start-sorted
        self._log_starts: List[float] = []
        self._max_airtime = 0.0

    # -- sending (epoch side) ----------------------------------------------

    def _put_on_air(self, tx: Transmission, duration: float) -> None:
        """The frame leaves for the epoch-barrier exchange: nothing is
        resolved locally, co-resident neighbours included."""
        seq = self._tx_seq.get(tx.sender, 0)
        self._tx_seq[tx.sender] = seq + 1
        self._outbox.append(ShardFrame(tx=tx, seq=seq))
        # Resident-local send log: the half-duplex side of carrier sense
        # and collision verdicts reads a node's *real-time*
        # transmissions, which never wait for a barrier.
        self._own_tx.setdefault(tx.sender, []).append((tx.start, tx.end))

    def _channel_busy(self, sender_id: int, pos: Vec2) -> bool:
        """Carrier sense over the sender's own real-time frames and the
        committed log's latency-shifted occupancy."""
        now = self.sim.now
        if any(end > now for _, end in self._own_tx.get(sender_id, ())):
            return True   # own frame still on the air (half duplex)
        shift = self._latency_s
        # A committed frame occupies the shifted channel at `now` iff
        # start + L < now < end + L (open start: at exactly start + L
        # the channel is still idle under *every* epoch — a frame is
        # not yet visible to same-instant events in the epoch that
        # commits it).  Only frames with start in [now - L - airtime,
        # now - L) qualify; the start-sorted log narrows the scan to
        # that sliver instead of one full epoch of traffic.
        lo = bisect.bisect_left(self._log_starts,
                                now - shift - self._max_airtime)
        hi = bisect.bisect_left(self._log_starts, now - shift)
        for frame in self._log[lo:hi]:
            tx = frame.tx
            if tx.sender == sender_id:
                continue   # own frames are real-time, handled above
            if now < tx.end + shift and tx.audible_at(pos):
                return True
        return False

    def _mac_rng(self, sender_id: int):
        """Back-off drawn from the sender's own stream."""
        return self._rngs.stream("shard-medium", sender_id)

    def collect_outbox(self) -> List[ShardFrame]:
        """Drain this epoch's transmissions (barrier step one)."""
        out = self._outbox
        self._outbox = []
        return out

    def routing_bbox(self) -> Optional[Tuple[float, float, float, float]]:
        """The resident bounding region at this instant — the driver's
        audibility-routing input, recomputed exactly at every barrier
        (``None``: no residents; infinite: position unknown, prune must
        stand down)."""
        xs: List[float] = []
        ys: List[float] = []
        try:
            for node in self._nodes.values():
                pos = node.position()
                xs.append(pos.x)
                ys.append(pos.y)
        except RuntimeError:
            # Unstarted mobility: position unknown, so the prune must
            # stand down entirely to stay conservative.
            return _EVERYWHERE
        if not xs:
            return None   # no residents: nothing can hear anything
        return (min(xs), min(ys), max(xs), max(ys))

    # -- receiving (barrier + retime side) ---------------------------------

    def ingest_committed(self, frames: Sequence[ShardFrame],
                         barrier: float) -> None:
        """Fold this shard's routed slice of the committed batch in.

        Updates the start-sorted committed log, which serves both
        carrier sense (shifted occupancy at ``now``) and collision
        verdicts.  Batches arrive in barrier order and all of batch b's
        starts precede batch b+1's (a frame sent after barrier ``t_b``
        starts after it), so appending preserves the sort — the
        per-barrier re-sort the stripe-era engine paid is gone.
        """
        shift = self._latency_s
        for frame in frames:
            airtime = frame.tx.end - frame.tx.start
            if airtime > self._max_airtime:
                self._max_airtime = airtime
        # Committed frame g is last consulted by verdicts of frames it
        # overlaps, at most horizon + L past its end (see the module
        # docstring); prune with that cutoff, from the front only.
        cutoff = barrier - HISTORY_HORIZON_S - shift
        if self._log and self._log[0].tx.end <= cutoff:
            self._log = [f for f in self._log if f.tx.end > cutoff]
            self._log_starts = [f.tx.start for f in self._log]
        self._log.extend(frames)
        self._log_starts.extend(f.tx.start for f in frames)
        for sender, spans in self._own_tx.items():
            if spans and spans[0][1] <= cutoff:
                self._own_tx[sender] = [s for s in spans if s[1] > cutoff]

    def schedule_deliveries(self, frames: Sequence[ShardFrame]) -> None:
        """Retime: arm one kernel event per routed frame at its exact
        delivery instant ``end + latency``.

        Always strictly in the future (``end + L > start + L >=
        commitment barrier``), and same-instant deliveries tie-break by
        scheduling order — which is canonical batch order here, hence
        identical for every shard count and epoch length.
        """
        shift = self._latency_s
        for frame in frames:
            self.sim.call_at(frame.tx.end + shift,
                             self._resolve_frame, frame)

    def _resolve_frame(self, frame: ShardFrame) -> None:
        """Deliver one committed frame at its ``end + latency``: the
        classic receiver walk and delivery batch, asked at the delivery
        instant instead of at the frame's start."""
        tx = frame.tx
        receivers = self._listeners(tx, self.sim.now, tx.end - tx.start)
        if receivers:
            self._deliver_batch(tx, frame.seq, receivers)

    def _corrupt_verdicts(self, tx: Transmission, tx_seq: int,
                          receivers: List[Hit]) -> List[bool]:
        """One :meth:`_corrupt_verdict` per receiver."""
        return [self._corrupt_verdict(tx, tx_seq, rx_id, rx_x, rx_y)
                for rx_id, rx_x, rx_y in receivers]

    def _corrupt_verdict(self, tx: Transmission, seq: int, receiver_id: int,
                         rx_x: float, rx_y: float) -> bool:
        """Collision check at the delivery instant.

        Two shifted occupancies overlap iff the unshifted airtimes do
        (the latency shift cancels), so the committed-log scan keeps
        its unshifted window.  The *receiver's own* transmissions are
        the exception: they block its radio in real time, so the
        half-duplex test intersects the receiver's local send log with
        the frame's shifted arrival window.
        """
        shift = self._latency_s
        for (own_start, own_end) in self._own_tx.get(receiver_id, ()):
            if own_start < tx.end + shift and tx.start + shift < own_end:
                return True
        lo = bisect.bisect_left(self._log_starts,
                                tx.start - self._max_airtime)
        hi = bisect.bisect_left(self._log_starts, tx.end)
        for other in self._log[lo:hi]:
            otx = other.tx
            if otx.sender == tx.sender and other.seq == seq:
                continue
            if otx.sender == receiver_id:
                continue   # real-time half duplex, handled above
            if not (otx.start < tx.end and tx.start < otx.end):
                continue
            at = otx.sender_pos
            if math.hypot(at.x - rx_x, at.y - rx_y) <= otx.range_m:
                return True
        return False

    def _loss_rng(self, receiver_id: int):
        """Per-receiver loss stream (shared-stream draw order would be
        a merge artefact)."""
        return self._rngs.stream("shard-loss", receiver_id)


class ShardWorkerLost(RuntimeError):
    """A shard worker process died, closed its pipe or stopped answering
    mid-run (``exitcode`` is ``None`` for one that stopped answering)."""

    def __init__(self, shard: int, barrier: float, exitcode: Optional[int]):
        cause = ("no reply before the deadline" if exitcode is None
                 else f"exit code {exitcode}")
        super().__init__(f"shard {shard} worker lost at the exchange for "
                         f"barrier t={barrier} ({cause})")
        self.shard = shard
        self.barrier = barrier
        self.exitcode = exitcode


class _ShardWorld:
    """One shard's sub-world, stepped from barrier to barrier — and the
    in-process shard handle (``advance`` / ``route`` / ``outgoing`` /
    ``ingest`` / ``finish`` / ``close``; :class:`_SpawnedShard` is the
    same handle over a pipe).

    Nodes, collectors, fault arming and the trial lifecycle are the
    harness's (``wire_world``); this class adds the medium and the
    barrier exchange.  Each world owns a fresh ``RngRegistry(seed)`` and
    the protocol is schedule-independent, so stepping K of them here is
    bit-identical to forking them.  Peer slices are plain lists here;
    pickling them is the worker process's business.
    """

    def __init__(self, config, shard_index: int, owners: Sequence[int]):
        # Imported here (not at module top) to keep this module
        # importable without dragging the harness in at package-import
        # time; run_scenario imports us lazily for the same reason.
        from repro.harness.scenario import wire_world

        self.stats = {"drain_s": 0.0, "merge_s": 0.0, "ingest_s": 0.0,
                      "retime_s": 0.0, "frames_exchanged": 0.0}
        self._index = shard_index
        self._margin = _routing_margin_m(config)
        self._outbox: List[ShardFrame] = []
        self._own: List[ShardFrame] = []
        self._peers: Dict[int, List[ShardFrame]] = {}
        sim = Simulator()
        rngs = RngRegistry(config.seed)
        medium = ShardMedium(
            sim, config.radio, config=config.medium, sizes=config.sizes,
            rngs=rngs)
        # Fault draws span the global population and use per-receiver
        # streams, so they do not depend on who is co-resident.
        self.world = world = wire_world(
            config, sim, rngs, medium,
            [i for i, owner in enumerate(owners) if owner == shard_index],
            population=range(config.n_processes),
            per_receiver_loss_rng=lambda i: rngs.stream(
                "shard-fault-loss", i))
        world.start()
        # Armed at build time (the classic run arms after warm-up):
        # kernel sequence numbers break same-instant ties, so this
        # order is behaviour.
        world.schedule_publications(config)
        # The barrier at which metrics thaw (0: no warm-up, no such
        # barrier — the window is open from the start).
        self._thaw_at = config.warmup
        if config.warmup > 0:
            world.collector.freeze()
        else:
            world.open_window()

    # -- barrier exchange --------------------------------------------------

    def advance(self, barrier: float) -> Optional[Tuple]:
        """Run the local kernel up to the barrier, keep the drained
        outbox and return the resident bounding region."""
        self.world.sim.run(until=barrier)
        t0 = _wallclock.perf_counter()
        self._outbox = self.world.medium.collect_outbox()
        bbox = self.world.medium.routing_bbox()
        self.stats["drain_s"] += _wallclock.perf_counter() - t0
        return bbox

    def route(self, boxes: Sequence[Optional[Tuple]]) -> None:
        """Route the kept outbox against every shard's box: keep this
        shard's own slice and one slice per peer for :meth:`outgoing`."""
        t0 = _wallclock.perf_counter()
        for index, box in enumerate(boxes):
            routed = _filter_batch(self._outbox, box, self._margin)
            if index == self._index:
                self._own = routed
            else:
                self._peers[index] = routed
        self._outbox = []
        self.stats["merge_s"] += _wallclock.perf_counter() - t0

    def outgoing(self) -> Dict[int, List[ShardFrame]]:
        """The routed peer slices, keyed by the peer's index."""
        peers, self._peers = self._peers, {}
        return peers

    def ingest(self, barrier: float,
               peer_slices: Sequence[List[ShardFrame]]) -> None:
        """Merge the own slice with the peers' into canonical order,
        fold it in, retime its deliveries, and (at the warm-up barrier)
        thaw metrics exactly as the classic run does after
        ``sim.run(until=warmup)``."""
        t0 = _wallclock.perf_counter()
        # A copy: in-process, an unpruned slice is one list shared
        # with every peer.
        committed = list(self._own)
        for slice_ in peer_slices:
            committed.extend(slice_)
        committed.sort(key=_frame_key)
        self._own = []
        t1 = _wallclock.perf_counter()
        self.world.medium.ingest_committed(committed, barrier)
        t2 = _wallclock.perf_counter()
        self.world.medium.schedule_deliveries(committed)
        t3 = _wallclock.perf_counter()
        self.stats["merge_s"] += t1 - t0
        self.stats["ingest_s"] += t2 - t1
        self.stats["retime_s"] += t3 - t2
        self.stats["frames_exchanged"] += len(committed)
        if barrier == self._thaw_at:
            self.world.open_window()

    def finish(self) -> Dict[str, object]:
        """Close the trial and emit this shard's picklable payload."""
        metrics, energy, timeline = self.world.close()
        return {
            "metrics": metrics,
            "published": self.world.published,
            "energy": energy,
            "timeline": timeline,
            "events": self.world.sim.events_processed,
            "stats": self.stats,
        }

    def close(self) -> None:
        """Nothing to reap in-process."""


# -- backends ---------------------------------------------------------------


def _select_backend(shards: int) -> str:
    """Pick worker processes vs in-process (env override
    ``REPRO_SHARD_BACKEND``; ``spawn`` means worker processes).

    Daemonic pool workers (the ``--jobs N`` parallel engine) may not
    start children, and workers are forked, which needs ``fork`` and is
    unsafe beside another live thread (a lock it holds at fork time
    stays held in the child forever).  In each case even an explicit
    ``spawn`` degrades to the bit-identical in-process backend instead
    of crashing deep in ``multiprocessing`` or risking a hung worker.
    """
    from repro.harness.parallel import available_cpu_count
    choice = os.environ.get("REPRO_SHARD_BACKEND", "auto")
    if choice not in ("auto", "inproc", "spawn"):
        raise ValueError(
            f"REPRO_SHARD_BACKEND must be auto|inproc|spawn: {choice!r}")
    if multiprocessing.current_process().daemon:
        return "inproc"   # pool workers may not start children
    if "fork" not in multiprocessing.get_all_start_methods():
        return "inproc"   # workers are forked, and this host cannot fork
    if threading.active_count() > 1:
        return "inproc"   # e.g. a live --jobs pool's manager thread
    if choice != "auto":
        return choice
    if shards < 2 or available_cpu_count() < 2:
        return "inproc"   # nothing to run in parallel: skip the IPC tax
    return "spawn"


def _shard_worker_main(conn, config, shard_index: int, owners: List[int],
                       barriers: List[float]) -> None:
    """Forked worker: one shard world walking the barrier list on its
    own, sending its box, then its peer slices pickled once each, and
    ingesting the peers' slices for it at every barrier.  The
    (un)pickling counts as merge time."""
    # Hold no driver end, this worker's own included: a copy kept here
    # would keep the driver's hang-up from ever reaching a worker.
    for end in list(_DRIVER_ENDS):
        end.close()
    # Everything inherited is the driver's and lives until exit; left
    # to the collector, each full collection would walk it and copy the
    # pages it touches (merge_s, which allocates most, pays for that).
    gc.freeze()
    try:
        world = _ShardWorld(config, shard_index, owners)
        for barrier in barriers:
            conn.send(("box", world.advance(barrier)))
            world.route(conn.recv())
            t0 = _wallclock.perf_counter()
            peers = {index: pickle.dumps(slice_, pickle.HIGHEST_PROTOCOL)
                     for index, slice_ in world.outgoing().items()}
            t1 = _wallclock.perf_counter()
            conn.send(("frames", peers))
            wired = conn.recv()
            t2 = _wallclock.perf_counter()
            peer_slices = [pickle.loads(data) for data in wired]
            world.stats["merge_s"] += (t1 - t0
                                       + _wallclock.perf_counter() - t2)
            world.ingest(barrier, peer_slices)
        conn.send(("done", world.finish()))
    except Exception:   # noqa: BLE001 - forwarded verbatim to the parent
        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):   # pragma: no cover
            pass
    finally:
        conn.close()


class _SpawnedShard:
    """Shard handle: the world lives in a forked worker process
    (``conn`` is the driver's end of its pipe, ``proc`` the process),
    which runs ahead to each barrier unasked (so the K epochs overlap).
    The driver forwards the worker's peer slices as opaque bytes and
    never builds a frame object."""

    def __init__(self, index: int, conn, proc):
        self.index = index
        self._conn = conn
        self._proc = proc
        self._barrier = 0.0
        self._sent_at = _wallclock.monotonic()
        self._slowest = 0.0

    @classmethod
    def spawn(cls, config, index: int, owners: List[int],
              barriers: List[float]) -> "_SpawnedShard":
        """Fork a worker walking ``barriers`` for shard ``index``."""
        ctx = multiprocessing.get_context("fork")
        conn, child_conn = ctx.Pipe()
        _DRIVER_ENDS.add(conn)
        proc = ctx.Process(
            target=_shard_worker_main,
            args=(child_conn, config, index, owners, barriers),
            name=f"shard-{index}", daemon=True)
        proc.start()
        child_conn.close()
        return cls(index, conn, proc)

    def _lost(self, exitcode: Optional[int]) -> ShardWorkerLost:
        return ShardWorkerLost(self.index, self._barrier, exitcode)

    def _send(self, message) -> None:
        """One message to the worker; a dead peer is named."""
        try:
            self._conn.send(message)
        except (BrokenPipeError, ConnectionResetError) as exc:
            self._proc.join(timeout=5)
            raise self._lost(self._proc.exitcode) from exc
        self._sent_at = _wallclock.monotonic()

    def _receive(self):
        """The worker's next message.  A dead peer is named, not a bare
        EOF; a worker silent past the stall deadline is killed and
        lost."""
        limit = max(_STALL_FLOOR_S, _STALL_FACTOR * self._slowest)
        wait = self._sent_at + limit - _wallclock.monotonic()
        try:
            if not self._conn.poll(max(wait, 0.0)):
                self._proc.kill()
                self._proc.join(timeout=5)
                raise self._lost(None)
            tag, data = self._conn.recv()
        except (EOFError, BrokenPipeError, ConnectionResetError) as exc:
            # The pipe only closes when the worker exits, so this join
            # is bounded; it is here to read the exit code.
            self._proc.join(timeout=5)
            raise self._lost(self._proc.exitcode) from exc
        self._slowest = max(self._slowest,
                            _wallclock.monotonic() - self._sent_at)
        if tag == "error":
            raise RuntimeError(f"shard {self.index} failed:\n{data}")
        return data

    def advance(self, barrier: float):
        """The worker's bbox at ``barrier`` (it got there unasked)."""
        self._barrier = barrier
        return self._receive()

    def route(self, boxes) -> None:
        """Send every shard's box; the worker routes without waiting
        for its peers to be asked."""
        self._send(boxes)

    def outgoing(self) -> Dict[int, bytes]:
        """The worker's peer slices, pickled once each."""
        return self._receive()

    def ingest(self, barrier: float, peer_slices: List[bytes]) -> None:
        """Forward the peers' bytes; the worker ingests and runs on."""
        self._send(peer_slices)

    def finish(self) -> Dict[str, object]:
        """The worker's final payload (sent after the end barrier)."""
        return self._receive()

    def close(self) -> None:
        """Hang up and reap the worker (a closed pipe unblocks it)."""
        self._conn.close()
        self._proc.join(timeout=30)
        if self._proc.is_alive():   # pragma: no cover - crash cleanup
            self._proc.terminate()
            self._proc.join(timeout=5)


def _run_barriers(shards: Sequence,
                  barriers: List[float]) -> Tuple[List[dict], float]:
    """The barrier loop: advance, route at the source, ingest.

    Every shard routes its own outbox against every shard's resident
    bounding region, keeps its own slice and hands the driver one slice
    per peer; the driver only forwards them, and each shard merges what
    it can hear into canonical order itself.  Routing is a per-frame
    predicate and the merge key is unique, so sorting the union of the
    routed per-source slices gives exactly the routed slice of the
    sorted union.  Every shard is handed the boxes before any slice is
    collected, so workers route in parallel.  Returns the shards'
    payloads and the wall-clock instant every first box was in.
    """
    first_boxes_at = None
    for barrier in barriers:
        boxes = [shard.advance(barrier) for shard in shards]
        if first_boxes_at is None:
            first_boxes_at = _wallclock.perf_counter()
        for shard in shards:
            shard.route(boxes)
        sent = [shard.outgoing() for shard in shards]
        for index, shard in enumerate(shards):
            shard.ingest(barrier, [peers[index] for peers in sent
                                   if index in peers])
    return [shard.finish() for shard in shards], first_boxes_at


def run_sharded_scenario(config):
    """Run one scenario as ``config.shards`` cooperating shard worlds.

    The entry point ``run_scenario`` dispatches to for ``shards >= 1``;
    returns a fully merged :class:`~repro.harness.scenario.ScenarioResult`
    whose summary is invariant in the shard count, the tile shape and
    the (sound) epoch length, with the measured barrier-phase overhead
    attached as ``barrier_stats``.
    """
    from repro.harness.scenario import ScenarioResult, select_subscribers

    started = _wallclock.perf_counter()
    shards = config.shards
    epoch = resolve_epoch_s(config.duration, config.warmup)
    owners = compute_ownership(config)
    barriers = compute_barriers(config.warmup, config.duration, epoch)
    spawn = _select_backend(shards.shards) == "spawn"
    handles: List = []
    try:
        for index in range(shards.shards):
            handles.append(
                _SpawnedShard.spawn(config, index, owners, barriers)
                if spawn else _ShardWorld(config, index, owners))
        payloads, first_boxes_at = _run_barriers(handles, barriers)
    finally:
        for shard in handles:
            shard.close()

    collector = MetricsRecord.merge([p["metrics"] for p in payloads])
    published = [event for _, event in
                 sorted((entry for p in payloads for entry in
                         p["published"]), key=lambda entry: entry[0])]
    energy = (None if config.energy is None
              else EnergyRecord.merge([p["energy"] for p in payloads]))
    timeline = (None if config.faults is None
                else FaultTimeline.merge([p["timeline"] for p in payloads]))
    subscriber_ids = select_subscribers(config, RngRegistry(config.seed))
    barrier_stats = {"barriers": float(len(barriers)), "epoch_s": epoch,
                     "startup_s": first_boxes_at - started}
    for key in payloads[0]["stats"]:
        barrier_stats[key] = sum(p["stats"][key] for p in payloads)
    return ScenarioResult(
        config=config,
        collector=collector,
        published_events=published,
        subscriber_ids=subscriber_ids,
        sim_events_processed=sum(p["events"] for p in payloads),
        wallclock_s=_wallclock.perf_counter() - started,
        energy=energy,
        faults=timeline,
        barrier_stats=barrier_stats)
