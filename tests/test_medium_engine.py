"""The frame engine behind the medium: one-pass receiver resolution
over the grid's cell block + a start-ordered transmission log read from
its tail.

Four kinds of evidence, none of which needs a second engine to compare
against:

* scripted frames over parked nodes — drawn by hypothesis, and one
  dense hand-built world — with every delivery/collision verdict
  checked against the brute-force oracle in ``tests/helpers.py``;
* direct checks that the primitives reproduce per-node ``position()``
  arithmetic and the strict-overlap predicate bit for bit, on
  populations that are actually moving, and that the log's tail scans
  equal full scans of every row at the boundary instants;
* maintenance invariants of the spatial index under mobility, battery
  death and repowering, and of the transmission log's horizon;
* a fresh interpreter that simulates without ever importing numpy or
  networkx, and one that reads a cached result without importing the
  engine at all.

Whole-scenario behaviour is pinned separately in ``tests/test_golden.py``.
"""

from __future__ import annotations

import math
import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core import FrugalConfig, FrugalPubSub
from repro.harness.cache import ResultCache
from repro.harness.experiments import energy_scenario
from repro.harness.parallel import ParallelRunner
from repro.harness.presets import QUICK
from repro.harness.scenario import build_world, run_scenario
from repro.mobility import RandomWaypoint, Stationary
from repro.net import Node
from repro.net.medium import MediumConfig, WirelessMedium
from repro.net.messages import Heartbeat, SizeModel
from repro.net.radio import RadioConfig
from repro.sim.batch import LegTable, TxLog
from repro.sim.kernel import Simulator
from repro.sim.space import SpatialGrid, Vec2
from tests.helpers import (MediumStub, full_scan_busy, full_scan_verdicts,
                           oracle_outcomes, quick_rwp, small_rwp)


def hb(sender: int) -> Heartbeat:
    return Heartbeat(sender=sender, subscriptions=frozenset())


def frugal_node(node_id, sim, medium, mobility, rngs) -> Node:
    return Node(node_id, sim, medium, mobility,
                FrugalPubSub(FrugalConfig(hb_jitter=0.0)),
                rngs.stream("node", node_id))


RANGE_M = 100.0
RADIO = RadioConfig(range_override_m=RANGE_M)
AIRTIME_S = RADIO.transmission_duration_s(hb(0).size_bytes(SizeModel()))

#: Coordinates on a 25 m lattice put many pairs at *exactly* the range
#: (3-4-5 triangles), and start times on a half-airtime lattice make
#: frames touch end-to-start — the two boundaries the engine must get
#: exactly right (inclusive range, strict overlap).
_coord = st.integers(0, 12).map(lambda k: 25.0 * k)
_layout = st.lists(st.tuples(_coord, _coord), min_size=2, max_size=12)
_script = st.lists(st.tuples(st.integers(0, 11), st.integers(0, 12)),
                   min_size=1, max_size=20)


def play_script(layout, script):
    """Park a stub at every ``layout`` point, air one heartbeat per
    ``(sender, half-airtime slot)`` of ``script`` with CSMA off, and
    return ``(medium, frames, fates)`` in :func:`oracle_outcomes`'s
    vocabulary."""
    sim = Simulator()
    medium = WirelessMedium(sim, RADIO,
                            config=MediumConfig(csma_enabled=False))
    for i, (x, y) in enumerate(layout):
        medium.register(MediumStub(i, Vec2(x, y)))
    frames, messages, fates = [], [], {}
    for sender, slot in sorted(script, key=lambda item: item[1]):
        sender %= len(layout)
        start = slot * (AIRTIME_S / 2.0)
        frames.append((sender, start, start + AIRTIME_S))
        messages.append(hb(sender))
        sim.call_at(start, medium.broadcast, sender, messages[-1])

    def index_of(message) -> int:
        return next(i for i, m in enumerate(messages) if m is message)

    medium.on_receive = lambda rx, message: fates.__setitem__(
        (index_of(message), rx), "delivered")
    medium.on_drop = lambda rx, message, reason: fates.__setitem__(
        (index_of(message), rx), reason)
    sim.run_until_idle()
    return medium, frames, fates


class TestOracleAgreement:
    @settings(max_examples=150, deadline=None)
    @given(layout=_layout, script=_script)
    def test_scripted_frames_match_brute_force_oracle(self, layout, script):
        medium, frames, fates = play_script(layout, script)
        assert fates == oracle_outcomes(dict(enumerate(layout)), RANGE_M,
                                        frames)
        assert medium.frames_sent == len(frames)

    def test_dense_cell_block_matches_brute_force_oracle(self):
        """64 nodes packed into one cell block (a density no paper
        workload reaches): dozens of receivers per frame, lone frames,
        pairs and chains of overlapping ones, ids scattered so that
        neither a bucket's nor the block's iteration order is
        ascending."""
        rng = random.Random(5)
        lattice = [(20.0 * ix, 20.0 * iy)
                   for ix in range(8) for iy in range(8)]
        rng.shuffle(lattice)
        slots = [0, 0, 1, 4, 7, 7, 8, 9, 12, 15, 16, 16, 19, 22, 22, 22]
        script = [(rng.randrange(64), slot) for slot in slots]
        medium, frames, fates = play_script(lattice, script)
        assert fates == oracle_outcomes(dict(enumerate(lattice)), RANGE_M,
                                        frames)
        # Fates were recorded in callback order: frame by frame, and
        # ascending receiver id within a frame.
        assert list(fates) == sorted(fates)
        assert len(medium._grid._cells) == 4        # one 2x2 cell block
        assert len(fates) / len(frames) >= 30       # genuinely dense
        assert {"delivered", "collision"} == set(fates.values())
        assert medium.frames_delivered + medium.frames_collided \
            == len(fates)


class TestEngineInvariance:
    """Fan-out and cache replay must be invisible."""

    def test_serial_jobs4_cached_identical(self, tmp_path):
        cfg, seeds = small_rwp(), [0, 1]
        serial = ParallelRunner(jobs=1).run_seeds(cfg, seeds)
        with ParallelRunner(jobs=4) as pool:
            fanned = pool.run_seeds(cfg, seeds)
        cache = ResultCache(tmp_path / "cache")
        warm = ParallelRunner(jobs=1, cache=cache)
        first = warm.run_seeds(cfg, seeds)
        replay = warm.run_seeds(cfg, seeds)
        for multi in (fanned, first, replay):
            assert [r.summary() for r in multi.results] == \
                [r.summary() for r in serial.results]
        assert warm.stats.executed == len(seeds)  # second pass ran nothing


class TestRangeQueries:
    """nodes_within: batched interpolation == per-node scalar recompute,
    on a population that is actually moving."""

    def test_moving_population_queries_match_scalar_recompute(self):
        world = build_world(small_rwp().with_changes(n_processes=30, seed=7))
        for node in world.nodes:
            node.start()
        query_rng = random.Random(42)
        checked = 0
        for stop_at in (3.0, 9.5, 17.25):
            world.sim.run(until=stop_at)
            medium = world.medium
            for _ in range(20):
                center = Vec2(query_rng.uniform(0, 1000),
                              query_rng.uniform(0, 1000))
                radius = query_rng.uniform(10.0, 500.0)
                got = medium.nodes_within(center, radius)
                want = [node for node in
                        sorted(medium.nodes.values(), key=lambda n: n.id)
                        if node.position().distance_to(center) <= radius]
                assert got == want
                checked += len(want)
        assert checked > 50   # the queries actually exercised hits

    def test_one_pass_resolution_equals_per_node_brute_force(self):
        """LegTable.audible == ``position()`` + ``math.hypot`` per node,
        positions bitwise, on a moving population plus three planted
        edge cases: a node exactly at the range, one a single ulp
        beyond it, and one whose grid anchor is a full slack stale (in
        another cell than its true position)."""
        world = build_world(small_rwp().with_changes(n_processes=30, seed=9))
        for node in world.nodes:
            node.start()
        medium, radius = world.medium, 300.0
        slack = medium.position_slack_m
        # Centre just right of a cell boundary: the left cell column
        # holds real hits, and the stale anchor below lands in it.
        cx, cy = float(math.ceil(medium._grid.cell_size)), 500.0
        at_range = MediumStub(100, Vec2(cx - radius, cy))
        beyond = MediumStub(101, Vec2(
            cx, math.nextafter(cy + radius, math.inf)))
        stale = MediumStub(102, Vec2(cx + 0.25, cy - radius + 0.5))
        for stub in (at_range, beyond, stale):
            medium.register(stub)
        assert math.hypot(at_range.pos.x - cx, at_range.pos.y - cy) == radius
        assert math.hypot(beyond.pos.x - cx, beyond.pos.y - cy) > radius
        stale_anchor = Vec2(stale.pos.x - slack, stale.pos.y)
        medium.note_position(102, stale_anchor)
        assert medium._grid._cell_of(stale_anchor) \
            != medium._grid._cell_of(stale.pos)
        assert stale_anchor.distance_to(Vec2(cx, cy)) > radius
        movers = 0
        for stop_at in (2.0, 11.0, 23.5):
            world.sim.run(until=stop_at)
            hits = medium._legs.audible(world.sim.now, cx, cy, radius)
            want = [(n.id, n.position().x, n.position().y)
                    for n in sorted(medium.nodes.values(),
                                    key=lambda n: n.id)
                    if math.hypot(n.position().x - cx,
                                  n.position().y - cy) <= radius]
            assert hits == want
            ids = [i for i, _, _ in hits]
            assert 100 in ids and 102 in ids and 101 not in ids
            assert medium._legs.audible(world.sim.now, cx, cy, radius,
                                        exclude=100) \
                == [h for h in want if h[0] != 100]
            movers += len(want) - 2
        assert movers > 10   # the moving population contributed hits


class TestBatchPrimitives:
    """Direct unit checks of the frame path's exactness guarantees."""

    def test_legtable_interpolation_is_bitwise_exact(self):
        rng = random.Random(11)
        grid = SpatialGrid(cell_size=350.0)
        table = LegTable(grid, slack_m=50.0)
        legs = {}
        now = 12.5
        for i in range(40):
            x0, y0 = rng.uniform(0, 900), rng.uniform(0, 900)
            x1, y1 = rng.uniform(0, 900), rng.uniform(0, 900)
            t0 = rng.uniform(0, 5)
            dur = rng.uniform(0.5, 30.0)
            legs[i] = (x0, y0, x1, y1, t0, dur)
            table.note(i, legs[i])
            # Anchor up to a full slack off the true position.
            u = min(1.0, max(0.0, (now - t0) / dur))
            grid.insert(i, Vec2(x0 + (x1 - x0) * u + 30.0,
                                y0 + (y1 - y0) * u - 40.0))
        hits = table.audible(now, 450.0, 450.0, 300.0)
        hit_ids = [i for i, _, _ in hits]
        assert hit_ids == sorted(hit_ids)
        hit_pos = {i: (x, y) for i, x, y in hits}
        for i, (x0, y0, x1, y1, t0, dur) in sorted(legs.items()):
            u = min(1.0, max(0.0, (now - t0) / dur))
            px, py = x0 + (x1 - x0) * u, y0 + (y1 - y0) * u
            inside = math.hypot(px - 450.0, py - 450.0) <= 300.0
            assert (i in hit_ids) == inside
            if inside:
                assert hit_pos[i] == (px, py)   # bitwise, not approx

    def test_txlog_verdicts_match_scalar_predicate(self):
        rng = random.Random(13)
        log = TxLog(horizon_s=1.0)
        frames = []
        for start in sorted(rng.uniform(0.0, 0.05) for _ in range(30)):
            sender = rng.randrange(10)
            x, y = rng.uniform(0, 400), rng.uniform(0, 400)
            airtime = rng.uniform(0.001, 0.02)
            seq = log.add(sender, x, y, 150.0, start, airtime)
            frames.append((seq, sender, x, y, start, start + airtime))
        tx_seq, _, _, _, tx_start, tx_end = frames[7]
        receivers = [(i, rng.uniform(0, 400), rng.uniform(0, 400))
                     for i in range(12)]
        verdicts = log.corrupt_verdicts(tx_seq, tx_start, tx_end, receivers)
        for k, (rx_id, rx_x, rx_y) in enumerate(receivers):
            expect = any(
                (start < tx_end and end > tx_start and seq != tx_seq)
                and (sender == rx_id
                     or math.hypot(x - rx_x, y - rx_y) <= 150.0)
                for seq, sender, x, y, start, end in frames)
            assert bool(verdicts[k]) == expect


#: Times on a dyadic lattice (2**-13 s ~ 0.12 ms): every start, airtime
#: and their sum is exact, so frames touch end-to-start and queries land
#: exactly on ``end`` — the instants the strict predicates turn on.
_TICK = 2.0 ** -13
_frame = st.tuples(st.integers(0, 40),      # gap to the previous start
                   st.integers(1, 410),     # airtime: 0.12 .. 50 ms
                   st.integers(0, 5),       # sender
                   _coord, _coord)
_mixed = st.lists(_frame, min_size=1, max_size=40)
#: One 50 ms frame, then >= 30 frames of <= 0.4 ms each: the long one
#: still overlaps the last short one, 30-odd rows behind the tail.
_long_then_short = st.builds(
    lambda head, tail: [(0, 410, head[0], head[1], head[2])] + tail,
    st.tuples(st.integers(0, 5), _coord, _coord),
    st.lists(st.tuples(st.integers(0, 3), st.integers(1, 3),
                       st.integers(0, 5), _coord, _coord),
             min_size=30, max_size=45))
_RECEIVERS = [(i, 75.0 * (i % 3), 100.0 * (i // 3)) for i in range(6)]


class _CountingRows:
    """Stands in for ``TxLog._rows`` to count the rows a scan visits."""

    def __init__(self, rows):
        self.rows, self.visited = rows, 0

    def __reversed__(self):
        for row in reversed(self.rows):
            self.visited += 1
            yield row


class TestTxLogTailScan:
    @settings(max_examples=150, deadline=None)
    @given(script=st.one_of(_mixed, _long_then_short))
    def test_tail_scans_equal_full_scans(self, script):
        log, rows, tick = TxLog(horizon_s=1.0), [], 0
        for gap, airtime, sender, x, y in script:
            tick += gap
            start = tick * _TICK
            # Carrier sense as the medium asks it: at the send instant,
            # against the frames added so far.
            for _, px, py in _RECEIVERS:
                assert log.busy(px, py, start) \
                    == full_scan_busy(rows, px, py, start)
            seq = log.add(sender, x, y, RANGE_M, start, airtime * _TICK)
            rows.append((seq, sender, x, y, RANGE_M, start,
                         start + airtime * _TICK))
        assert len(log) == len(rows)    # nothing aged past the horizon
        for seq, _, _, _, _, start, end in rows:
            verdicts = log.corrupt_verdicts(seq, start, end, _RECEIVERS)
            want = full_scan_verdicts(rows, seq, start, end, _RECEIVERS)
            assert (verdicts or [False] * len(_RECEIVERS)) == want
            if verdicts is None:        # "nothing overlapped" is literal
                assert not any(o_start < end and o_end > start
                               for o_seq, _, _, _, _, o_start, o_end in rows
                               if o_seq != seq)
            for now in (start, end, end - _TICK):
                for _, px, py in _RECEIVERS:
                    assert log.busy(px, py, now) \
                        == full_scan_busy(rows, px, py, now)

    def test_boundary_instants(self):
        """``now == end`` is idle, ``tx_start == other.end`` is no clash,
        one tick earlier is both — and a frame never clashes with
        itself.  The second frame is shorter than the longest airtime,
        so its row is still examined at its own end instant."""
        log = TxLog(horizon_s=1.0)
        first = log.add(0, 0.0, 0.0, RANGE_M, 0.0, 8 * _TICK)
        second = log.add(1, 10.0, 0.0, RANGE_M, 8 * _TICK, 4 * _TICK)
        here = [(2, 5.0, 0.0)]
        assert log.busy(5.0, 0.0, 7 * _TICK)
        assert log.busy(5.0, 0.0, 11 * _TICK)
        assert not log.busy(5.0, 0.0, 12 * _TICK)
        assert log.corrupt_verdicts(first, 0.0, 8 * _TICK, here) is None
        assert log.corrupt_verdicts(second, 8 * _TICK, 12 * _TICK,
                                    here) is None
        log.add(2, 500.0, 0.0, RANGE_M, 11 * _TICK, 8 * _TICK)
        assert log.corrupt_verdicts(second, 8 * _TICK, 12 * _TICK,
                                    [(0, 5.0, 0.0), (2, 5.0, 0.0)]) \
            == [False, True]            # out of range; half duplex

    def test_scan_stops_one_max_airtime_behind_the_instant(self):
        """The point of the start order: a question about ``now`` reads
        the rows younger than ``now - max_airtime`` plus the one that
        ends the scan, however long the log is — and the row with
        ``start + max_airtime == now`` exactly is that stop row."""
        log = TxLog(horizon_s=10.0)
        for k in range(1000):
            log.add(k % 7, 5000.0, 5000.0, RANGE_M, k * _TICK, 4 * _TICK)
        now = 999 * _TICK
        counted = log._rows = _CountingRows(log._rows)
        assert not log.busy(0.0, 0.0, now)
        assert counted.visited == 5     # starts 999..996, stop row 995
        counted.visited = 0
        assert log.corrupt_verdicts(500, 500 * _TICK, 504 * _TICK,
                                    [(9, 0.0, 0.0)]) == [False]
        assert counted.visited == 504   # 999 down to the stop row 496

    def test_add_rejects_a_decreasing_start(self):
        log = TxLog(horizon_s=1.0)
        log.add(0, 0.0, 0.0, RANGE_M, 1.0, 0.001)
        log.add(1, 0.0, 0.0, RANGE_M, 1.0, 0.001)     # equal is in order
        with pytest.raises(ValueError, match="start order"):
            log.add(2, 0.0, 0.0, RANGE_M, 0.999, 0.001)
        assert len(log) == 2


class TestGridWiring:
    def test_grid_mode_wires_mobility_pushes(self, sim, rngs):
        medium = WirelessMedium(sim, RADIO, rng=rngs.stream("medium"))
        assert medium.position_slack_m == pytest.approx(RANGE_M / 8.0)
        node = frugal_node(0, sim, medium, Stationary(position=Vec2(3, 4)),
                           rngs)
        assert node.mobility.on_move is not None
        assert node.mobility.on_leg_change is not None
        assert node.mobility.anchor_interval_m == medium.position_slack_m
        node.start()
        assert medium._grid.position(0) == Vec2(3, 4)

    def test_prestarted_mobility_is_resynced_on_wiring(self, sim, rngs):
        """Regression: a mobility model started *before* the node wires
        ``on_move`` is mid-leg with no re-anchor timer; the wiring must
        resync it or its grid anchor drifts unboundedly."""
        model = RandomWaypoint(5000.0, 5000.0, speed_min=10.0,
                               speed_max=10.0, pause_time=1.0)
        model.start(sim, rngs.stream("walker"))
        sim.run(until=5.0)            # well into the first leg
        medium = WirelessMedium(sim, RadioConfig.paper_random_waypoint(),
                                rng=rngs.stream("medium"))
        node = frugal_node(0, sim, medium, model, rngs)
        node.start()
        slack = medium.position_slack_m
        for step in range(1, 160):    # long enough to cross the leg
            sim.run(until=5.0 + step * 0.5)
            drift = medium._grid.position(0).distance_to(node.position())
            assert drift <= slack + 1e-9

    def test_anchor_never_lags_by_more_than_slack(self):
        """Mid-leg re-anchors bound the true-position drift."""
        sim = Simulator()
        model = RandomWaypoint(2000.0, 2000.0, speed_min=10.0,
                               speed_max=10.0, pause_time=1.0)
        anchors = []
        model.anchor_interval_m = 25.0
        model.on_move = anchors.append
        model.start(sim, random.Random(1))
        checked = 0
        for step in range(1, 400):
            sim.run(until=step * 0.25)
            drift = anchors[-1].distance_to(model.position())
            assert drift <= 25.0 + 1e-9
            checked += 1
        assert checked and len(anchors) > 10


class TestGridMaintenanceUnderMobility:
    def _membership_count(self, grid: SpatialGrid, obj_id: int) -> int:
        return sum(1 for bucket in grid._cells.values() if obj_id in bucket)

    def test_cell_crossing_keeps_exactly_one_entry(self):
        """A node walking across many cell boundaries occupies exactly
        one bucket at every instant (insert moves, never duplicates)."""
        grid = SpatialGrid(cell_size=10.0)
        for i in range(200):   # diagonal walk across ~30 cells
            grid.insert(42, Vec2(i * 1.5, i * 1.5))
            assert self._membership_count(grid, 42) == 1
            assert len(grid) == 1

    def test_remove_then_reinsert_is_clean(self):
        grid = SpatialGrid(cell_size=10.0)
        grid.insert(7, Vec2(5, 5))
        grid.remove(7)
        assert self._membership_count(grid, 7) == 0
        grid.insert(7, Vec2(95, 95))
        assert self._membership_count(grid, 7) == 1
        assert grid.query_radius(Vec2(95, 95), 1.0) == [7]

    def test_world_grid_has_one_entry_per_live_node(self):
        """After real mobility churned for a while, every registered node
        has exactly one grid membership and the grid holds nothing else."""
        world = build_world(quick_rwp().with_changes(seed=2))
        for node in world.nodes:
            node.start()
        world.sim.run(until=30.0)
        grid = world.medium._grid
        assert sorted(grid.ids()) == sorted(world.medium.nodes)
        for nid in world.medium.nodes:
            assert self._membership_count(grid, nid) == 1
        # Anchors are honest: nobody drifted beyond the slack distance.
        slack = world.medium.position_slack_m
        for nid, node in world.medium.nodes.items():
            assert grid.position(nid).distance_to(node.position()) \
                <= slack + 1e-9

    def test_power_down_stops_anchor_pushes_and_repower_resumes(
            self, sim, rngs):
        """A drained device must not keep arming re-anchor timers (its
        pushes would all be discarded); repowering re-wires and re-indexes."""
        medium = WirelessMedium(sim, RadioConfig.paper_random_waypoint(),
                                rng=rngs.stream("medium"))
        model = RandomWaypoint(5000.0, 5000.0, speed_min=10.0,
                               speed_max=10.0, pause_time=1.0)
        node = frugal_node(0, sim, medium, model, rngs)
        node.start()
        sim.run(until=3.0)
        node.power_down()
        assert model.on_move is None
        assert model._anchor_timer is None or not model._anchor_timer.active
        assert 0 not in medium._grid
        sim.run(until=10.0)
        node.repower()
        assert model.on_move is not None
        assert medium._grid.position(0) == node.position()
        slack = medium.position_slack_m
        for step in range(1, 40):     # anchor stays bounded again
            sim.run(until=10.0 + step * 0.5)
            drift = medium._grid.position(0).distance_to(node.position())
            assert drift <= slack + 1e-9

    def test_drained_node_leaves_the_grid(self):
        """Battery death unregisters the node from medium *and* grid,
        even though its mobility model keeps pushing anchors."""
        cfg = energy_scenario(QUICK, "neighbor-flooding",
                              battery_j=2.0, duration=60.0)
        cfg = cfg.with_changes(warmup=5.0, seed=1)
        result = run_scenario(cfg)
        depleted = set(result.energy.depleted_ids())
        assert depleted, "scenario must actually drain some batteries"
        # Re-run the world manually to inspect the live medium state.
        world = build_world(cfg)
        for node in world.nodes:
            node.start()
        world.sim.run(until=cfg.warmup + cfg.duration)
        dead = set(world.energy.record().depleted_ids())
        assert dead
        grid = world.medium._grid
        for nid in dead:
            assert nid not in world.medium.nodes
            assert nid not in grid
        for nid in world.medium.nodes:
            assert nid in grid


class TestHistoryPruning:
    def test_txlog_prunes_on_horizon(self, sim):
        """A long quiet stretch must not pin old transmissions: the log
        drops everything beyond the collision horizon on the next add."""
        medium = WirelessMedium(sim, RADIO, rng=random.Random(0))
        medium.register(MediumStub(0, Vec2(0, 0)))
        medium.register(MediumStub(1, Vec2(10, 0)))
        for _ in range(5):
            medium.broadcast(0, hb(0))
            sim.run(until=sim.now + 0.01)
        assert len(medium._txlog) == 5
        sim.run(until=120.0)
        medium.broadcast(0, hb(0))
        sim.run_until_idle()
        assert len(medium._txlog) == 1


class TestImportFootprint:
    def test_rwp_world_needs_neither_numpy_nor_networkx(self):
        """A fresh interpreter imports the harness and simulates a
        random-waypoint world without either library loaded; networkx
        arrives with the first street map, numpy never."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        script = (
            "import sys\n"
            "import repro.harness\n"
            "from repro.harness import build_world, run_scenario\n"
            "from repro.harness.scenario import CitySectionSpec\n"
            "from tests.helpers import small_rwp\n"
            "cfg = small_rwp().with_changes(duration=5.0)\n"
            "assert run_scenario(cfg).summary()['bandwidth_bytes'] > 0\n"
            "heavy = {'numpy', 'networkx'} & set(sys.modules)\n"
            "assert not heavy, heavy\n"
            "build_world(cfg.with_changes(mobility=CitySectionSpec()))\n"
            "assert 'networkx' in sys.modules\n"
            "assert 'numpy' not in sys.modules\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, root]))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_warm_cache_read_loads_no_engine(self, tmp_path):
        """A fresh interpreter imports the CLI, reads a cached energy-
        and fault-instrumented result and summarises it without loading
        the kernel, the medium, the protocol stack, mobility, rt or a
        process pool; the first protocol instantiation then loads the
        protocol module, and an unknown name is still rejected up front
        with all seven built-ins listed."""
        from repro.energy import EnergyConfig
        from repro.faults import ChurnConfig, FaultConfig
        config = small_rwp().with_changes(
            duration=5.0, energy=EnergyConfig(battery_capacity_j=40.0),
            faults=FaultConfig(churn=ChurnConfig(mean_session_s=3.0,
                                                 mean_rest_s=2.0)))
        ResultCache(tmp_path).put(run_scenario(config))
        (tmp_path / "config.pickle").write_bytes(pickle.dumps(config))
        script = (
            "import pathlib, pickle, sys\n"
            "import repro.harness.cli\n"
            "from repro.harness.cache import ResultCache\n"
            "root = pathlib.Path(sys.argv[1])\n"
            "config = pickle.loads((root / 'config.pickle').read_bytes())\n"
            "summary = ResultCache(root).get(config).summary()\n"
            "assert 'joules_per_node' in summary, summary\n"
            "assert 'availability' in summary, summary\n"
            "forbidden = {'repro.sim.kernel', 'repro.sim.batch',\n"
            "             'repro.sim.space', 'repro.sim.shard.engine',\n"
            "             'repro.net.medium', 'repro.net.node',\n"
            "             'repro.core.stack', 'repro.core.protocol',\n"
            "             'repro.baselines', 'repro.mobility', 'repro.rt',\n"
            "             'multiprocessing', 'concurrent.futures'}\n"
            "loaded = forbidden & set(sys.modules)\n"
            "assert not loaded, sorted(loaded)\n"
            "ours = [m for m in sys.modules if m.split('.')[0] == 'repro']\n"
            "assert len(ours) <= 45, sorted(ours)\n"
            "from repro.core import registry\n"
            "from repro.harness.scenario import ScenarioConfig\n"
            "registry.create('frugal', config)\n"
            "assert 'repro.core.protocol' in sys.modules\n"
            "try:\n"
            "    ScenarioConfig(n_processes=2, mobility=config.mobility,\n"
            "                   duration=5.0, protocol='nope')\n"
            "except ValueError as exc:\n"
            "    names = registry.names()\n"
            "    assert len(names) == 7, names\n"
            "    assert all(name in str(exc) for name in names), exc\n"
            "else:\n"
            "    raise AssertionError('unknown protocol accepted')\n")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
