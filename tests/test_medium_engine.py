"""The frame engine behind the medium: grid prune + exact batched
re-filter + transmission log.

Three kinds of evidence, none of which needs a second engine to compare
against:

* a hypothesis property test drives scripted frames over parked nodes
  and checks every delivery/collision verdict against the brute-force
  oracle in ``tests/helpers.py``;
* direct checks that the batch primitives reproduce per-node
  ``position()`` arithmetic and the strict-overlap predicate bit for
  bit, on populations that are actually moving;
* maintenance invariants of the spatial index under mobility, battery
  death and repowering, and of the transmission log's horizon.

Whole-scenario behaviour is pinned separately in ``tests/test_golden.py``.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

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
from tests.helpers import (MediumStub, oracle_outcomes, quick_rwp,
                           small_rwp)


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


class TestOracleAgreement:
    @settings(max_examples=150, deadline=None)
    @given(layout=_layout, script=_script)
    def test_scripted_frames_match_brute_force_oracle(self, layout, script):
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
        assert fates == oracle_outcomes(dict(enumerate(layout)), RANGE_M,
                                        frames)
        assert medium.frames_sent == len(frames)


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


class TestBatchPrimitives:
    """Direct unit checks of the numpy engine's exactness guarantees."""

    def test_legtable_interpolation_is_bitwise_exact(self):
        rng = random.Random(11)
        table = LegTable()
        legs = {}
        for i in range(40):
            x0, y0 = rng.uniform(0, 900), rng.uniform(0, 900)
            x1, y1 = rng.uniform(0, 900), rng.uniform(0, 900)
            t0 = rng.uniform(0, 5)
            dur = rng.uniform(0.5, 30.0)
            legs[i] = (x0, y0, x1, y1, t0, dur)
            table.note(i, legs[i])
        now = 12.5
        hits = table.audible(sorted(legs), now, 450.0, 450.0, 300.0)
        hit_ids = [i for i, _ in hits]
        for i, (x0, y0, x1, y1, t0, dur) in sorted(legs.items()):
            u = min(1.0, max(0.0, (now - t0) / dur))
            px, py = x0 + (x1 - x0) * u, y0 + (y1 - y0) * u
            inside = math.hypot(px - 450.0, py - 450.0) <= 300.0
            assert (i in hit_ids) == inside
            if inside:
                pos = dict(hits)[i]
                assert (pos.x, pos.y) == (px, py)   # bitwise, not approx

    def test_txlog_verdicts_match_scalar_predicate(self):
        rng = random.Random(13)
        log = TxLog(horizon_s=1.0)
        frames = []
        for _ in range(30):
            sender = rng.randrange(10)
            x, y = rng.uniform(0, 400), rng.uniform(0, 400)
            start = rng.uniform(0.0, 0.05)
            end = start + rng.uniform(0.001, 0.02)
            seq = log.add(sender, x, y, 150.0, start, end)
            frames.append((seq, sender, x, y, start, end))
        tx_seq, _, _, _, tx_start, tx_end = frames[7]
        receivers = [(i, Vec2(rng.uniform(0, 400), rng.uniform(0, 400)))
                     for i in range(12)]
        verdicts = log.corrupt_verdicts(
            tx_seq, tx_start, tx_end,
            [i for i, _ in receivers], [p for _, p in receivers])
        for k, (rx_id, rx_pos) in enumerate(receivers):
            expect = any(
                (start < tx_end and end > tx_start and seq != tx_seq)
                and (sender == rx_id
                     or math.hypot(x - rx_pos.x, y - rx_pos.y) <= 150.0)
                for seq, sender, x, y, start, end in frames)
            assert bool(verdicts[k]) == expect


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
        world.energy.finalize()
        dead = set(world.energy.depleted_ids())
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
