"""Determinism suite for the sharded-world engine (repro.sim.shard).

The engine's contract mirrors the parallel runner's: splitting one world
into K spatial shards must change *nothing* — per-seed summaries at
K = 1, 2 and 4 are required to be exactly equal (``==`` on floats, not
approximately) on every scenario family, including energy- and
fault-instrumented ones; the spawn backend must reproduce the in-process
backend bit for bit; and sharded configs must compose with the ``--jobs``
pool and the on-disk result cache without perturbing a single digit.

Worlds here are sized so the partition is non-trivial: a 1300 m side
with a 150 m radio range gives 8 grid columns, hence 4 shards of 2
columns each — every frame near a stripe border genuinely crosses
shard boundaries through the epoch-barrier exchange.

The exchange is also checked below the result level: routing at the
source commutes with the canonical merge (a property), the driver
forwards only bytes, a worker lost between its two replies at a barrier
is named, and ownership equals a replay of every node's mobility start.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import os
import signal
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness import scenario as scenario_module
from repro.harness.cache import ResultCache, config_digest
from repro.harness.experiments import ExperimentResult
from repro.harness.parallel import ParallelRunner
from repro.harness.reporting import to_csv
from repro.harness.scenario import (CityGridSpec, CitySectionSpec,
                                    FixedPositionsSpec, MobilitySpec,
                                    RandomWaypointSpec, ScenarioConfig,
                                    StationarySpec, run_scenario)
from repro.net.medium import Transmission, anchor_slack_m
from repro.net.radio import RadioConfig
from repro.sim import RngRegistry, Simulator
from repro.sim.shard import LATENCY_S, ShardConfig, resolve_epoch_s
from repro.sim.shard import engine as shard_engine
from repro.sim.shard.engine import (_EVERYWHERE, ShardFrame, ShardWorkerLost,
                                    _filter_batch, _frame_key,
                                    _SpawnedShard, compute_barriers,
                                    compute_ownership)
from repro.sim.shard.partition import ShardPlan
from repro.sim.space import Vec2
from tests.helpers import (SHARD_MATRIX as MATRIX,
                           shard_rwp_energy as _rwp_energy,
                           shard_rwp_faults as _rwp_faults,
                           shard_rwp_frugal as _rwp_frugal)

SEEDS = [0, 1]
#: The two-stripe plan most tests run on.
TWO_SHARDS = ShardConfig(shards=2)
SHARD_COUNTS = [1, 2, 4]
#: The epoch-invariance ladder: every sound barrier spacing must yield
#: bit-identical results (0.1 is deliberately not binary-exact).
EPOCHS = [0.1, 0.25, 1.0]
#: The tile-shape ladder at K=4: horizontal bands, a grid, stripes.
PLANS = [(4, 4), (4, 2), (4, 1)]   # (shards, rows) = 4x1, 2x2, 1x4


@pytest.fixture(autouse=True)
def _inproc_backend(monkeypatch):
    """Default every test to the deterministic in-process backend; the
    spawn test overrides this explicitly."""
    monkeypatch.setenv("REPRO_SHARD_BACKEND", "inproc")


def _force_epoch(monkeypatch, epoch: float) -> None:
    """Force the barrier spacing of runs in this process.  The spacing
    is derived, not configured, so the ladders below patch the engine's
    one call to :func:`resolve_epoch_s` (spawned ``--jobs`` workers
    import the engine afresh and keep the derived spacing)."""
    monkeypatch.setattr(shard_engine, "resolve_epoch_s",
                        lambda *args: epoch)


def _signal_first_worker(monkeypatch, signum: int) -> dict:
    """Make the run's first shard worker receive ``signum`` right after
    it starts, and return the dict its process name lands in.

    A wrapper around :meth:`_SpawnedShard.spawn` rather than a polling
    thread: deterministic, and no thread is alive when the driver forks.
    """
    victim = {}
    spawn = _SpawnedShard.spawn.__func__

    def signalling_spawn(cls, *args):
        shard = spawn(cls, *args)
        if not victim:
            victim["name"] = shard._proc.name
            os.kill(shard._proc.pid, signum)
        return shard

    monkeypatch.setattr(_SpawnedShard, "spawn", classmethod(signalling_spawn))
    return victim


class TestShardCountInvariance:
    @pytest.mark.parametrize("name", sorted(MATRIX))
    def test_summaries_bit_identical_across_k(self, name):
        config = MATRIX[name]()
        for seed in SEEDS:
            runs = [run_scenario(config.with_changes(
                        seed=seed, shards=ShardConfig(shards=k)))
                    for k in SHARD_COUNTS]
            want = runs[0]
            for k, got in zip(SHARD_COUNTS[1:], runs[1:]):
                # Exact float equality — the whole point of the engine.
                assert got.summary() == want.summary(), \
                    f"{name} seed {seed}: K={k} diverged from K=1"
                assert got.subscriber_ids == want.subscriber_ids
                assert got.per_event_reports() == want.per_event_reports()

    def test_partition_is_nontrivial(self):
        """The test world really splits: 4 shards, every one populated."""
        config = _rwp_frugal().with_changes(shards=ShardConfig(shards=4))
        owners = compute_ownership(config)
        _, plan = _replayed_ownership(config)
        assert plan.shards == 4
        assert all(start < stop for start, stop in plan.columns)
        assert len(set(owners)) == 4

    def test_tiled_partition_is_nontrivial(self):
        """A 2x2 grid splits the same world along both axes."""
        config = _rwp_frugal().with_changes(
            shards=ShardConfig(shards=4, rows=2))
        owners = compute_ownership(config)
        _, plan = _replayed_ownership(config)
        assert plan.rows == 2 and plan.cols == 2
        assert len(set(owners)) == 4

    def test_tiled_partition_with_the_top_row_at_y_zero(self):
        """A population whose highest node sits at exactly y = 0 still
        has a y extent: one tile per corner of the 400 m x 300 m box."""
        config = ScenarioConfig(
            n_processes=4,
            mobility=FixedPositionsSpec(
                ((0.0, -300.0), (400.0, -300.0), (0.0, 0.0), (400.0, 0.0))),
            radio=RadioConfig(range_override_m=100.0),
            duration=4.0, warmup=0.0,
            shards=ShardConfig(shards=4, rows=2))
        owners = compute_ownership(config)
        _, plan = _replayed_ownership(config)
        assert (plan.min_y, plan.max_y) == (-300.0, 0.0)
        assert owners == [0, 1, 2, 3]
        assert run_scenario(config).summary() == \
            run_scenario(config.with_changes(
                shards=ShardConfig(shards=1))).summary()


#: Families the epoch- and tile-invariance ladders cover (the ISSUE's
#: rwp-frugal / energy / churn-faults trio).
LADDER = {
    "rwp-frugal": _rwp_frugal,
    "rwp-energy-dutycycle": _rwp_energy,
    "rwp-churn-faults": _rwp_faults,
}


class TestEpochInvariance:
    """Barrier spacing must be unobservable: the retimed exchange makes
    every sound epoch — binary-exact or not — produce the identical
    result, which is why the spacing is derived, not configured."""

    @pytest.mark.parametrize("name", sorted(LADDER))
    def test_epoch_length_is_unobservable(self, name, monkeypatch):
        config = LADDER[name]().with_changes(shards=TWO_SHARDS)
        for seed in SEEDS:
            runs = []
            for epoch in EPOCHS:
                _force_epoch(monkeypatch, epoch)
                runs.append(run_scenario(config.with_changes(seed=seed)))
                assert runs[-1].barrier_stats["epoch_s"] == epoch
            want = runs[0]
            for epoch, got in zip(EPOCHS[1:], runs[1:]):
                assert got.summary() == want.summary(), \
                    f"{name} seed {seed}: epoch={epoch} diverged"
                assert got.per_event_reports() == want.per_event_reports()

    def test_auto_epoch_equals_its_resolved_value(self, monkeypatch):
        """The derived spacing is the one a run uses, and forcing that
        same spacing (the ladders' mechanism) changes nothing."""
        config = _rwp_frugal().with_changes(shards=TWO_SHARDS)
        resolved = resolve_epoch_s(config.duration, config.warmup)
        assert resolved == 1.0   # min(latency 1.0, half the 34 s run)
        automatic = run_scenario(config)
        assert automatic.barrier_stats["epoch_s"] == resolved
        _force_epoch(monkeypatch, resolved)
        assert run_scenario(config).summary() == automatic.summary()

    def test_barrier_stats_are_attached(self):
        result = run_scenario(_rwp_frugal().with_changes(shards=TWO_SHARDS))
        stats = result.barrier_stats
        assert stats is not None
        assert stats["epoch_s"] == 1.0
        assert stats["barriers"] >= 34.0
        assert stats["frames_exchanged"] > 0
        for phase in ("drain_s", "merge_s", "ingest_s", "retime_s"):
            assert stats[phase] >= 0.0
        assert 0.0 <= stats["startup_s"] < result.wallclock_s
        assert run_scenario(_rwp_frugal()).barrier_stats is None


class TestTileShapeInvariance:
    """Partition geometry must be unobservable: stripes, horizontal
    bands and grids of the same world agree bit for bit."""

    @pytest.mark.parametrize("name", sorted(LADDER))
    def test_plans_agree_bit_for_bit(self, name):
        config = LADDER[name]()
        for seed in SEEDS:
            runs = [run_scenario(config.with_changes(
                        seed=seed,
                        shards=ShardConfig(shards=shards, rows=rows)))
                    for shards, rows in PLANS]
            want = runs[0]
            for (shards, rows), got in zip(PLANS[1:], runs[1:]):
                assert got.summary() == want.summary(), \
                    f"{name} seed {seed}: plan {rows}x{shards // rows} " \
                    f"diverged"
                assert got.per_event_reports() == want.per_event_reports()

    def test_fault_timeline_survives_the_merge(self):
        result = run_scenario(_rwp_faults().with_changes(shards=TWO_SHARDS))
        summary = result.summary()
        for key in ("availability", "churn_reliability",
                    "recovery_latency_s", "downtime_s"):
            assert key in summary
        assert summary["availability"] < 1.0
        assert result.faults is not None
        assert result.faults.down_intervals

    def test_energy_fields_survive_the_merge(self):
        result = run_scenario(_rwp_energy().with_changes(shards=TWO_SHARDS))
        summary = result.summary()
        for key in ("joules_per_node", "joules_per_delivery",
                    "lifetime_s", "survivor_fraction"):
            assert key in summary


class TestSpawnBackend:
    def test_spawn_matches_inproc_exactly(self, monkeypatch):
        config = _rwp_frugal().with_changes(shards=TWO_SHARDS, duration=20.0)
        monkeypatch.setenv("REPRO_SHARD_BACKEND", "inproc")
        inproc = run_scenario(config)
        monkeypatch.setenv("REPRO_SHARD_BACKEND", "spawn")
        spawned = run_scenario(config)
        assert spawned.summary() == inproc.summary()
        assert spawned.per_event_reports() == inproc.per_event_reports()
        assert spawned.sim_events_processed == inproc.sim_events_processed
        for key in ("barriers", "frames_exchanged"):
            assert spawned.barrier_stats[key] == inproc.barrier_stats[key]

    def test_driver_forwards_only_bytes(self, monkeypatch):
        """The driver hands every peer slice on as the pickled bytes
        the worker sent — it never builds a ``ShardFrame`` itself."""
        forwarded = []
        ingest = _SpawnedShard.ingest

        def recording_ingest(self, barrier, peer_slices):
            forwarded.extend(peer_slices)
            return ingest(self, barrier, peer_slices)

        monkeypatch.setenv("REPRO_SHARD_BACKEND", "spawn")
        monkeypatch.setattr(_SpawnedShard, "ingest", recording_ingest)
        config = _rwp_frugal().with_changes(shards=TWO_SHARDS, duration=10.0)
        result = run_scenario(config)
        assert forwarded
        assert all(type(slice_) is bytes for slice_ in forwarded)
        assert result.barrier_stats["frames_exchanged"] > 0

    def test_killed_worker_is_named(self, monkeypatch):
        """A shard worker that dies surfaces as ``ShardWorkerLost``
        carrying its shard index and exit code — not a bare
        ``EOFError`` — and the run still reaps every sibling."""
        monkeypatch.setenv("REPRO_SHARD_BACKEND", "spawn")
        victim = _signal_first_worker(monkeypatch, signal.SIGKILL)
        started = time.monotonic()
        with pytest.raises(ShardWorkerLost) as lost:
            run_scenario(_rwp_frugal().with_changes(shards=TWO_SHARDS))
        assert time.monotonic() - started < 10.0
        assert victim["name"] == f"shard-{lost.value.shard}"
        assert f"shard {lost.value.shard} " in str(lost.value)
        assert lost.value.exitcode == -signal.SIGKILL
        assert multiprocessing.active_children() == []

    def test_stopped_worker_is_named(self, monkeypatch):
        """A shard worker that stops answering (SIGSTOP) surfaces as
        ``ShardWorkerLost`` naming its shard and barrier once the stall
        deadline passes, instead of blocking the run forever."""
        monkeypatch.setenv("REPRO_SHARD_BACKEND", "spawn")
        monkeypatch.setattr(shard_engine, "_STALL_FLOOR_S", 4.0)
        victim = _signal_first_worker(monkeypatch, signal.SIGSTOP)
        started = time.monotonic()
        with pytest.raises(ShardWorkerLost) as lost:
            run_scenario(_rwp_frugal().with_changes(shards=TWO_SHARDS))
        assert time.monotonic() - started < 10.0
        assert victim["name"] == f"shard-{lost.value.shard}"
        assert f"shard {lost.value.shard} " in str(lost.value)
        assert "barrier t=" in str(lost.value)
        assert lost.value.exitcode is None
        assert multiprocessing.active_children() == []

    def test_hung_up_worker_exits_while_its_sibling_runs(self):
        """A forked worker holds no copy of any driver pipe end, its own
        or a sibling's: the driver hanging up on shard 0 ends worker 0
        at once, and worker 1 runs on."""
        config = _rwp_frugal().with_changes(shards=TWO_SHARDS, duration=10.0)
        owners = compute_ownership(config)
        barriers = compute_barriers(config.warmup, config.duration, 1.0)
        shards = [_SpawnedShard.spawn(config, index, owners, barriers)
                  for index in range(2)]
        try:
            shards[0]._conn.close()
            shards[0]._proc.join(timeout=5.0)
            assert shards[0]._proc.exitcode is not None
            assert shards[1]._proc.is_alive()
        finally:
            for shard in shards:
                shard.close()
        assert multiprocessing.active_children() == []

    def test_explicit_spawn_degrades_inside_daemonic_workers(
            self, monkeypatch):
        """A --jobs pool worker cannot fork shard children; even a
        forced spawn must fall back to the bit-identical inproc
        backend instead of crashing in multiprocessing."""
        from repro.sim.shard import engine as shard_engine

        class _DaemonProcess:
            daemon = True

        monkeypatch.setenv("REPRO_SHARD_BACKEND", "spawn")
        monkeypatch.setattr(shard_engine.multiprocessing,
                            "current_process", _DaemonProcess)
        assert shard_engine._select_backend(4) == "inproc"

    def test_explicit_spawn_degrades_without_fork(self, monkeypatch):
        """Shard workers are forked; on a host without ``fork`` even a
        forced ``spawn`` runs the bit-identical inproc backend."""
        monkeypatch.setenv("REPRO_SHARD_BACKEND", "spawn")
        monkeypatch.setattr(shard_engine.multiprocessing,
                            "get_all_start_methods", lambda: ["spawn"])
        assert shard_engine._select_backend(4) == "inproc"

    def test_explicit_spawn_degrades_beside_a_live_thread(self, monkeypatch):
        """Forking beside another live thread can hand the worker a lock
        that is never released, so the driver steps shards in-process
        then (a live ``--jobs`` pool keeps its manager thread)."""
        monkeypatch.setenv("REPRO_SHARD_BACKEND", "spawn")
        assert shard_engine._select_backend(4) == "spawn"
        monkeypatch.setattr(shard_engine.threading, "active_count",
                            lambda: 2)
        assert shard_engine._select_backend(4) == "inproc"


class _StubConn:
    """The driver's end of a worker pipe, answering from a script: a
    message, ``EOFError`` (the worker exited) or ``None`` (silence)."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.sent = []

    def poll(self, timeout):
        return self.replies[0] is not None

    def recv(self):
        reply = self.replies.pop(0)
        if reply is EOFError:
            raise EOFError
        return reply

    def send(self, message):
        self.sent.append(message)

    def close(self):
        pass


class _StubProc:
    """A worker process that has exited with ``exitcode`` once joined
    (or once killed, for a silent one)."""

    def __init__(self, exitcode):
        self.exitcode = exitcode
        self.killed = False

    def join(self, timeout=None):
        pass

    def kill(self):
        self.killed = True

    def is_alive(self):
        return False


class TestSpawnedShardHandle:
    """Each barrier has two receive points (the box, then the peer
    slices); a worker lost between them is named like any other."""

    BOX = (0.0, 0.0, 10.0, 10.0)

    def test_worker_dying_between_box_and_frames_is_named(self):
        conn = _StubConn([("box", self.BOX), EOFError])
        shard = _SpawnedShard(1, conn, _StubProc(-signal.SIGKILL))
        assert shard.advance(3.0) == self.BOX
        shard.route([self.BOX, self.BOX])
        assert conn.sent == [[self.BOX, self.BOX]]
        with pytest.raises(ShardWorkerLost) as lost:
            shard.outgoing()
        assert (lost.value.shard, lost.value.barrier,
                lost.value.exitcode) == (1, 3.0, -signal.SIGKILL)

    def test_worker_silent_between_box_and_frames_is_named(
            self, monkeypatch):
        monkeypatch.setattr(shard_engine, "_STALL_FLOOR_S", 0.0)
        proc = _StubProc(None)
        shard = _SpawnedShard(0, _StubConn([("box", self.BOX), None]), proc)
        assert shard.advance(2.0) == self.BOX
        shard.route([self.BOX, None])
        with pytest.raises(ShardWorkerLost) as lost:
            shard.outgoing()
        assert proc.killed
        assert (lost.value.shard, lost.value.barrier,
                lost.value.exitcode) == (0, 2.0, None)
        assert "barrier t=2.0" in str(lost.value)


#: Keys (start, sender, seq) unique per frame, like real traffic's.
_KEYS = st.lists(
    st.tuples(st.floats(0.0, 10.0, allow_nan=False),
              st.integers(0, 20), st.integers(0, 5)),
    unique=True, max_size=40)
_COORD = st.floats(-500.0, 500.0, allow_nan=False)


def _box():
    corners = st.tuples(_COORD, _COORD, _COORD, _COORD).map(
        lambda c: (min(c[0], c[2]), min(c[1], c[3]),
                   max(c[0], c[2]), max(c[1], c[3])))
    return st.one_of(st.none(), st.just(_EVERYWHERE), corners)


class TestExchangeIdentity:
    """Routing is a per-frame predicate and the merge key is unique, so
    routing each source's outbox and sorting the union of the slices is
    the same list as routing the sorted union — the identity that lets
    shards route their own frames."""

    @settings(max_examples=200, deadline=None)
    @given(keys=_KEYS, k=st.integers(1, 4), data=st.data(), box=_box(),
           margin=st.one_of(st.none(), st.floats(0.0, 300.0)))
    def test_routing_commutes_with_the_merge(self, keys, k, data, box,
                                             margin):
        sources = [[] for _ in range(k)]
        for start, sender, seq in keys:
            tx = Transmission(
                sender=sender, sender_pos=Vec2(data.draw(_COORD),
                                               data.draw(_COORD)),
                range_m=data.draw(st.floats(0.0, 200.0)),
                start=start, end=start + 0.01, message=None)
            sources[data.draw(st.integers(0, k - 1))].append(
                ShardFrame(tx=tx, seq=seq))
        routed_then_merged = sorted(
            itertools.chain.from_iterable(
                _filter_batch(src, box, margin) for src in sources),
            key=_frame_key)
        merged_then_routed = _filter_batch(
            sorted(itertools.chain(*sources), key=_frame_key), box, margin)
        assert routed_then_merged == merged_then_routed


def _replayed_ownership(config):
    """The reference: start every node's mobility in a throwaway world
    and read its position at time zero, then plan as the engine does."""
    sim = Simulator()
    rngs = RngRegistry(config.seed)
    positions = []
    for i in range(config.n_processes):
        model = config.mobility.build(i)
        model.start(sim, rngs.stream("node", i))
        positions.append(model.position())
    range_m = config.radio.communication_range_m()
    cell = range_m + anchor_slack_m(range_m)

    def extent(values):
        lo, hi = min(values), max(values)
        return lo, (hi if hi > lo else lo + cell)

    min_x, max_x = extent([p.x for p in positions])
    min_y, max_y = extent([p.y for p in positions])
    plan = ShardPlan(min_x=min_x, max_x=max_x, shards=config.shards.shards,
                     cell_size=cell, rows=config.shards.rows,
                     min_y=min_y, max_y=max_y)
    return [plan.shard_of(p) for p in positions], plan


#: One spec per MobilitySpec class the harness defines (random
#: waypoint twice: at 0 m/s it builds stationary models).
OWNERSHIP_SPECS = {
    "rwp": RandomWaypointSpec(width=1300.0, height=1300.0, speed_min=1.0,
                              speed_max=10.0),
    "rwp-0mps": RandomWaypointSpec(width=1300.0, height=1300.0,
                                   speed_min=0.0, speed_max=0.0),
    "city-section": CitySectionSpec(),
    "city-grid": CityGridSpec(),
    "stationary": StationarySpec(width=1300.0, height=900.0),
    "fixed": FixedPositionsSpec(((0.0, 0.0), (900.0, 0.0), (0.0, 700.0),
                                 (900.0, 700.0), (450.0, 350.0))),
}


class TestOwnership:
    def test_specs_cover_every_mobility_spec(self):
        defined = {cls for cls in MobilitySpec.__subclasses__()
                   if cls.__module__ == scenario_module.__name__}
        assert {type(spec) for spec in OWNERSHIP_SPECS.values()} == defined

    @pytest.mark.parametrize("name", sorted(OWNERSHIP_SPECS))
    def test_ownership_equals_the_start_replay(self, name):
        """Drawing only the entry position assigns every node to the
        tile starting its mobility would."""
        spec = OWNERSHIP_SPECS[name]
        for seed in range(5):
            config = ScenarioConfig(
                n_processes=40, mobility=spec, duration=4.0, seed=seed,
                shards=ShardConfig(shards=4, rows=2))
            owners, _ = _replayed_ownership(config)
            assert compute_ownership(config) == owners


class TestComposesWithEngine:
    """Sharding x (--jobs pool, result cache): still bit-identical."""

    def test_serial_equals_pooled_equals_cached(self, tmp_path):
        config = _rwp_frugal().with_changes(shards=TWO_SHARDS)
        serial = ParallelRunner(jobs=1).run_seeds(config, SEEDS)
        with ParallelRunner(jobs=2) as pool:
            fanned = pool.run_seeds(config, SEEDS)
        cache = ResultCache(tmp_path / "cache")
        warm = ParallelRunner(jobs=1, cache=cache)
        warm.run_seeds(config, SEEDS)
        replay = ParallelRunner(jobs=1, cache=cache)
        cached = replay.run_seeds(config, SEEDS)
        assert replay.stats.executed == 0, \
            "warm rerun must answer every cell from the cache"
        for ours, pooled, hit in zip(serial.results, fanned.results,
                                     cached.results):
            assert ours.summary() == pooled.summary()
            assert ours.summary() == hit.summary()

    def test_csv_byte_equal_across_execution_modes(self, tmp_path):
        """The CSV a sharded sweep writes is byte-for-byte identical
        whether the seeds ran serially or through the pool."""
        config = _rwp_frugal().with_changes(shards=TWO_SHARDS)

        def rows_via(runner) -> ExperimentResult:
            multi = runner.run_seeds(config, SEEDS)
            result = ExperimentResult(
                experiment_id="shard-csv", title="csv determinism",
                parameters={"shards": 2})
            summary = multi.summary()
            result.rows.append({
                "reliability": summary["reliability"].mean,
                "bandwidth_bytes": summary["bandwidth_bytes"].mean,
                "duplicates": summary["duplicates"].mean})
            return result

        serial_csv = tmp_path / "serial.csv"
        pooled_csv = tmp_path / "pooled.csv"
        to_csv(rows_via(ParallelRunner(jobs=1)), str(serial_csv))
        with ParallelRunner(jobs=2) as pool:
            to_csv(rows_via(pool), str(pooled_csv))
        assert serial_csv.read_bytes() == pooled_csv.read_bytes()

    def test_shard_count_is_part_of_the_cache_key(self):
        config = _rwp_frugal()
        digests = {config_digest(
                       config.with_changes(shards=ShardConfig(shards=k)),
                       version="pinned")
                   for k in (0, 1, 2, 4)}
        assert len(digests) == 4, \
            "different shard counts must never share a cache entry"

    def test_tiled_explicit_epoch_serial_equals_pooled_equals_cached(
            self, tmp_path, monkeypatch):
        """A 2x2 grid with a forced 0.5 s epoch, serially and from the
        cache, against the pool's workers at the derived 1 s epoch."""
        _force_epoch(monkeypatch, 0.5)
        config = _rwp_frugal().with_changes(
            shards=ShardConfig(shards=4, rows=2))
        serial = ParallelRunner(jobs=1).run_seeds(config, SEEDS)
        with ParallelRunner(jobs=2) as pool:
            fanned = pool.run_seeds(config, SEEDS)
        cache = ResultCache(tmp_path / "cache")
        ParallelRunner(jobs=1, cache=cache).run_seeds(config, SEEDS)
        replay = ParallelRunner(jobs=1, cache=cache)
        cached = replay.run_seeds(config, SEEDS)
        assert replay.stats.executed == 0
        stripes = ParallelRunner(jobs=1).run_seeds(
            _rwp_frugal().with_changes(shards=ShardConfig(shards=4)), SEEDS)
        for ours, pooled, hit, striped in zip(
                serial.results, fanned.results, cached.results,
                stripes.results):
            assert ours.barrier_stats["epoch_s"] == 0.5
            assert hit.barrier_stats["epoch_s"] == 0.5
            assert pooled.barrier_stats["epoch_s"] == 1.0
            assert ours.summary() == pooled.summary()
            assert ours.summary() == hit.summary()
            # ... and the grid agrees with plain stripes bit for bit.
            assert ours.summary() == striped.summary()

    def test_tiled_csv_byte_equal_across_execution_modes(
            self, tmp_path, monkeypatch):
        _force_epoch(monkeypatch, 0.5)
        config = _rwp_frugal().with_changes(
            shards=ShardConfig(shards=4, rows=2))

        def rows_via(runner) -> ExperimentResult:
            multi = runner.run_seeds(config, SEEDS)
            assert {r.barrier_stats["epoch_s"] for r in multi.results} == \
                {0.5 if runner.jobs == 1 else 1.0}
            result = ExperimentResult(
                experiment_id="tile-csv", title="csv determinism",
                parameters={"shards": config.shards.plan_label})
            summary = multi.summary()
            result.rows.append({
                "reliability": summary["reliability"].mean,
                "bandwidth_bytes": summary["bandwidth_bytes"].mean,
                "duplicates": summary["duplicates"].mean})
            return result

        serial_csv = tmp_path / "serial.csv"
        pooled_csv = tmp_path / "pooled.csv"
        to_csv(rows_via(ParallelRunner(jobs=1)), str(serial_csv))
        with ParallelRunner(jobs=2) as pool:
            to_csv(rows_via(pool), str(pooled_csv))
        assert serial_csv.read_bytes() == pooled_csv.read_bytes()


class TestConfigValidation:
    def test_negative_shards_rejected(self):
        with pytest.raises(ValueError):
            ShardConfig(shards=-1)

    def test_zero_shards_means_classic_engine(self):
        config = _rwp_frugal()
        assert not config.shards
        assert config.shards.plan_label == "off"
        assert run_scenario(config).summary() == \
            run_scenario(config.with_changes(
                shards=ShardConfig(shards=0))).summary()

    def test_only_a_shard_config_is_accepted(self):
        """``ShardConfig`` is the one spelling of a plan: a plain count
        is rejected with a message naming the field."""
        assert ShardConfig(shards=4).plan_label == "1x4"
        for plain in (4, 0, True, "2x2"):
            with pytest.raises(ValueError, match="shards"):
                _rwp_frugal().with_changes(shards=plain)

    def test_rows_must_divide_shards(self):
        with pytest.raises(ValueError):
            ShardConfig(shards=4, rows=3)

    def test_epoch_must_be_sound(self):
        """The derived spacing lies in ``(0, LATENCY_S]`` — longer
        epochs would let a frame be used before the barrier that
        commits it — and is binary-exact, for any run."""
        for duration, warmup in ((0.0, 0.0), (1.2, 0.0), (30.0, 4.0),
                                 (3600.0, 60.0)):
            epoch = resolve_epoch_s(duration, warmup)
            assert 0.0 < epoch <= LATENCY_S
            assert math.log2(epoch).is_integer()

    def test_parse_accepts_counts_and_grids(self):
        assert ShardConfig.parse("4") == ShardConfig(shards=4)
        assert ShardConfig.parse("2x2") == ShardConfig(shards=4, rows=2)
        for bad in ("", "x", "2x", "-1", "0x3", "two"):
            with pytest.raises(ValueError):
                ShardConfig.parse(bad)

    def test_auto_epoch_is_a_pure_function_of_the_config(self):
        assert resolve_epoch_s(30.0, 4.0) == 1.0
        assert resolve_epoch_s(1.2, 0.0) == 0.5
        assert resolve_epoch_s(0.0, 0.0) == 2.0 ** -6
