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
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.harness.cache import ResultCache, config_digest
from repro.harness.experiments import ExperimentResult
from repro.harness.parallel import ParallelRunner
from repro.harness.reporting import to_csv
from repro.harness.scenario import run_scenario
from repro.sim.shard import ShardConfig, resolve_epoch_s
from repro.sim.shard.engine import ShardWorkerLost, compute_ownership
from tests.helpers import (SHARD_MATRIX as MATRIX,
                           shard_rwp_energy as _rwp_energy,
                           shard_rwp_faults as _rwp_faults,
                           shard_rwp_frugal as _rwp_frugal)

SEEDS = [0, 1]
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


class TestShardCountInvariance:
    @pytest.mark.parametrize("name", sorted(MATRIX))
    def test_summaries_bit_identical_across_k(self, name):
        config = MATRIX[name]()
        for seed in SEEDS:
            runs = [run_scenario(config.with_changes(seed=seed, shards=k))
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
        config = _rwp_frugal().with_changes(shards=4)
        owners, plan = compute_ownership(config)
        assert plan.shards == 4
        assert all(start < stop for start, stop in plan.columns)
        assert len(set(owners)) == 4

    def test_tiled_partition_is_nontrivial(self):
        """A 2x2 grid splits the same world along both axes."""
        config = _rwp_frugal().with_changes(
            shards=ShardConfig(shards=4, rows=2))
        owners, plan = compute_ownership(config)
        assert plan.rows == 2 and plan.cols == 2
        assert len(set(owners)) == 4


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
    result, which is what licenses ``epoch_s="auto"``."""

    @pytest.mark.parametrize("name", sorted(LADDER))
    def test_epoch_length_is_unobservable(self, name):
        config = LADDER[name]()
        for seed in SEEDS:
            runs = [run_scenario(config.with_changes(
                        seed=seed,
                        shards=ShardConfig(shards=2, epoch_s=epoch)))
                    for epoch in EPOCHS]
            want = runs[0]
            for epoch, got in zip(EPOCHS[1:], runs[1:]):
                assert got.summary() == want.summary(), \
                    f"{name} seed {seed}: epoch={epoch} diverged"
                assert got.per_event_reports() == want.per_event_reports()

    def test_auto_epoch_equals_its_resolved_value(self):
        config = _rwp_frugal()
        auto = ShardConfig(shards=2)
        resolved = resolve_epoch_s(auto, config.duration, config.warmup)
        assert resolved == 1.0   # min(latency 1.0, half the 34 s run)
        explicit = run_scenario(config.with_changes(
            shards=ShardConfig(shards=2, epoch_s=resolved)))
        automatic = run_scenario(config.with_changes(shards=auto))
        assert automatic.summary() == explicit.summary()

    def test_barrier_stats_are_attached(self):
        result = run_scenario(_rwp_frugal().with_changes(shards=2))
        stats = result.barrier_stats
        assert stats is not None
        assert stats["epoch_s"] == 1.0
        assert stats["barriers"] >= 34.0
        assert stats["frames_exchanged"] > 0
        for phase in ("drain_s", "merge_s", "ingest_s", "retime_s"):
            assert stats[phase] >= 0.0
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
        result = run_scenario(_rwp_faults().with_changes(shards=2))
        summary = result.summary()
        for key in ("availability", "churn_reliability",
                    "recovery_latency_s", "downtime_s"):
            assert key in summary
        assert summary["availability"] < 1.0
        assert result.faults is not None
        assert result.faults.down_intervals

    def test_energy_fields_survive_the_merge(self):
        result = run_scenario(_rwp_energy().with_changes(shards=2))
        summary = result.summary()
        for key in ("joules_per_node", "joules_per_delivery",
                    "lifetime_s", "survivor_fraction"):
            assert key in summary


class TestSpawnBackend:
    def test_spawn_matches_inproc_exactly(self, monkeypatch):
        config = _rwp_frugal().with_changes(shards=2, duration=20.0)
        monkeypatch.setenv("REPRO_SHARD_BACKEND", "inproc")
        inproc = run_scenario(config)
        monkeypatch.setenv("REPRO_SHARD_BACKEND", "spawn")
        spawned = run_scenario(config)
        assert spawned.summary() == inproc.summary()
        assert spawned.per_event_reports() == inproc.per_event_reports()
        assert spawned.sim_events_processed == inproc.sim_events_processed

    def test_killed_worker_is_named(self, monkeypatch):
        """A shard worker that dies surfaces as ``ShardWorkerLost``
        carrying its shard index and exit code — not a bare
        ``EOFError`` — and the run still reaps every sibling."""
        victim = {}

        def kill_first_child():
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                children = multiprocessing.active_children()
                if children:
                    victim["name"] = children[0].name
                    os.kill(children[0].pid, signal.SIGKILL)
                    return
                time.sleep(0.005)

        monkeypatch.setenv("REPRO_SHARD_BACKEND", "spawn")
        killer = threading.Thread(target=kill_first_child)
        started = time.monotonic()
        killer.start()
        try:
            with pytest.raises(ShardWorkerLost) as lost:
                run_scenario(_rwp_frugal().with_changes(shards=2))
        finally:
            killer.join()
        assert time.monotonic() - started < 10.0
        assert victim["name"] == f"shard-{lost.value.shard}"
        assert f"shard {lost.value.shard} " in str(lost.value)
        assert lost.value.exitcode == -signal.SIGKILL
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


class TestComposesWithEngine:
    """Sharding x (--jobs pool, result cache): still bit-identical."""

    def test_serial_equals_pooled_equals_cached(self, tmp_path):
        config = _rwp_frugal().with_changes(shards=2)
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
        config = _rwp_frugal().with_changes(shards=2)

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
        digests = {config_digest(config.with_changes(shards=k),
                                 version="pinned")
                   for k in (0, 1, 2, 4)}
        assert len(digests) == 4, \
            "different shard counts must never share a cache entry"

    def test_tiled_explicit_epoch_serial_equals_pooled_equals_cached(
            self, tmp_path):
        """The full knob stack at once — a 2x2 grid with an explicit
        0.5 s epoch — through serial, pooled and cached execution."""
        config = _rwp_frugal().with_changes(
            shards=ShardConfig(shards=4, rows=2, epoch_s=0.5))
        serial = ParallelRunner(jobs=1).run_seeds(config, SEEDS)
        with ParallelRunner(jobs=2) as pool:
            fanned = pool.run_seeds(config, SEEDS)
        cache = ResultCache(tmp_path / "cache")
        ParallelRunner(jobs=1, cache=cache).run_seeds(config, SEEDS)
        replay = ParallelRunner(jobs=1, cache=cache)
        cached = replay.run_seeds(config, SEEDS)
        assert replay.stats.executed == 0
        stripes = ParallelRunner(jobs=1).run_seeds(
            _rwp_frugal().with_changes(shards=4), SEEDS)
        for ours, pooled, hit, striped in zip(
                serial.results, fanned.results, cached.results,
                stripes.results):
            assert ours.summary() == pooled.summary()
            assert ours.summary() == hit.summary()
            # ... and the grid agrees with plain stripes bit for bit.
            assert ours.summary() == striped.summary()

    def test_tiled_csv_byte_equal_across_execution_modes(self, tmp_path):
        config = _rwp_frugal().with_changes(
            shards=ShardConfig(shards=4, rows=2, epoch_s=0.5))

        def rows_via(runner) -> ExperimentResult:
            multi = runner.run_seeds(config, SEEDS)
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
            _rwp_frugal().with_changes(shards=-1)

    def test_zero_shards_means_classic_engine(self):
        config = _rwp_frugal()
        assert not config.shards
        assert config.shards.plan_label == "off"
        assert run_scenario(config).summary() == \
            run_scenario(config.with_changes(shards=0)).summary()

    def test_ints_coerce_to_stripe_plans(self):
        config = _rwp_frugal().with_changes(shards=4)
        assert config.shards == ShardConfig(shards=4)
        assert config.shards.plan_label == "1x4"
        with pytest.raises(ValueError):
            ShardConfig.coerce(True)   # bools are not shard counts

    def test_rows_must_divide_shards(self):
        with pytest.raises(ValueError):
            ShardConfig(shards=4, rows=3)

    def test_epoch_must_be_sound(self):
        with pytest.raises(ValueError):
            ShardConfig(shards=2, epoch_s=0.0)
        with pytest.raises(ValueError):
            ShardConfig(shards=2, epoch_s=1.5)   # > latency_s: unsound
        with pytest.raises(ValueError):
            ShardConfig(shards=2, epoch_s="soon")
        assert ShardConfig(shards=2, epoch_s=1.5, latency_s=2.0)

    def test_parse_accepts_counts_and_grids(self):
        assert ShardConfig.parse("4") == ShardConfig(shards=4)
        assert ShardConfig.parse("2x2") == ShardConfig(shards=4, rows=2)
        assert ShardConfig.parse("2x2", epoch=0.5) == \
            ShardConfig(shards=4, rows=2, epoch_s=0.5)
        for bad in ("", "x", "2x", "-1", "0x3", "two"):
            with pytest.raises(ValueError):
                ShardConfig.parse(bad)

    def test_auto_epoch_is_a_pure_function_of_the_config(self):
        shards = ShardConfig(shards=2)
        assert resolve_epoch_s(shards, 30.0, 4.0) == 1.0
        assert resolve_epoch_s(shards, 1.2, 0.0) == 0.5
        assert resolve_epoch_s(shards, 0.0, 0.0) == 2.0 ** -6
        explicit = ShardConfig(shards=2, epoch_s=0.25)
        assert resolve_epoch_s(explicit, 30.0, 4.0) == 0.25
