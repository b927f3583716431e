"""Determinism suite for the parallel execution engine.

The engine's contract is strict: fanning a sweep across worker processes
must change *nothing* — per-seed summaries from ``jobs=4`` are required
to be exactly equal (``==`` on floats, not approximately) to the serial
results, in the caller's seed order, for every scenario family including
energy-instrumented ones.  The cache side of the contract: a rerun of an
already-cached sweep performs zero scenario executions.

One spawn pool is shared module-wide (session fixture) because spawning
interpreters costs seconds; every test that needs parallelism reuses it.
"""

from __future__ import annotations

import dataclasses
import pickle
import signal

import pytest

from repro.energy import DutyCycleConfig, EnergyConfig, PowerProfile
from repro.faults import (ChurnConfig, FaultConfig, FaultEvent, FaultPlan,
                          LinkLossConfig, RegionalOutage)
from repro.harness.cache import ResultCache, config_digest
from repro.harness.parallel import (EngineStats, ParallelRunner, WorkerLost,
                                    resolve_jobs)
from repro.harness.presets import Scale
from repro.harness.scenario import (CitySectionSpec, Publication,
                                    RandomWaypointSpec, ScenarioConfig,
                                    StationarySpec)
from repro.metrics import MetricsRecord
from repro.net import RadioConfig
from repro.study import Axis, build_study, run_study
from tests.helpers import SelfKillingSpec

SEEDS = [0, 1, 2, 3, 4]


def _rwp_frugal() -> ScenarioConfig:
    return ScenarioConfig(
        n_processes=8,
        mobility=RandomWaypointSpec(width=900.0, height=900.0,
                                    speed_min=10.0, speed_max=10.0),
        duration=40.0, warmup=4.0,
        subscriber_fraction=0.75,
        publications=(Publication(at=2.0, validity=30.0),))


def _stationary_gossip() -> ScenarioConfig:
    return ScenarioConfig(
        n_processes=8,
        mobility=StationarySpec(width=700.0, height=700.0),
        duration=30.0, warmup=2.0,
        protocol="gossip-flooding",
        subscriber_fraction=0.5,
        publications=(Publication(at=1.0, validity=20.0),
                      Publication(at=5.0, validity=20.0, publisher=1)))


def _city_frugal() -> ScenarioConfig:
    return ScenarioConfig(
        n_processes=6,
        mobility=CitySectionSpec(),
        duration=30.0, warmup=5.0,
        radio=RadioConfig.paper_city_section(),
        publications=(Publication(at=2.0, validity=25.0),))


def _rwp_energy() -> ScenarioConfig:
    return _rwp_frugal().with_changes(energy=EnergyConfig(
        profile=PowerProfile.power_save(),
        battery_capacity_j=30.0,
        duty_cycle=DutyCycleConfig.heartbeat_aligned(1.0, 0.5)))


def _rwp_faults() -> ScenarioConfig:
    """All four fault mechanisms at once: plan + churn + outage + loss."""
    return _rwp_frugal().with_changes(faults=FaultConfig(
        plan=FaultPlan((FaultEvent(at=5.0, kind="crash", fraction=0.25,
                                   duration=10.0),)),
        churn=ChurnConfig(mean_session_s=15.0, mean_rest_s=5.0,
                          fraction=0.5),
        outages=(RegionalOutage(at=8.0, duration=6.0,
                                center=(450.0, 450.0), radius_m=250.0),),
        loss=LinkLossConfig(link_loss_min=0.05, link_loss_max=0.15,
                            burst_rate_per_s=0.05,
                            burst_mean_duration_s=2.0,
                            burst_loss_probability=0.8)))


#: The determinism matrix: one config per scenario family, including an
#: energy-instrumented one (whose summary carries the PR-1 energy fields)
#: and a fully fault-instrumented one (plan + churn + outage + loss, the
#: PR-4 availability fields).
MATRIX = {
    "rwp-frugal": _rwp_frugal,
    "stationary-gossip": _stationary_gossip,
    "city-frugal": _city_frugal,
    "rwp-energy-dutycycle": _rwp_energy,
    "rwp-churn-faults": _rwp_faults,
}


@pytest.fixture(scope="module")
def pool():
    """One spawn pool for the whole module (workers cost seconds)."""
    with ParallelRunner(jobs=4) as runner:
        yield runner


class TestSerialParallelEquality:
    @pytest.mark.parametrize("name", sorted(MATRIX))
    def test_summaries_bit_identical(self, name, pool):
        config = MATRIX[name]()
        serial = ParallelRunner(jobs=1).run_seeds(config, SEEDS)
        fanned = pool.run_seeds(config, SEEDS)
        for ours, theirs in zip(serial.results, fanned.results):
            # Exact float equality — the whole point of the engine.
            assert ours.summary() == theirs.summary()
            assert ours.sim_events_processed == theirs.sim_events_processed
            assert ours.subscriber_ids == theirs.subscriber_ids
            assert ours.per_event_reports() == theirs.per_event_reports()
            # The records themselves, not only what they answer.
            assert isinstance(theirs.collector, MetricsRecord)
            assert (ours.collector, ours.energy, ours.faults) == \
                (theirs.collector, theirs.energy, theirs.faults)

    def test_energy_summary_fields_survive_the_pool(self, pool):
        multi = pool.run_seeds(_rwp_energy(), SEEDS[:2])
        for result in multi.results:
            summary = result.summary()
            for key in ("joules_per_node", "joules_per_delivery",
                        "lifetime_s", "survivor_fraction",
                        "survivor_reliability"):
                assert key in summary

    def test_fault_summary_fields_survive_the_pool(self, pool):
        multi = pool.run_seeds(_rwp_faults(), SEEDS[:2])
        for result in multi.results:
            summary = result.summary()
            for key in ("availability", "churn_reliability",
                        "recovery_latency_s", "downtime_s"):
                assert key in summary
            assert summary["availability"] < 1.0
            # The full timeline crosses the process boundary intact.
            assert result.faults is not None
            assert result.faults.down_intervals

    def test_aggregates_equal_too(self, pool):
        config = _rwp_frugal()
        serial = ParallelRunner(jobs=1).run_seeds(config, SEEDS)
        fanned = pool.run_seeds(config, SEEDS)
        assert serial.summary() == fanned.summary()


class TestOrdering:
    def test_results_follow_caller_seed_order(self, pool):
        seeds = [3, 0, 4, 1, 2]          # deliberately not sorted
        multi = pool.run_seeds(_rwp_frugal(), seeds)
        assert [r.config.seed for r in multi.results] == seeds

    def test_matrix_keeps_names_and_seed_order(self, pool):
        configs = {
            "frugal": _rwp_frugal(),
            "gossip": _rwp_frugal().with_changes(protocol="gossip-flooding"),
        }
        outcome = pool.run_matrix(configs, seeds=[2, 0, 1])
        assert list(outcome) == ["frugal", "gossip"]
        for multi in outcome.values():
            assert [r.config.seed for r in multi.results] == [2, 0, 1]

    def test_matrix_pairs_seeds_across_protocols(self, pool):
        """The paired-comparison property must survive the pool: the same
        seed gives the same subscriber draw for every protocol."""
        configs = {
            "frugal": _stationary_gossip().with_changes(protocol="frugal"),
            "gossip": _stationary_gossip(),
        }
        outcome = pool.run_matrix(configs, seeds=[7, 8])
        for a, b in zip(outcome["frugal"].results,
                        outcome["gossip"].results):
            assert a.config.seed == b.config.seed
            assert a.subscriber_ids == b.subscriber_ids


class TestPickleRoundTrip:
    def test_result_detaches_and_keeps_every_metric(self):
        original = ParallelRunner(jobs=1).run_seeds(_rwp_energy(), [0])
        result = original.results[0]
        clone = pickle.loads(pickle.dumps(result))
        assert clone.summary() == result.summary()
        assert clone.per_event_reports() == result.per_event_reports()
        assert clone.survivor_ids() == result.survivor_ids()
        assert clone.total_joules() == result.total_joules()
        assert clone == result
        # Plain records: the multi-megabyte world graph never tags along.
        assert len(pickle.dumps(clone)) < 100_000

    def test_config_round_trips(self):
        for factory in MATRIX.values():
            config = factory()
            assert pickle.loads(pickle.dumps(config)) == config


#: A miniature scale for the study-sweep cache test below.
NANO = Scale(
    name="nano",
    rwp_processes=8, rwp_area_m=1000.0, rwp_warmup=5.0,
    city_processes=5, city_warmup=5.0, city_publisher_rotations=1,
    seeds=2, sweep_density="coarse",
)


class TestCachedSweep:
    def test_cached_rerun_executes_zero_scenarios(self, tmp_path):
        """Rerunning a figure's study sweep with a warm cache performs
        no scenario executions at all."""
        runner = ParallelRunner(jobs=1, cache=ResultCache(tmp_path / "cache"))
        spec = build_study("fig17", NANO)
        spec = dataclasses.replace(spec, grid=(
            Axis(name="protocol", values=("frugal",)),) + spec.grid[1:])
        first = run_study(spec, runner).experiment
        cells = runner.stats.executed
        assert cells > 0
        assert runner.stats.cache_hits == 0

        runner.stats.reset()
        second = run_study(spec, runner).experiment
        assert runner.stats.executed == 0, \
            "warm rerun must answer every cell from the cache"
        assert runner.stats.cache_hits == cells
        assert second.rows == first.rows

    def test_runner_never_sizes_the_cache(self, tmp_path):
        """``ResultCache.__len__`` globs the directory: asking a cache
        for its truth value cost a scan per cell, and read an empty
        cache as no cache at all.  Only ``is not None`` may decide."""
        class Unsized(ResultCache):
            def __len__(self):
                raise AssertionError("the runner sized the cache")

        config = _rwp_frugal()
        cold = ParallelRunner(jobs=1, cache=Unsized(tmp_path))
        cold.run_seeds(config, [0])
        assert (cold.stats.executed, cold.stats.cache_hits) == (1, 0)
        warm = ParallelRunner(jobs=1, cache=Unsized(tmp_path))
        warm.run_seeds(config, [0])
        assert (warm.stats.executed, warm.stats.cache_hits) == (0, 1)

    def test_hit_reads_the_workers_summary(self, tmp_path, monkeypatch):
        """The summary is derived where the result is computed and
        stored with it: answering from the cache re-derives nothing."""
        from repro.harness import scenario
        config = _rwp_energy()
        expected = ParallelRunner(jobs=1, cache=ResultCache(tmp_path)) \
            .run_seeds(config, [0]).results[0].summary()

        def rederived(*args):
            raise AssertionError("a cache hit recomputed its summary")

        monkeypatch.setattr(scenario, "event_reliability", rederived)
        monkeypatch.setattr(scenario, "mean_reliability", rederived)
        hit = ParallelRunner(jobs=1, cache=ResultCache(tmp_path)) \
            .run_seeds(config, [0]).results[0]
        assert hit.summary() == expected

    def test_partial_cache_computes_only_missing_cells(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        config = _rwp_frugal()
        warm = ParallelRunner(jobs=1, cache=cache)
        warm.run_seeds(config, [0, 1])
        extended = ParallelRunner(jobs=1, cache=cache)
        multi = extended.run_seeds(config, [0, 1, 2, 3])
        assert extended.stats.cache_hits == 2
        assert extended.stats.executed == 2
        assert [r.config.seed for r in multi.results] == [0, 1, 2, 3]


class TestWorkerLost:
    def test_killed_worker_raises_keeps_arrivals_and_recovers(self,
                                                             tmp_path):
        """A SIGKILLed worker used to hang the sweep forever (the Pool
        replaced it and never yielded its job).  Now the run fails
        loudly, naming the lost job; what arrived first stays cached;
        and the same runner works again on the next call."""
        def hung(signum, frame):
            raise TimeoutError("a killed worker hung the sweep")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            cache = ResultCache(tmp_path / "cache")
            good = [_stationary_gossip().with_changes(seed=s)
                    for s in range(4)]
            bad = _stationary_gossip().with_changes(
                mobility=SelfKillingSpec(cache_dir=str(cache.root),
                                         after_entries=2))
            with ParallelRunner(jobs=2, cache=cache) as runner:
                with pytest.raises(WorkerLost) as lost:
                    runner.run_configs(good[:2] + [bad] + good[2:])
                assert lost.value.config_digest == config_digest(bad)
                assert lost.value.config_digest in str(lost.value)
                assert all(cache.get(c) is not None for c in good[:2])
                assert cache.get(bad) is None

                runner.stats.reset()
                again = runner.run_configs(good)
                assert [r.config.seed for r in again] == [0, 1, 2, 3]
                assert runner.stats.cache_hits == 2
                assert runner.stats.executed == 2
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


class TestValidation:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            ParallelRunner(jobs=0)

    def test_bad_worker_counts_raise_one_line(self, monkeypatch):
        """A negative count or a non-integer ``REPRO_JOBS`` is a
        one-line ValueError naming the value, not an ``int()`` trace."""
        with pytest.raises(ValueError, match="-2"):
            resolve_jobs(-2)
        monkeypatch.setenv("REPRO_JOBS", "two")
        with pytest.raises(ValueError, match="REPRO_JOBS.*'two'"):
            resolve_jobs()
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert resolve_jobs() >= 1

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ValueError):
            ParallelRunner(jobs=1).run_seeds(_rwp_frugal(), [])
        with pytest.raises(ValueError):
            ParallelRunner(jobs=1).run_matrix({"a": _rwp_frugal()}, [])

    def test_engine_stats_totals(self):
        stats = EngineStats(executed=3, cache_hits=4)
        assert stats.total == 7
        stats.reset()
        assert stats.total == 0
