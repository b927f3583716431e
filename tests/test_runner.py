"""Tests for multi-seed running and aggregation (repro.harness.runner)."""

from __future__ import annotations

import math

import pytest

from repro.harness.runner import (Aggregate, MultiSeedResult, aggregate,
                                  run_matrix, run_seeds)
from repro.harness.scenario import (Publication, RandomWaypointSpec,
                                    ScenarioConfig)


def tiny_config(**changes) -> ScenarioConfig:
    base = ScenarioConfig(
        n_processes=6,
        mobility=RandomWaypointSpec(width=500.0, height=500.0,
                                    speed_min=10.0, speed_max=10.0),
        duration=40.0, warmup=2.0, seed=0,
        publications=(Publication(at=2.0, validity=30.0),))
    return base.with_changes(**changes)


class TestAggregate:
    def test_mean_and_std(self):
        agg = aggregate([1.0, 2.0, 3.0])
        assert agg.mean == 2.0
        assert agg.std == pytest.approx((2.0 / 3.0) ** 0.5)
        assert agg.n == 3

    def test_single_value(self):
        agg = aggregate([5.0])
        assert agg.mean == 5.0 and agg.std == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_non_finite_rejected_with_clear_error(self, bad):
        """One inf seed (e.g. joules_per_delivery with zero deliveries)
        must fail loudly instead of poisoning the 30-seed mean."""
        with pytest.raises(ValueError, match="non-finite"):
            aggregate([1.0, bad, 3.0])

    def test_non_finite_rejected_even_alone(self):
        with pytest.raises(ValueError, match="non-finite"):
            aggregate([float("inf")])


class _StubResult:
    """Just enough ScenarioResult surface for MultiSeedResult.summary()."""

    def __init__(self, summary):
        self._summary = summary

    def summary(self):
        return dict(self._summary)


class TestSummaryInfGuard:
    def test_by_design_inf_aggregates_to_inf_mean(self):
        """joules_per_delivery is inf for a zero-delivery seed (PR 1's
        convention); one such seed must yield an inf-mean row, not abort
        the whole sweep."""
        multi = MultiSeedResult(results=[
            _StubResult({"reliability": 0.5, "joules_per_delivery": 2.0}),
            _StubResult({"reliability": 0.0,
                         "joules_per_delivery": float("inf")}),
        ])
        summary = multi.summary()
        assert summary["reliability"].mean == 0.25     # untouched metric
        jpd = summary["joules_per_delivery"]
        assert jpd.mean == float("inf") and jpd.n == 2
        assert math.isnan(jpd.std)

    def test_nan_still_fails_loudly(self):
        multi = MultiSeedResult(results=[
            _StubResult({"reliability": float("nan")}),
            _StubResult({"reliability": 1.0}),
        ])
        with pytest.raises(ValueError, match="non-finite"):
            multi.summary()


class _CountingResult(_StubResult):
    def __init__(self, summary):
        super().__init__(summary)
        self.calls = 0

    def summary(self):
        self.calls += 1
        return super().summary()


class TestSummaryCalls:
    def test_each_result_is_summarised_once(self):
        results = [_CountingResult({"reliability": 0.5}),
                   _CountingResult({"reliability": 1.0})]
        assert MultiSeedResult(results=results).summary()[
            "reliability"].mean == 0.75
        assert [r.calls for r in results] == [1, 1]


class TestAggregateFormatting:
    """Pin __str__ exactly: reports and EXPERIMENTS.md diffs depend on it."""

    def test_small_values(self):
        assert str(aggregate([1.0, 2.0, 3.0])) == "2 ± 0.82 (n=3)"

    def test_four_significant_digits_mean_two_std(self):
        agg = Aggregate(mean=0.123456, std=0.0123, n=30)
        assert str(agg) == "0.1235 ± 0.012 (n=30)"

    def test_large_mean_switches_to_scientific(self):
        agg = Aggregate(mean=12345.678, std=0.0, n=1)
        assert str(agg) == "1.235e+04 ± 0 (n=1)"


class TestRunSeeds:
    def test_runs_once_per_seed(self):
        multi = run_seeds(tiny_config(), seeds=[1, 2, 3])
        assert len(multi.results) == 3
        assert [r.config.seed for r in multi.results] == [1, 2, 3]

    def test_summary_aggregates_all_metrics(self):
        multi = run_seeds(tiny_config(), seeds=[1, 2])
        summary = multi.summary()
        assert set(summary) == {"reliability", "bandwidth_bytes",
                                "events_sent", "duplicates", "parasites"}
        assert all(isinstance(v, Aggregate) for v in summary.values())

    def test_custom_metric(self):
        multi = run_seeds(tiny_config(), seeds=[1, 2])
        agg = multi.metric(lambda r: float(r.sim_events_processed))
        assert agg.mean > 0

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ValueError):
            run_seeds(tiny_config(), seeds=[])


class TestRunMatrix:
    def test_paired_seeds_share_mobility(self):
        """Across protocols, the same seed must produce the same
        subscriber draw — the paired-comparison property."""
        configs = {
            "frugal": tiny_config(),
            "flood": tiny_config(protocol="simple-flooding"),
        }
        outcome = run_matrix(configs, seeds=[7])
        subs_frugal = outcome["frugal"].results[0].subscriber_ids
        subs_flood = outcome["flood"].results[0].subscriber_ids
        assert subs_frugal == subs_flood

    def test_all_names_present(self):
        outcome = run_matrix({"a": tiny_config()}, seeds=[1, 2])
        assert set(outcome) == {"a"}
        assert len(outcome["a"].results) == 2
