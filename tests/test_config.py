"""Unit tests for protocol configuration (repro.core.config)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.config import (HB2BO, HB2NGC, HB_LOWER_BOUND_S,
                               INITIAL_HB_DELAY_S, X_M, FrugalConfig)
from repro.harness.presets import SMOKE
from repro.study.spec import expand
from repro.study.studies import STUDIES


class TestDefaults:
    def test_paper_section51_values(self):
        assert X_M == 40.0
        assert HB2BO == 2.0
        assert HB2NGC == 2.5
        assert FrugalConfig().hb_upper_bound == 1.0

    def test_default_hb_delay_is_fig4_15_seconds(self):
        assert INITIAL_HB_DELAY_S == 15.0

    def test_city_preset_sweeps_upper_bound(self):
        cfg = FrugalConfig.paper_city_section(hb_upper_bound=3.0)
        assert cfg.hb_upper_bound == 3.0


class TestValidation:
    @pytest.mark.parametrize("field,value", [
        ("hb_upper_bound", HB_LOWER_BOUND_S / 2),
        ("event_table_capacity", 0),
        ("neighborhood_capacity", 0),
        ("eviction_policy", "lru"),
    ])
    def test_bad_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            FrugalConfig(**{field: value})

    def test_bounds_must_be_ordered(self):
        FrugalConfig(hb_upper_bound=HB_LOWER_BOUND_S)
        with pytest.raises(ValueError, match="HB_LOWER_BOUND_S"):
            FrugalConfig(hb_upper_bound=0.0)

    def test_unbounded_event_table_allowed(self):
        assert FrugalConfig(event_table_capacity=None) \
            .event_table_capacity is None


class TestDerivedDelays:
    def test_ngc_delay_is_hb_times_factor(self):
        assert FrugalConfig().ngc_delay(2.0) == 2.0 * HB2NGC == 5.0

    def test_backoff_shrinks_with_more_events(self):
        """Fig. 1 part II: p1 with more events gets the shorter back-off."""
        cfg = FrugalConfig()
        assert cfg.backoff_delay(1.0, 3) < cfg.backoff_delay(1.0, 1)
        assert cfg.backoff_delay(1.0, 1) == 0.5
        assert cfg.backoff_delay(1.0, 2) == 0.25

    def test_backoff_requires_something_to_send(self):
        with pytest.raises(ValueError):
            FrugalConfig().backoff_delay(1.0, 0)


class TestAdaptedHbDelay:
    def test_fig8_rule_x_over_speed(self):
        cfg = FrugalConfig(hb_upper_bound=10.0)
        assert cfg.adapted_hb_delay(10.0, current=15.0) == X_M / 10.0 == 4.0

    def test_clamped_to_upper_bound(self):
        cfg = FrugalConfig(hb_upper_bound=1.0)
        assert cfg.adapted_hb_delay(10.0, current=15.0) == 1.0

    def test_clamped_to_lower_bound(self):
        cfg = FrugalConfig(hb_upper_bound=1.0)
        assert cfg.adapted_hb_delay(1000.0, current=15.0) == HB_LOWER_BOUND_S

    def test_no_speed_info_still_clamps(self):
        """Fig. 8 lines 7-8 sit outside the conditional: even a static
        network converges to the upper bound."""
        cfg = FrugalConfig(hb_upper_bound=1.0)
        assert cfg.adapted_hb_delay(None, current=15.0) == 1.0

    def test_zero_average_speed_treated_as_no_info(self):
        cfg = FrugalConfig(hb_upper_bound=1.0)
        assert cfg.adapted_hb_delay(0.0, current=15.0) == 1.0

    def test_adaptive_disabled_pins_to_upper_bound(self):
        cfg = FrugalConfig(adaptive_heartbeat=False, hb_upper_bound=5.0)
        assert cfg.adapted_hb_delay(10.0, current=2.0) == 5.0


class TestOnlySweptKnobs:
    def test_every_field_but_one_varies_in_some_study(self):
        """A value no study moves is a paper constant, not a setting:
        every ``FrugalConfig`` field must differ from its default in at
        least one cell of the declared studies.  The one exception is
        ``neighborhood_capacity``, which no study sweeps but the golden
        family ``stack-tiny-tables-churn-faults-frugal`` (``/s0`` and
        ``/s1`` in ``tests/golden_digests.json``) pins at 2."""
        default = FrugalConfig()
        swept = {
            f.name
            for study in STUDIES.values()
            for cell in expand(study.build(SMOKE))
            for f in dataclasses.fields(FrugalConfig)
            if getattr(cell.config.frugal, f.name) != getattr(default,
                                                              f.name)}
        fields = {f.name for f in dataclasses.fields(FrugalConfig)}
        assert swept == fields - {"neighborhood_capacity"}
