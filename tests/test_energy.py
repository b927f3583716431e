"""Tests for the energy subsystem (repro.energy).

Covers the four layers: unit behaviour of batteries / power profiles /
the radio state machine, duty-cycle schedules, the accountant's
depletion handling (a drained node leaves the medium mid-run and stays
silent), and end-to-end scenario integration including determinism.
"""

from __future__ import annotations

import math

import pytest

from repro.energy import (Battery, DutyCycleConfig, EnergyAccountant,
                          EnergyConfig, EnergyModel, PowerProfile,
                          RadioState)
from repro.harness import ScenarioConfig, run_scenario
from repro.harness.scenario import build_world
from repro.net.radio import RadioConfig, dbm_to_mw
from repro.sim.kernel import Simulator


# --------------------------------------------------------------------------
# Battery
# --------------------------------------------------------------------------

class TestBattery:
    def test_mains_battery_never_drains(self):
        b = Battery()
        assert b.infinite
        assert b.discharge(1e9) == 1e9
        assert not b.drained
        assert b.time_to_empty_s(100.0) == math.inf

    def test_discharge_clamps_at_zero(self):
        b = Battery(capacity_j=10.0)
        assert b.discharge(4.0) == 4.0
        assert b.remaining_j == pytest.approx(6.0)
        assert b.discharge(100.0) == pytest.approx(6.0)
        assert b.remaining_j == 0.0
        assert b.drained

    def test_time_to_empty(self):
        b = Battery(capacity_j=10.0)
        assert b.time_to_empty_s(2.0) == pytest.approx(5.0)
        assert b.time_to_empty_s(0.0) == math.inf

    def test_recharge(self):
        b = Battery(capacity_j=10.0)
        b.discharge(10.0)
        b.recharge()
        assert b.remaining_j == 10.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Battery(capacity_j=0.0)
        with pytest.raises(ValueError):
            Battery(capacity_j=5.0, initial_j=6.0)
        with pytest.raises(ValueError):
            Battery(capacity_j=5.0).discharge(-1.0)


# --------------------------------------------------------------------------
# Power profiles
# --------------------------------------------------------------------------

class TestPowerProfile:
    def test_draws_by_state(self):
        p = PowerProfile.wifi_80211b()
        assert p.draw_w(RadioState.TX) > p.draw_w(RadioState.RX)
        assert p.draw_w(RadioState.RX) > p.draw_w(RadioState.IDLE)
        assert p.draw_w(RadioState.IDLE) > p.draw_w(RadioState.SLEEP)
        assert p.draw_w(RadioState.OFF) == 0.0

    def test_from_radio_derives_tx_draw(self):
        radio = RadioConfig(tx_power_dbm=15.0, antenna_efficiency=0.8)
        p = PowerProfile.from_radio(radio, electronics_w=1.4)
        radiated_w = dbm_to_mw(15.0) / 1000.0
        assert p.tx_w == pytest.approx(1.4 + radiated_w / 0.8)
        # More transmit power -> strictly hungrier TX state.
        hot = PowerProfile.from_radio(RadioConfig(tx_power_dbm=20.0))
        assert hot.tx_w > PowerProfile.from_radio(
            RadioConfig(tx_power_dbm=15.0)).tx_w

    def test_validation(self):
        with pytest.raises(ValueError):
            PowerProfile(tx_w=-1.0)


# --------------------------------------------------------------------------
# Radio state machine
# --------------------------------------------------------------------------

def make_model(profile=None, capacity_j=None, on_depleted=None):
    sim = Simulator()
    model = EnergyModel(0, sim, profile or PowerProfile.power_save(),
                        battery=Battery(capacity_j),
                        on_depleted=on_depleted)
    return sim, model


class TestEnergyModel:
    def test_idle_charge_accrues_on_clock(self):
        sim, model = make_model()
        sim.run(until=10.0)
        model.finalize()
        idle_w = model.profile.idle_w
        assert model.total_joules == pytest.approx(10.0 * idle_w)
        assert model.joules_by_state[RadioState.IDLE] == \
            pytest.approx(10.0 * idle_w)

    def test_tx_window_charged_at_tx_draw(self):
        sim, model = make_model()
        model.note_tx(2.0)
        sim.run(until=10.0)
        model.finalize()
        p = model.profile
        assert model.joules_by_state[RadioState.TX] == \
            pytest.approx(2.0 * p.tx_w)
        assert model.joules_by_state[RadioState.IDLE] == \
            pytest.approx(8.0 * p.idle_w)

    def test_tx_beats_rx_half_duplex(self):
        """Overlapping TX and RX windows: TX wins, the overlap is never
        double-charged."""
        sim, model = make_model()
        model.note_tx(2.0)
        model.note_rx(3.0)
        sim.run(until=3.0)
        model.finalize()
        p = model.profile
        assert model.joules_by_state[RadioState.TX] == \
            pytest.approx(2.0 * p.tx_w)
        assert model.joules_by_state[RadioState.RX] == \
            pytest.approx(1.0 * p.rx_w)

    def test_sleep_draw_and_deaf_rx(self):
        sim, model = make_model()
        model.sleep()
        model.note_rx(1.0)          # deaf radio: no RX charge
        sim.run(until=4.0)
        model.wake()
        sim.run(until=10.0)
        model.finalize()
        p = model.profile
        assert model.joules_by_state[RadioState.RX] == 0.0
        assert model.joules_by_state[RadioState.SLEEP] == \
            pytest.approx(4.0 * p.sleep_w)
        assert model.joules_by_state[RadioState.IDLE] == \
            pytest.approx(6.0 * p.idle_w)

    def test_depletion_fires_at_exact_instant(self):
        deaths = []
        profile = PowerProfile(tx_w=2.0, rx_w=1.0, idle_w=0.5, sleep_w=0.0)
        sim, model = make_model(profile=profile, capacity_j=5.0,
                                on_depleted=deaths.append)
        sim.run(until=100.0)
        # 5 J at 0.5 W idle -> dead at exactly t=10.
        assert deaths == [0]
        assert model.depleted
        assert model.depleted_at == pytest.approx(10.0)
        assert model.total_joules == pytest.approx(5.0)

    def test_depletion_accounts_for_state_changes(self):
        deaths = []
        profile = PowerProfile(tx_w=2.0, rx_w=1.0, idle_w=0.5, sleep_w=0.0)
        sim, model = make_model(profile=profile, capacity_j=5.0,
                                on_depleted=deaths.append)
        # 2 s of TX (4 J) leaves 1 J = 2 s of idle: dead at t=4.
        model.note_tx(2.0)
        sim.run(until=100.0)
        assert model.depleted_at == pytest.approx(4.0)

    def test_off_model_stops_charging(self):
        sim, model = make_model(capacity_j=1.0)
        sim.run(until=100.0)
        model.finalize()
        assert model.state is RadioState.OFF
        total_at_death = model.total_joules
        model.note_tx(5.0)
        sim.run(until=200.0)
        model.finalize()
        assert model.total_joules == total_at_death

    def test_reset_tallies_recharges(self):
        sim, model = make_model(capacity_j=100.0)
        sim.run(until=10.0)
        model.reset_tallies(recharge=True)
        assert model.total_joules == 0.0
        assert model.battery.remaining_j == 100.0


# --------------------------------------------------------------------------
# Duty cycle
# --------------------------------------------------------------------------

class TestDutyCycleConfig:
    def test_always_on_is_disabled(self):
        cfg = DutyCycleConfig.always_on()
        assert not cfg.enabled
        assert cfg.is_awake_at(123.456)

    def test_awake_windows(self):
        cfg = DutyCycleConfig(period_s=1.0, awake_fraction=0.25)
        assert cfg.enabled
        assert cfg.is_awake_at(0.0)
        assert cfg.is_awake_at(0.2)
        assert not cfg.is_awake_at(0.25)
        assert not cfg.is_awake_at(0.9)
        assert cfg.is_awake_at(1.1)

    def test_next_wake_after(self):
        cfg = DutyCycleConfig(period_s=2.0, awake_fraction=0.5)
        assert cfg.next_wake_after(0.5) == 0.5     # already awake
        assert cfg.next_wake_after(1.5) == 2.0

    def test_heartbeat_aligned(self):
        cfg = DutyCycleConfig.heartbeat_aligned(3.0, awake_fraction=0.5)
        assert cfg.period_s == 3.0
        assert cfg.awake_s == 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            DutyCycleConfig(period_s=0.0)
        with pytest.raises(ValueError):
            DutyCycleConfig(awake_fraction=0.0)
        with pytest.raises(ValueError):
            DutyCycleConfig(awake_fraction=1.5)


# --------------------------------------------------------------------------
# Scenario integration
# --------------------------------------------------------------------------

def energy_demo(seed=1, **energy_kwargs) -> ScenarioConfig:
    cfg = ScenarioConfig.random_waypoint_demo(seed=seed)
    return cfg.with_changes(energy=EnergyConfig(
        profile=PowerProfile.power_save(), **energy_kwargs))


class TestScenarioIntegration:
    def test_uninstrumented_scenario_has_no_energy(self):
        result = run_scenario(ScenarioConfig.random_waypoint_demo(seed=1))
        assert result.energy is None
        assert "joules_per_node" not in result.summary()

    def test_energy_summary_columns(self):
        result = run_scenario(energy_demo())
        summary = result.summary()
        for key in ("joules_per_node", "joules_per_delivery", "lifetime_s",
                    "survivor_fraction", "survivor_reliability"):
            assert key in summary
        assert summary["joules_per_node"] > 0
        assert summary["survivor_fraction"] == 1.0
        assert summary["lifetime_s"] == result.config.duration

    def test_joules_split_across_states_sums_to_total(self):
        result = run_scenario(energy_demo())
        by_state = result.energy.joules_by_state()
        assert sum(by_state.values()) == pytest.approx(
            result.total_joules())
        assert by_state[RadioState.TX] > 0
        assert by_state[RadioState.RX] > 0
        assert by_state[RadioState.IDLE] > 0

    def test_drained_node_detaches_and_goes_silent(self):
        """The acceptance check: a dead battery removes the node from the
        medium mid-run; it transmits nothing afterwards."""
        # 20 J at 0.2 W idle floor dies around t=95 of a 130 s run.
        cfg = energy_demo(battery_capacity_j=20.0)
        world = build_world(cfg)
        for node in world.nodes:
            node.start()
        frames_after_death: dict = {}
        death_time: dict = {}

        def on_tx(sender_id, message, size):
            for nid, t in death_time.items():
                if sender_id == nid and world.sim.now > t:
                    frames_after_death[nid] = world.sim.now

        world.medium.on_transmit = on_tx
        world.sim.run(until=cfg.warmup + cfg.duration)
        world.energy.finalize()

        assert world.energy.deaths, "battery never drained"
        for t, nid in world.energy.deaths:
            death_time[nid] = t
            assert nid not in world.medium.nodes       # detached
            node = world.nodes[nid]
            assert node.depleted and not node.alive
        assert frames_after_death == {}
        # Depleted batteries are final: no recovery.
        dead_node = world.nodes[world.energy.deaths[0][1]]
        dead_node.recover()
        assert not dead_node.alive

    def test_warmup_depletion_revived_at_measurement_start(self):
        """A battery that cannot even idle through warm-up must not
        produce a silently-dead network reported as fully alive: the
        node gets a fresh battery at measurement start, rejoins the
        medium, and its (re-)death lands inside the window."""
        # 1 J at 0.2 W idle = 5 s of life; warm-up alone is 10 s.
        cfg = energy_demo(battery_capacity_j=1.0)
        result = run_scenario(cfg)
        assert result.total_joules() > 0.0         # metering restarted
        assert result.energy.deaths                # and deaths recorded
        for t, _ in result.energy.deaths:
            assert t >= cfg.warmup                 # in-window, not warm-up
        assert result.survivor_fraction() == 0.0
        assert 0.0 < result.network_lifetime_s() < cfg.duration
        # Every node burned (about) its fresh capacity, not zero.
        for model in result.energy.models.values():
            assert model.total_joules == pytest.approx(1.0, rel=1e-6)

    def test_reliability_over_survivors(self):
        cfg = energy_demo(battery_capacity_j=20.0)
        result = run_scenario(cfg)
        assert result.energy.deaths
        assert 0.0 <= result.survivor_reliability() <= 1.0
        assert result.survivor_fraction() < 1.0
        assert result.network_lifetime_s() < result.config.duration

    def test_duty_cycle_saves_energy(self):
        always_on = run_scenario(energy_demo())
        cycled = run_scenario(energy_demo(
            duty_cycle=DutyCycleConfig(period_s=1.0, awake_fraction=0.5)))
        assert cycled.joules_per_node() < always_on.joules_per_node()
        assert cycled.energy.joules_by_state()[RadioState.SLEEP] > 0

    def test_determinism_bit_identical_tallies(self):
        """Identical seeds must yield bit-identical joule tallies."""
        cfg = energy_demo(battery_capacity_j=20.0)
        a = run_scenario(cfg)
        b = run_scenario(cfg)
        tallies_a = {i: m.joules_by_state for i, m in
                     a.energy.models.items()}
        tallies_b = {i: m.joules_by_state for i, m in
                     b.energy.models.items()}
        assert tallies_a == tallies_b          # exact, not approx
        assert a.energy.deaths == b.energy.deaths

    def test_energy_config_validation(self):
        with pytest.raises(ValueError):
            EnergyConfig(battery_capacity_j=-5.0)


# --------------------------------------------------------------------------
# Experiment functions
# --------------------------------------------------------------------------

class TestEnergyExperiments:
    @pytest.fixture(scope="class")
    def tiny(self):
        from tests.test_experiments import TINY
        return TINY

    def test_frugal_cheaper_per_delivery_than_flooding(self, tiny):
        """The headline claim, in joules: frugal spends measurably less
        energy per delivered event than neighbours'-interests flooding."""
        from repro.study import build_study, run_study
        result = run_study(build_study("energy-lifetime", tiny,
                                       batteries=(None,))).experiment
        frugal = result.filter(protocol="frugal")[0]
        flood = result.filter(protocol="neighbor-flooding")[0]
        assert frugal["joules_per_delivery"] < flood["joules_per_delivery"]
        assert frugal["joules_per_node"] < flood["joules_per_node"]

    def test_dutycycle_ablation_shape(self, tiny):
        from repro.study import build_study, run_study
        result = run_study(build_study(
            "abl-dutycycle", tiny,
            awake_fractions=(1.0, 0.5))).experiment
        assert len(result.rows) == 4          # 2 protocols x 2 fractions
        for protocol in ("frugal", "neighbor-flooding"):
            rows = result.filter(protocol=protocol)
            full = [r for r in rows if r["awake_fraction"] == 1.0][0]
            half = [r for r in rows if r["awake_fraction"] == 0.5][0]
            assert half["joules_per_node"] < full["joules_per_node"]
