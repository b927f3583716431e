"""Tests for the energy subsystem (repro.energy).

Covers the four layers: unit behaviour of batteries / power profiles /
the radio state machine, duty-cycle schedules, the accountant's
depletion handling (a drained node leaves the medium mid-run and stays
silent), and end-to-end scenario integration including determinism.
"""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.energy import (Battery, DutyCycleConfig, DutyCycler,
                          EnergyAccountant, EnergyConfig, EnergyModel,
                          PowerProfile, RadioState)
from repro.harness import ScenarioConfig, run_scenario
from repro.harness.scenario import build_world
from repro.net.radio import RadioConfig, dbm_to_mw
from repro.sim.kernel import Simulator
from tests.helpers import naive_energy, shard_rwp_energy


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
# Lazy window ends: the meter against a from-scratch oracle
# --------------------------------------------------------------------------

#: Power-of-two draws on a 1/64 s lattice: every product, sum and
#: time-to-empty is exact, so the comparison below is ``==``.  The last
#: profile is deliberately upside down (idle dearer than RX, RX dearer
#: than TX): there a window's *end* raises the draw.
DYADIC_PROFILES = (
    PowerProfile(tx_w=2.0, rx_w=1.0, idle_w=0.5, sleep_w=0.0),
    PowerProfile(tx_w=2.0, rx_w=1.0, idle_w=0.5, sleep_w=0.25),
    PowerProfile(tx_w=0.25, rx_w=0.5, idle_w=2.0, sleep_w=1.0),
)

_tick = st.integers(0, 640).map(lambda k: k / 64.0)
_rows = st.one_of(
    st.tuples(_tick, st.sampled_from(("tx", "rx")),
              st.integers(1, 128).map(lambda k: k / 64.0)),
    st.tuples(_tick, st.sampled_from(("sleep", "wake")), st.just(0.0)))


def live_timers(sim: Simulator, model: EnergyModel) -> int:
    """The model's own uncancelled timers in the kernel queue."""
    return sum(1 for _, _, timer in sim._queue
               if timer.callback == model._sync and not timer.cancelled)


def play(script, profile, capacity_j, until):
    """Drive a model through ``script`` on a kernel; rows that share an
    instant fire in script order."""
    sim, model = make_model(profile=profile, capacity_j=capacity_j)
    ops = {"tx": model.note_tx, "rx": model.note_rx,
           "sleep": lambda _: model.sleep(), "wake": lambda _: model.wake()}
    most_timers = 0

    def step(op, duration):
        nonlocal most_timers
        ops[op](duration)
        most_timers = max(most_timers, live_timers(sim, model))

    for time, op, duration in script:
        sim.call_at(time, step, op, duration)
    sim.run(until=until, max_events=10_000)
    model.finalize()
    return sim, model, most_timers


class TestLazyWindowEnds:
    @settings(max_examples=300, deadline=None)
    @given(script=st.lists(_rows, max_size=24).map(
               lambda rows: sorted(rows, key=lambda row: row[0])),
           profile=st.sampled_from(DYADIC_PROFILES),
           capacity_j=st.one_of(st.none(),
                                st.integers(1, 400).map(lambda k: k / 16.0)),
           until=st.integers(0, 768).map(lambda k: k / 64.0))
    # The battery empties at t = 7 exactly, inside the sync of the TX
    # note that arrives at t = 7: a dead radio opens no window.
    @example(script=[(1.0, "rx", 1.0), (7.0, "tx", 1.0)],
             profile=DYADIC_PROFILES[0], capacity_j=4.0, until=12.0)
    def test_meter_equals_edge_walking_oracle(self, script, profile,
                                              capacity_j, until):
        sim, model, most_timers = play(script, profile, capacity_j, until)
        joules, dead_at, transitions = naive_energy(script, profile,
                                                    capacity_j, until)
        assert model.joules_by_state == joules
        assert model.depleted_at == dead_at
        assert model.transitions == transitions
        if capacity_j is None:
            assert most_timers == 0 and sim.events_processed <= len(script)
        else:
            assert most_timers <= 1

    def test_mains_meter_never_touches_the_kernel(self):
        sim, model = make_model()
        sim.schedule(50.0, lambda: None)
        before = sim.pending
        for k in range(200):
            sim.run(until=0.01 * k)
            model.note_rx(0.004)
            model.note_tx(0.025 if k % 7 == 0 else 0.001)
            if k % 50 == 25:
                model.sleep()
            elif k % 50 == 30:
                model.wake()
            assert sim.pending == before
        model.reset_tallies()
        model.finalize()
        assert sim.pending == before and sim.events_processed == 0

    def test_finite_meter_keeps_exactly_one_live_timer(self):
        sim, model = make_model(capacity_j=1000.0)
        for k in range(200):
            sim.run(until=0.01 * k)
            model.note_rx(0.004)
            model.note_tx(0.025 if k % 7 == 0 else 0.001)
            assert live_timers(sim, model) == 1
        sim.run(until=10.0)
        assert live_timers(sim, model) == 1 and not model.depleted

    def test_ends_split_in_time_order_not_push_order(self):
        """An RX window pushed first but ending last: the TX end inside
        it must be charged across first."""
        sim, model = make_model(profile=DYADIC_PROFILES[0])
        model.note_rx(3.0)
        model.note_tx(1.0)
        sim.run(until=4.0)
        model.finalize()
        assert model.joules_by_state == {
            RadioState.TX: 2.0, RadioState.RX: 2.0, RadioState.IDLE: 0.5,
            RadioState.SLEEP: 0.0, RadioState.OFF: 0.0}

    def test_an_end_beyond_the_horizon_is_not_charged(self):
        sim, model = make_model(profile=DYADIC_PROFILES[0])
        sim.run(until=1.0)
        model.note_rx(5.0)
        sim.run(until=3.0)
        model.finalize()
        assert model.joules_by_state[RadioState.RX] == 2.0
        assert model.joules_by_state[RadioState.IDLE] == 0.5
        assert model.state is RadioState.RX      # the window is still open
        assert model.total_joules == 2.5

    def test_depletion_is_exact_when_a_window_end_raises_the_draw(self):
        """Time-to-empty at the RX draw overshoots once the window ends
        into a dearer state: the timer must stop at the end first."""
        deaths = []
        sim, model = make_model(profile=DYADIC_PROFILES[2], capacity_j=4.5,
                                on_depleted=deaths.append)
        model.note_rx(1.0)               # 0.5 J, then 2 W idle: 2 s more
        sim.run(until=100.0)
        assert deaths == [0] and model.depleted_at == 3.0
        assert model.joules_by_state[RadioState.RX] == 0.5
        assert model.joules_by_state[RadioState.IDLE] == 4.0

    def test_warmup_ends_survive_reset_and_revive(self):
        """A window opened before the tallies are zeroed — or before a
        dead radio is revived — still ends when it said it would."""
        sim, model = make_model(profile=DYADIC_PROFILES[0])
        sim.run(until=1.0)
        model.note_rx(2.0)
        sim.run(until=2.0)
        model.reset_tallies()
        sim.run(until=5.0)
        model.finalize()
        assert model.joules_by_state[RadioState.RX] == 1.0      # [2, 3)
        assert model.joules_by_state[RadioState.IDLE] == 1.0    # [3, 5)

        # Revival forgets the open window but not its end: the instant
        # stays a split point, visible in the last bit of the float sum.
        profile = PowerProfile(tx_w=2.0, rx_w=1.0, idle_w=0.3, sleep_w=0.0)
        sim, model = make_model(profile=profile, capacity_j=1.0)
        model.note_tx(1.9)
        sim.run(until=0.7)                       # dead at 0.5, mid-window
        assert model.depleted_at == 0.5
        model.reset_tallies()
        model.revive()
        assert model.state is RadioState.IDLE
        assert live_timers(sim, model) == 1
        sim.run(until=3.1)
        model.finalize()
        split = 0.3 * (1.9 - 0.7) + 0.3 * (3.1 - 1.9)
        assert split != 0.3 * (3.1 - 0.7)
        assert model.joules_by_state[RadioState.IDLE] == split
        assert model.joules_by_state[RadioState.TX] == 0.0

        # An end that passed while the radio lay dead is not owed a
        # timer when it is revived without a sync in between.
        sim, model = make_model(profile=DYADIC_PROFILES[0], capacity_j=0.25)
        model.note_tx(1.0)
        sim.run(until=2.0)
        assert model.depleted_at == 0.125
        model.revive()
        sim.run(until=3.0, max_events=10)
        assert model.depleted_at == 2.5 and live_timers(sim, model) == 0

    def test_negative_charge_is_rejected_on_mains_too(self):
        """Mains skips the battery, not the battery's sanity check."""
        profile = PowerProfile.power_save()
        object.__setattr__(profile, "rx_w", -1.0)    # past __post_init__
        sim, model = make_model(profile=profile)
        model.note_rx(1.0)
        sim.run(until=0.5)
        with pytest.raises(ValueError, match="negative"):
            model.finalize()

    @pytest.mark.parametrize("capacity_j, some_die", [(8.0, False),
                                                      (2.0, True)])
    def test_state_durations_sum_to_the_measurement_window(self, capacity_j,
                                                           some_die):
        """ROADMAP 3(c): per node, the time spent in each state (joules
        over draw), plus the time spent dead, is the window."""
        cfg = shard_rwp_energy()
        cfg = cfg.with_changes(energy=dataclasses.replace(
            cfg.energy, battery_capacity_j=capacity_j))
        result = run_scenario(cfg)
        profile = cfg.energy.profile
        assert bool(result.energy.deaths) == some_die
        for model in result.energy.models.values():
            powered = sum(joules / profile.draw_w(state) for state, joules
                          in model.joules_by_state.items()
                          if state is not RadioState.OFF)
            dead = (cfg.warmup + cfg.duration - model.depleted_at
                    if model.depleted else 0.0)
            assert powered + dead == pytest.approx(cfg.duration, rel=1e-9)
            assert model.joules_by_state[RadioState.OFF] == 0.0


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


#: Schedules whose awake edge is not exactly representable: ``now %
#: period`` lands an ulp short of ``awake_s`` there (t = 2.3, 4.1, 1.2,
#: 4.6, 1.9, 0.45, 0.25, 0.91, 0.33, 1.62, 2.25, 2.75 respectively).
NON_DYADIC_SCHEDULES = [
    (1.0, 0.3), (1.0, 0.1), (1.0, 0.2), (1.0, 0.6), (1.0, 0.9), (0.3, 0.5),
    (0.1, 0.5), (0.7, 0.3), (0.3, 0.1), (0.6, 0.7), (0.9, 0.5), (1.1, 0.5)]


class TestDutyCycler:
    @pytest.mark.parametrize("period_s, fraction", NON_DYADIC_SCHEDULES)
    def test_every_edge_is_strictly_later_than_the_last(self, period_s,
                                                        fraction):
        cfg = DutyCycleConfig(period_s=period_s, awake_fraction=fraction)
        sim = Simulator()
        flips = []

        class Radio:
            def wake(self):
                flips.append((sim.now, True))

            def sleep(self):
                flips.append((sim.now, False))

        DutyCycler(sim, Radio(), cfg)
        sim.run(until=130.0, max_events=10_000)
        assert abs(len(flips) - 2 * 130.0 / period_s) <= 2
        for (t0, up0), (t1, up1) in zip(flips, flips[1:]):
            assert t1 > t0 and up1 != up0
        for time, up in flips:
            assert cfg.is_awake_at(time) == up
            assert cfg.next_wake_after(time) == time if up else \
                time < cfg.next_wake_after(time) <= time + period_s


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
