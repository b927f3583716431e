"""Unit tests for the discrete-event kernel (repro.sim.kernel)."""

from __future__ import annotations

import pytest

from repro.sim.kernel import PeriodicTask, SimulationError, Simulator


class TestScheduling:
    def test_schedule_runs_callback_at_time(self, sim):
        out = []
        sim.schedule(2.5, out.append, "x")
        sim.run(until=10.0)
        assert out == ["x"]
        assert sim.now == 10.0

    def test_events_run_in_time_order(self, sim):
        out = []
        sim.schedule(3.0, out.append, 3)
        sim.schedule(1.0, out.append, 1)
        sim.schedule(2.0, out.append, 2)
        sim.run(until=5.0)
        assert out == [1, 2, 3]

    def test_same_time_fifo_tie_break(self, sim):
        out = []
        for i in range(10):
            sim.schedule(1.0, out.append, i)
        sim.run(until=2.0)
        assert out == list(range(10))

    def test_call_at_absolute_time(self, sim):
        out = []
        sim.call_at(7.0, out.append, "later")
        sim.run(until=6.9)
        assert out == []
        sim.run(until=7.0)
        assert out == ["later"]

    def test_schedule_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_call_at_in_past_rejected(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run(until=5.0)
        with pytest.raises(SimulationError):
            sim.call_at(4.0, lambda: None)

    def test_zero_delay_runs_now(self, sim):
        out = []
        sim.schedule(1.0, lambda: sim.schedule(0.0, out.append, "nested"))
        sim.run(until=1.0)
        assert out == ["nested"]
        assert sim.now == 1.0

    def test_now_advances_to_until_even_without_events(self, sim):
        sim.run(until=42.0)
        assert sim.now == 42.0

    def test_events_after_until_stay_queued(self, sim):
        out = []
        sim.schedule(5.0, out.append, "late")
        sim.run(until=2.0)
        assert out == []
        sim.run(until=5.0)
        assert out == ["late"]

    def test_events_processed_counter(self, sim):
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run(until=10.0)
        assert sim.events_processed == 5


class TestCancellation:
    def test_cancelled_timer_does_not_fire(self, sim):
        out = []
        timer = sim.schedule(1.0, out.append, "no")
        timer.cancel()
        sim.run(until=2.0)
        assert out == []

    def test_cancel_after_fire_is_noop(self, sim):
        out = []
        timer = sim.schedule(1.0, out.append, "yes")
        sim.run(until=2.0)
        timer.cancel()
        assert out == ["yes"]

    def test_active_property_lifecycle(self, sim):
        timer = sim.schedule(1.0, lambda: None)
        assert timer.active
        sim.run(until=2.0)
        assert not timer.active
        other = sim.schedule(1.0, lambda: None)
        other.cancel()
        assert not other.active

    def test_cancel_from_within_event(self, sim):
        out = []
        victim = sim.schedule(2.0, out.append, "victim")
        sim.schedule(1.0, victim.cancel)
        sim.run(until=3.0)
        assert out == []


class TestRunSemantics:
    def test_run_until_idle_drains_queue(self, sim):
        out = []
        sim.schedule(1.0, lambda: sim.schedule(1.0, out.append, "deep"))
        sim.run_until_idle()
        assert out == ["deep"]
        assert sim.pending == 0

    def test_stop_halts_processing(self, sim):
        out = []
        sim.schedule(1.0, out.append, 1)
        sim.schedule(2.0, sim.stop)
        sim.schedule(3.0, out.append, 3)
        sim.run(until=10.0)
        assert out == [1]
        # The queue still holds the unprocessed event.
        sim.run(until=10.0)
        assert out == [1, 3]

    def test_max_events_budget_raises(self, sim):
        def reschedule():
            sim.schedule(1.0, reschedule)
        sim.schedule(1.0, reschedule)
        with pytest.raises(SimulationError, match="budget"):
            sim.run_until_idle(max_events=100)

    def test_reentrant_run_rejected(self, sim):
        def nested():
            sim.run(until=100.0)
        sim.schedule(1.0, nested)
        with pytest.raises(SimulationError, match="already running"):
            sim.run(until=2.0)

    def test_run_is_reusable_after_error(self, sim):
        sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.call_at(-1.0, lambda: None)
        sim.run(until=2.0)
        assert sim.events_processed == 1


class TestPeriodicTask:
    def test_fires_every_period(self, sim):
        ticks = []
        PeriodicTask(sim, 1.0, lambda: ticks.append(sim.now))
        sim.run(until=5.0)
        assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_start_delay_overrides_first_tick(self, sim):
        ticks = []
        PeriodicTask(sim, 2.0, lambda: ticks.append(sim.now),
                     start_delay=0.5)
        sim.run(until=5.0)
        assert ticks == [0.5, 2.5, 4.5]

    def test_stop_prevents_future_ticks(self, sim):
        ticks = []
        task = PeriodicTask(sim, 1.0, lambda: ticks.append(sim.now))
        sim.schedule(2.5, task.stop)
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0]
        assert not task.running

    def test_set_period_takes_effect_next_tick(self, sim):
        ticks = []
        task = PeriodicTask(sim, 1.0, lambda: ticks.append(sim.now))
        # set_period was scheduled before the t=2 tick was armed, so FIFO
        # tie-breaking runs it first: the t=2 tick re-arms at the new period.
        sim.schedule(2.0, task.set_period, 3.0)
        sim.run(until=9.0)
        assert ticks == [1.0, 2.0, 5.0, 8.0]

    def test_jitter_requires_rng(self, sim):
        with pytest.raises(SimulationError, match="rng"):
            PeriodicTask(sim, 1.0, lambda: None, jitter=0.1)

    def test_jitter_delays_within_bound(self, sim):
        import random
        ticks = []
        PeriodicTask(sim, 1.0, lambda: ticks.append(sim.now),
                     jitter=0.5, rng=random.Random(7))
        sim.run(until=20.0)
        assert len(ticks) >= 13           # at worst every 1.5 s
        gaps = [b - a for a, b in zip(ticks, ticks[1:])]
        assert all(1.0 <= g <= 1.5 + 1e-9 for g in gaps)

    def test_invalid_period_rejected(self, sim):
        with pytest.raises(SimulationError):
            PeriodicTask(sim, 0.0, lambda: None)
        task = PeriodicTask(sim, 1.0, lambda: None)
        with pytest.raises(SimulationError):
            task.set_period(-1.0)

    def test_stop_from_within_callback(self, sim):
        ticks = []
        def tick():
            ticks.append(sim.now)
            if len(ticks) == 2:
                task.stop()
        task = PeriodicTask(sim, 1.0, tick)
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0]


class TestEdgeCases:
    """Corners the parallel-engine work leans on: cancellation interacting
    with bounded runs, live period changes, and budget exhaustion."""

    def test_cancel_at_same_instant_inside_bounded_run(self, sim):
        """A timer cancelled by an earlier same-instant event during
        run(until=...) must not fire: the cancelled head is skipped
        after it has already been scheduled for this very timestamp."""
        out = []
        victims = []
        sim.schedule(1.0, lambda: victims[0].cancel())   # seq 0: fires first
        victims.append(sim.schedule(1.0, out.append, "dead"))  # seq 1
        sim.run(until=1.0)
        assert out == []
        assert sim.now == 1.0
        assert not victims[0].fired
        assert sim.events_processed == 1

    def test_cancelled_timer_beyond_until_is_purged(self, sim):
        """run(until=...) pops cancelled heads even when their time lies
        beyond the window — the queue must not accumulate tombstones."""
        victim = sim.schedule(5.0, lambda: None)
        victim.cancel()
        sim.run(until=2.0)
        assert sim.pending == 0
        assert sim.now == 2.0
        assert sim.events_processed == 0

    def test_cancelled_timer_keeps_bounded_run_exact(self, sim):
        """Cancelling the only event inside the window must not stop the
        clock short of `until`, nor fire anything on the next run."""
        out = []
        t = sim.schedule(1.0, out.append, "no")
        sim.schedule(0.5, t.cancel)
        sim.run(until=3.0)
        assert out == []
        sim.run(until=10.0)
        assert out == [] and sim.now == 10.0

    def test_set_period_from_inside_running_callback(self, sim):
        """computeHBDelay adapts the heartbeat from within the beat
        itself; the new period must govern the very next re-arm."""
        ticks = []

        def tick() -> None:
            ticks.append(sim.now)
            if len(ticks) == 2:
                task.set_period(0.5)

        task = PeriodicTask(sim, 2.0, tick)
        sim.run(until=6.0)
        assert ticks == [2.0, 4.0, 4.5, 5.0, 5.5, 6.0]
        assert task.period == 0.5

    def test_set_period_between_ticks_spares_the_armed_tick(self, sim):
        """A period change between ticks takes effect at the *next*
        re-arm: the already-armed tick still fires on the old schedule."""
        ticks = []
        task = PeriodicTask(sim, 1.0, lambda: ticks.append(sim.now))
        sim.schedule(2.5, task.set_period, 3.0)
        sim.run(until=9.0)
        assert ticks == [1.0, 2.0, 3.0, 6.0, 9.0]

    def test_max_events_exhaustion_raises_cleanly(self, sim):
        """Budget exhaustion in run_until_idle must raise, leave the
        counter exact, and leave the kernel reusable (not wedged in the
        'running' state)."""
        def reschedule() -> None:
            sim.schedule(1.0, reschedule)

        sim.schedule(1.0, reschedule)
        with pytest.raises(SimulationError, match="budget"):
            sim.run_until_idle(max_events=10)
        assert sim.events_processed == 10
        # Clean recovery: a bounded run keeps going where we left off.
        resume_at = sim.now
        sim.run(until=resume_at + 5.0)
        assert sim.events_processed == 15
        assert sim.now == resume_at + 5.0

    def test_budget_equal_to_workload_still_raises(self, sim):
        """The budget is a tripwire, not a quota: processing exactly
        max_events raises even if the queue would have drained next."""
        for i in range(3):
            sim.schedule(float(i + 1), lambda: None)
        with pytest.raises(SimulationError, match="budget"):
            sim.run_until_idle(max_events=3)

    def test_max_events_zero_raises_before_any_event(self, sim):
        """A zero budget must trip immediately — historically the
        post-decrement check fired one event late, so ``max_events=0``
        processed one event before raising."""
        out = []
        sim.schedule(1.0, out.append, "never")
        with pytest.raises(SimulationError, match="budget"):
            sim.run(until=5.0, max_events=0)
        assert out == []
        assert sim.events_processed == 0

    def test_cancelled_timer_at_until_not_counted_against_budget(self, sim):
        """A timer cancelled at exactly ``t == until`` is purged, not
        processed: it must neither fire nor consume max_events budget.
        With a budget of 2, the cancel is the only charged event — if
        the purge were charged too, the tripwire would raise."""
        out = []
        victim = sim.schedule(2.0, out.append, "dead")   # lands at until
        sim.schedule(1.0, victim.cancel)
        sim.run(until=2.0, max_events=2)   # cancel + (uncharged) purge
        assert out == []
        assert sim.now == 2.0
        assert sim.events_processed == 1
        assert sim.pending == 0


class TestDeterminism:
    def test_identical_runs_identical_trace(self):
        def trace():
            sim = Simulator()
            out = []
            def emit(x):
                out.append((sim.now, x))
                if x < 30:
                    sim.schedule(0.5, emit, x * 2)
            for i in range(5):
                sim.schedule(float(i), emit, i + 1)
            sim.run_until_idle()
            return out
        assert trace() == trace()
