"""Deterministic discrete-event simulation kernel.

The kernel is a classic heap-based event loop.  All protocol behaviour in
this repository is driven exclusively through it: message deliveries,
heartbeat tasks, back-off expirations and garbage-collection periods are all
scheduled on one :class:`Simulator`, which hands back a :class:`Timer`
handle for each.  The heap itself holds ``(time, seq, timer)`` tuples:
``seq`` is unique, so ordering is decided by C tuple comparison on the
first two fields and a :class:`Timer` is never compared.

Determinism guarantees
----------------------
Two events scheduled for the same instant fire in the order they were
scheduled (FIFO tie-breaking via a monotonically increasing sequence
number).  Given identical seeds and identical call sequences, a simulation
is bit-for-bit reproducible, which the test suite relies on.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional


class SimulationError(RuntimeError):
    """Raised on kernel misuse (scheduling in the past, running twice...)."""


class InvalidPeriod(SimulationError, ValueError):
    """A non-positive :class:`PeriodicTask` period: a kernel misuse and
    a bad argument at once (the ``io.UnsupportedOperation`` pattern)."""


class Timer:
    """A cancellable handle for a scheduled callback.

    Timers are returned by :meth:`Simulator.schedule` and
    :meth:`Simulator.call_at`.  Cancelling a fired or already-cancelled
    timer is a harmless no-op, which keeps protocol code free of
    bookkeeping branches.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "fired")

    def __init__(self, time: float, seq: int,
                 callback: Callable[..., None], args: tuple):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False

    def cancel(self) -> None:
        """Prevent the callback from firing (no-op if already fired)."""
        self.cancelled = True

    @property
    def active(self) -> bool:
        """True while the timer is pending (not fired, not cancelled)."""
        return not (self.cancelled or self.fired)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else (
            "fired" if self.fired else "pending")
        return f"<Timer t={self.time:.6f} seq={self.seq} {state}>"


class Simulator:
    """Heap-based discrete-event simulator.

    Example
    -------
    >>> sim = Simulator()
    >>> out = []
    >>> _ = sim.schedule(1.5, out.append, "hello")
    >>> sim.run(until=10.0)
    >>> out
    ['hello']
    >>> sim.now
    10.0
    """

    def __init__(self, start_time: float = 0.0):
        #: Current simulation time in seconds.  A plain attribute, read
        #: on every reception, that only :meth:`run` writes.
        self.now = float(start_time)
        self._queue: list[tuple[float, int, Timer]] = []
        self._seq = itertools.count()
        self._running = False
        self._stopped = False
        self.events_processed = 0

    @property
    def pending(self) -> int:
        """Number of timers still in the queue (including cancelled ones)."""
        return len(self._queue)

    def schedule(self, delay: float, callback: Callable[..., None],
                 *args: Any) -> Timer:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay=}")
        return self.call_at(self.now + delay, callback, *args)

    def call_at(self, time: float, callback: Callable[..., None],
                *args: Any) -> Timer:
        """Schedule ``callback(*args)`` at absolute simulation ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} before now={self.now}")
        seq = next(self._seq)
        timer = Timer(time, seq, callback, args)
        heapq.heappush(self._queue, (time, seq, timer))
        return timer

    def stop(self) -> None:
        """Stop a running simulation after the current event completes."""
        self._stopped = True

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Run the event loop.

        Parameters
        ----------
        until:
            Advance time to exactly ``until``, executing every event with
            ``time <= until``.  If omitted, runs until the queue drains.
        max_events:
            Safety valve for tests: raise :class:`SimulationError` after
            processing this many events.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        if max_events is not None and max_events <= 0:
            # A zero budget used to process one event before raising
            # (the post-decrement check below fired one iteration late);
            # an exhausted budget must reject *before* any callback runs.
            raise SimulationError(
                f"max_events budget exhausted at t={self.now}")
        self._running = True
        self._stopped = False
        budget = max_events if max_events is not None else float("inf")
        try:
            queue = self._queue
            heappop = heapq.heappop
            while queue and not self._stopped:
                time, _, head = queue[0]
                if head.cancelled:
                    # Cancelled timers — including one sitting at exactly
                    # t == until — are purged without firing and never
                    # count against the max_events budget.
                    heappop(queue)
                    continue
                if until is not None and time > until:
                    break
                heappop(queue)
                self.now = time
                head.fired = True
                head.callback(*head.args)
                self.events_processed += 1
                budget -= 1
                if budget <= 0:
                    raise SimulationError(
                        f"max_events budget exhausted at t={self.now}")
            if until is not None and not self._stopped:
                self.now = max(self.now, until)
        finally:
            self._running = False

    def run_until_idle(self, max_events: Optional[int] = None) -> None:
        """Drain the queue entirely (convenience for unit tests)."""
        self.run(until=None, max_events=max_events)


class PeriodicTask:
    """A repeating task with optional per-tick jitter.

    Real wireless stacks never fire beacons at perfectly synchronised
    instants; a little jitter is what prevents pathological repeated
    collisions.  ``jitter`` adds ``U(0, jitter)`` seconds to every tick.

    The period can be changed on the fly with :meth:`set_period` — the
    frugal protocol adapts its heartbeat period to the observed neighbour
    speed (paper Fig. 8, ``computeHBDelay``), so this is a first-class
    operation: the new period takes effect from the next tick.  ``sim``
    is any clock with ``schedule(delay, callback) -> Timer``.
    """

    def __init__(self, sim: Simulator, period: float,
                 callback: Callable[[], None],
                 jitter: float = 0.0,
                 rng=None,
                 start_delay: Optional[float] = None):
        if period <= 0:
            raise InvalidPeriod(f"period must be positive: {period=}")
        self._sim = sim
        self._period = float(period)
        self._callback = callback
        self._jitter = float(jitter)
        self._rng = rng
        self._timer: Optional[Timer] = None
        self._stopped = False
        first = self._period if start_delay is None else start_delay
        self._arm(first)

    def _draw_jitter(self) -> float:
        if self._jitter <= 0.0:
            return 0.0
        if self._rng is None:
            raise SimulationError("jitter requires an rng")
        return self._rng.uniform(0.0, self._jitter)

    def _arm(self, delay: float) -> None:
        self._timer = self._sim.schedule(
            max(0.0, delay + self._draw_jitter()), self._tick)

    def _tick(self) -> None:
        if self._stopped:
            return
        self._callback()
        if not self._stopped:
            self._arm(self._period)

    @property
    def period(self) -> float:
        """Current tick period in seconds (jitter excluded)."""
        return self._period

    def set_period(self, period: float) -> None:
        """Update the period; takes effect from the next re-arm."""
        if period <= 0:
            raise InvalidPeriod(f"period must be positive: {period=}")
        self._period = float(period)

    @property
    def running(self) -> bool:
        """True until :meth:`stop` is called."""
        return not self._stopped

    def stop(self) -> None:
        """Stop the task and cancel its pending tick."""
        self._stopped = True
        if self._timer is not None:
            self._timer.cancel()
