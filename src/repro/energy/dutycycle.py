"""Duty-cycling policies: trading listening time for lifetime.

The only state a radio can save real power in is SLEEP, but a sleeping
radio is deaf — so duty cycling is a *protocol-visible* policy, not a
free optimisation.  The policy here is the classic synchronised-window
schedule (S-MAC style): every node is awake during the first
``awake_fraction`` of each ``period_s`` window and asleep for the rest,
with all nodes sharing the same phase.

This is the schedule the frugal protocol can exploit and the flooding
baselines cannot: frugal traffic is *reactive* (id exchanges and event
back-offs are triggered by receptions, which can only happen inside an
awake window, so whole exchanges complete within the window — especially
when the period is aligned to the heartbeat period), while a flooder
keeps queueing frames on its own fixed timer and has them batch-released
at window start, colliding with every other flooder's backlog.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Node
    from repro.sim.kernel import Simulator, Timer


@dataclass(frozen=True)
class DutyCycleConfig:
    """Synchronised sleep schedule knobs.

    ``awake_fraction=1.0`` (the default) means always-on: no cycler is
    installed at all, so the hot path stays untouched.
    """

    period_s: float = 1.0
    awake_fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.period_s <= 0:
            raise ValueError(f"period_s must be positive: {self.period_s=}")
        if not 0.0 < self.awake_fraction <= 1.0:
            raise ValueError("awake_fraction must be in (0, 1]")

    @property
    def enabled(self) -> bool:
        return self.awake_fraction < 1.0

    @property
    def awake_s(self) -> float:
        return self.period_s * self.awake_fraction

    # -- presets ---------------------------------------------------------------

    @classmethod
    def always_on(cls) -> "DutyCycleConfig":
        return cls(period_s=1.0, awake_fraction=1.0)

    @classmethod
    def heartbeat_aligned(cls, hb_period_s: float,
                          awake_fraction: float = 0.5) -> "DutyCycleConfig":
        """Window period equal to the protocol's heartbeat period, so one
        beacon exchange (and the dissemination it triggers) fits every
        awake window."""
        return cls(period_s=hb_period_s, awake_fraction=awake_fraction)

    # -- schedule arithmetic ----------------------------------------------------
    #
    # Window ``k`` is ``[k·period, (k+1)·period)`` and its awake part
    # ends at ``k·period + awake_s``.  Every edge is computed from the
    # integer index, never from ``time % period``: the remainder of an
    # edge that is not exactly representable lands an ulp short of
    # ``awake_s``, and a cycler that trusted it would re-arm at the
    # timestamp it is standing on, forever.

    def _window_index(self, time: float) -> int:
        """The ``k`` whose window holds ``time``, judged by the same
        products the edges are computed with."""
        k = math.floor(time / self.period_s)
        while (k + 1) * self.period_s <= time:
            k += 1
        while k * self.period_s > time:
            k -= 1
        return k

    def next_edge_after(self, time: float) -> Tuple[bool, float]:
        """``(awake, edge)``: whether the radio is up at ``time`` and the
        first schedule edge strictly later than ``time``."""
        k = self._window_index(time)
        sleep_at = k * self.period_s + self.awake_s
        if time < sleep_at:
            return True, sleep_at
        return False, (k + 1) * self.period_s

    def is_awake_at(self, time: float) -> bool:
        if not self.enabled:
            return True
        return self.next_edge_after(time)[0]

    def next_wake_after(self, time: float) -> float:
        """The next window start at or after ``time`` (identity while
        awake: the radio is already up)."""
        if not self.enabled:
            return time
        awake, edge = self.next_edge_after(time)
        return time if awake else edge


class DutyCycler:
    """Drives one node's sleep/wake schedule on the kernel clock."""

    def __init__(self, sim: Simulator, node: "Node",
                 config: DutyCycleConfig):
        if not config.enabled:
            raise ValueError("DutyCycler requires awake_fraction < 1")
        self.sim = sim
        self.node = node
        self.config = config
        self._stopped = False
        self._timer: Optional[Timer] = None
        # Phase-align to the global schedule regardless of start time.
        self._arm()

    def _arm(self) -> None:
        awake, edge = self.config.next_edge_after(self.sim.now)
        if awake:
            # Inside an awake window: make sure the node is up, then
            # sleep at the window's end.
            self.node.wake()
        else:
            self.node.sleep()
        self._timer = self.sim.call_at(edge, self._flip)

    def _flip(self) -> None:
        # Keep re-arming even while the node is crashed: sleep()/wake()
        # no-op on a dead node, and a recovered one rejoins the global
        # schedule at the next window edge.
        if self._stopped:
            return
        self._arm()

    def stop(self) -> None:
        self._stopped = True
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
