"""Per-node radio energy accounting: a TX/RX/IDLE/SLEEP state machine.

Wireless energy is dominated by which *state* the radio is in, not by how
many bits it moves: an 802.11 card burns nearly as much listening to an
idle channel as receiving, and only sleeping saves real power (Feeney &
Nilsson, INFOCOM 2001, measured 1.65/1.4/1.15/0.045 W for a 2.4 GHz WaveLAN
card).  The :class:`EnergyModel` therefore tracks a state machine on the
simulation clock:

* **TX** while one of the node's own frames is on the air (airtime from
  :meth:`RadioConfig.transmission_duration_s`, so the data rate matters);
* **RX** while any audible frame overlaps the node (even frames that end
  up collided — the radio front-end still burned the power);
* **SLEEP** while the duty-cycling policy has switched the radio off;
* **IDLE** otherwise (powered, carrier-sensing, hearing nothing).

States are charged lazily: joules accrue only at state *transitions*
(``power(state) × elapsed``), so the accounting adds O(1) work per frame
edge instead of per simulated second.  A window's *end* is a transition
nobody reports, and the meter does not ask the kernel to: ``note_tx`` /
``note_rx`` push the end onto a small per-model heap, and the next
``_sync`` — whoever calls it — first charges up to every pending end
that has passed, in order, each at the state in force when its segment
began, then up to the present.  Those split points are what the golden
digests pin (every float sum is taken over the same segments in the same
order as if a timer had fired at each end); how the model came to be
standing at them is not.

A kernel timer is armed only where the model must *act* at an instant,
which a mains-powered meter never does: it arms nothing, so an
instrumented run's ``sim_events_processed`` no longer counts window
ends.  A finite :class:`~repro.energy.battery.Battery` can run dry
mid-state, so its model keeps exactly one timer, at the earlier of its
next pending end and the instant the battery would empty at the current
draw — depletion is detected on time, deterministically, not at the next
transition.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.energy.battery import Battery
from repro.net.radio import RadioConfig, dbm_to_mw

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator, Timer


class RadioState(enum.Enum):
    TX = "tx"
    RX = "rx"
    IDLE = "idle"
    SLEEP = "sleep"
    OFF = "off"          # battery drained: draws nothing, forever


#: The meter's accumulators and draws live in plain lists indexed by a
#: state's position in :class:`RadioState` declaration order.
_STATES = tuple(RadioState)
_TX, _RX, _IDLE, _SLEEP, _OFF = range(len(_STATES))


@dataclass(frozen=True)
class PowerProfile:
    """Per-state power draws in watts.

    Use :meth:`from_radio` to derive the TX draw from a
    :class:`RadioConfig` power budget, or the measured presets for the
    two device classes the paper discusses (802.11 PDAs, sensor-class
    power-save radios).
    """

    tx_w: float = 1.65
    rx_w: float = 1.4
    idle_w: float = 1.15
    sleep_w: float = 0.045

    def __post_init__(self) -> None:
        for name in ("tx_w", "rx_w", "idle_w", "sleep_w"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    def draw_w(self, state: RadioState) -> float:
        if state is RadioState.TX:
            return self.tx_w
        if state is RadioState.RX:
            return self.rx_w
        if state is RadioState.IDLE:
            return self.idle_w
        if state is RadioState.SLEEP:
            return self.sleep_w
        return 0.0                       # OFF

    # -- presets ---------------------------------------------------------------

    @classmethod
    def wifi_80211b(cls) -> "PowerProfile":
        """Feeney & Nilsson's measured 802.11 WaveLAN draws — the radio
        the paper's Qualnet experiments model."""
        return cls(tx_w=1.65, rx_w=1.4, idle_w=1.15, sleep_w=0.045)

    @classmethod
    def power_save(cls) -> "PowerProfile":
        """A power-save-mode radio: cheap idle carrier sense, so TX/RX
        airtime dominates the budget.  This is the regime where protocol
        frugality translates most directly into lifetime."""
        return cls(tx_w=1.65, rx_w=1.4, idle_w=0.2, sleep_w=0.01)

    @classmethod
    def from_radio(cls, radio: RadioConfig, electronics_w: float = 1.4,
                   idle_w: float = 1.15,
                   sleep_w: float = 0.045) -> "PowerProfile":
        """Derive the TX draw from a radio's configured power budget:
        electronics plus the RF power actually radiated, scaled up by the
        antenna efficiency (an 0.8-efficiency antenna wastes a quarter of
        the amplifier's output as heat)."""
        radiated_w = dbm_to_mw(radio.tx_power_dbm) / 1000.0
        return cls(tx_w=electronics_w + radiated_w / radio.antenna_efficiency,
                   rx_w=electronics_w, idle_w=idle_w, sleep_w=sleep_w)


class EnergyModel:
    """One node's radio state machine, charged on the simulation clock.

    The medium reports TX/RX *windows* (``note_tx`` / ``note_rx``); the
    duty cycler reports ``sleep`` / ``wake``.  The effective state is
    resolved by priority — TX beats RX beats SLEEP beats IDLE — which is
    exactly half-duplex behaviour: a transmitting radio is not also
    paying to receive.
    """

    def __init__(self, node_id: int, sim: Simulator, profile: PowerProfile,
                 battery: Optional[Battery] = None,
                 on_depleted: Optional[Callable[[int], None]] = None):
        self.node_id = node_id
        self.sim = sim
        self.profile = profile
        self.battery = battery or Battery()
        self.on_depleted = on_depleted
        self.transitions = 0
        self.depleted_at: Optional[float] = None
        self._draws = tuple(profile.draw_w(state) for state in _STATES)
        self._joules = [0.0] * len(_STATES)
        self._finite = not self.battery.infinite
        self._since = sim.now
        self._tx_until = -math.inf
        self._rx_until = -math.inf
        # Window ends not yet charged across (a heap of instants).
        self._ends: List[float] = []
        self._asleep = False
        self._off = False
        self._depletion_timer: Optional[Timer] = None
        # Arm immediately: even a node that never transmits dies on time.
        self._rearm_depletion(sim.now)

    # -- inspection -----------------------------------------------------------

    @property
    def joules_by_state(self) -> Dict[RadioState, float]:
        """The per-state tallies, as a fresh ``RadioState``-keyed dict."""
        return dict(zip(_STATES, self._joules))

    @property
    def total_joules(self) -> float:
        return sum(self._joules)

    @property
    def state(self) -> RadioState:
        return _STATES[self._slot(self.sim.now)]

    @property
    def depleted(self) -> bool:
        return self._off

    def _slot(self, at: float) -> int:
        if self._off:
            return _OFF
        if at < self._tx_until:
            return _TX
        if at < self._rx_until:
            return _RX
        if self._asleep:
            return _SLEEP
        return _IDLE

    # -- charging -------------------------------------------------------------

    def _sync(self) -> None:
        """Charge up to the present, splitting at every window end that
        has passed since the last sync, then re-arm depletion."""
        now = self.sim.now
        ends = self._ends
        while ends and ends[0] <= now:
            if self._charge_until(heappop(ends)):
                return
        if self._charge_until(now):
            return
        if self._finite:
            self._rearm_depletion(now)

    def _charge_until(self, until: float) -> bool:
        """Charge ``[since, until)``; true when that emptied the battery.

        The state over the segment is whatever was effective at its
        start: every window edge is a segment boundary and every other
        transition syncs before it takes effect, so the state cannot
        have changed mid-segment.
        """
        elapsed = until - self._since
        if elapsed <= 0.0:
            return False
        slot = self._slot(self._since)
        joules = self._draws[slot] * elapsed
        if self._finite:
            joules = self.battery.discharge(joules)
        elif joules < 0:
            raise ValueError(f"cannot discharge a negative amount: {joules=}")
        self._joules[slot] += joules
        self._since = until
        if self._finite and self.battery.drained and not self._off:
            self._power_off(until)
            return True
        return False

    def _power_off(self, now: float) -> None:
        self._off = True
        self.depleted_at = now
        self.transitions += 1
        if self._depletion_timer is not None:
            self._depletion_timer.cancel()
            self._depletion_timer = None
        if self.on_depleted is not None:
            self.on_depleted(self.node_id)

    def _rearm_depletion(self, now: float) -> None:
        """Keep a finite battery's one timer at the next instant its
        model must act: the next pending end (a sync there re-derives
        the draw) or the battery running dry, whichever is earlier."""
        if self._off or not self._finite:
            return
        if self._depletion_timer is not None:
            self._depletion_timer.cancel()
            self._depletion_timer = None
        wake_at = now + self.battery.time_to_empty_s(
            self._draws[self._slot(now)])
        if wake_at <= now:
            # Float residue: the remaining charge buys less than one
            # representable slice of time — consider it spent, or the
            # rescheduled sync would spin forever at this timestamp.
            self.battery.discharge(self.battery.remaining_j)
            self._power_off(now)
            return
        if self._ends and self._ends[0] < wake_at:
            wake_at = self._ends[0]
        if not math.isinf(wake_at):
            self._depletion_timer = self.sim.call_at(wake_at, self._sync)

    # -- transition notifications (medium / duty cycler) -----------------------

    def note_tx(self, duration_s: float) -> None:
        """The node's own frame occupies the air for ``duration_s``."""
        if self._off:
            return
        self._sync()
        if self._off:
            return
        now = self.sim.now
        end = now + duration_s
        if end > self._tx_until:
            self._tx_until = end
            self.transitions += 1
            heappush(self._ends, end)
            if self._finite:
                self._rearm_depletion(now)

    def note_rx(self, duration_s: float) -> None:
        """An audible frame overlaps the node for ``duration_s``."""
        if self._off or self._asleep:
            return
        self._sync()
        if self._off:
            return
        now = self.sim.now
        end = now + duration_s
        if end > self._rx_until:
            self._rx_until = end
            self.transitions += 1
            heappush(self._ends, end)
            if self._finite:
                self._rearm_depletion(now)

    def sleep(self) -> None:
        if self._off or self._asleep:
            return
        self._sync()
        if self._off:
            return
        self._asleep = True
        self.transitions += 1
        self._rearm_depletion(self.sim.now)

    def wake(self) -> None:
        if self._off or not self._asleep:
            return
        self._sync()
        if self._off:
            return
        self._asleep = False
        self.transitions += 1
        self._rearm_depletion(self.sim.now)

    # -- lifecycle ------------------------------------------------------------

    def reset_tallies(self, recharge: bool = True) -> None:
        """Zero the joule counters (and optionally refill the battery) —
        called at measurement-window start so warm-up traffic is free,
        mirroring :meth:`MetricsCollector.resume`."""
        self._sync()
        self._joules = [0.0] * len(_STATES)
        if recharge and not self._off:
            self.battery.recharge()
            self._rearm_depletion(self.sim.now)

    def revive(self) -> None:
        """A fresh battery was installed in a drained radio: leave OFF,
        refill, and resume accounting from the current instant.  Windows
        that were open at death are forgotten, but their ends still lie
        ahead as split points."""
        if not self._off:
            return
        now = self.sim.now
        self._off = False
        self.depleted_at = None
        self._since = now
        self._tx_until = -math.inf
        self._rx_until = -math.inf
        while self._ends and self._ends[0] <= now:
            heappop(self._ends)
        self._asleep = False
        self.transitions += 1
        self.battery.recharge()
        self._rearm_depletion(now)

    def finalize(self) -> None:
        """Charge up to the current instant (end of run)."""
        self._sync()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<EnergyModel node={self.node_id} {self.state.value} "
                f"{self.total_joules:.2f} J>")
