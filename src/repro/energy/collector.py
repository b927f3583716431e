"""Network-level energy accounting: one accountant per simulated world.

The :class:`EnergyAccountant` subscribes to the medium's TX/RX window
hooks and each node's radio-state callbacks, owns one
:class:`~repro.energy.model.EnergyModel` (and optional duty cycler) per
node, and handles battery depletion by powering the node down —
detaching it from the medium mid-run.  Protocols are never instrumented
directly, so the frugal protocol and the flooding baselines are billed by
exactly the same meter.  When the trial closes, the accountant hands its
readings over as an :class:`EnergyRecord` — plain data, one
:class:`EnergyReading` per node — which is what a result carries and what
the energy aggregates are asked of.

The accountant forwards each window's duration and nothing else: it puts
no event on the kernel, and neither do mains-powered models (a window's
end is charged across by the model's next sync); the only timers the
subsystem owns are one per finite battery and one per duty cycler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.energy.battery import Battery
from repro.energy.dutycycle import DutyCycleConfig, DutyCycler
from repro.energy.model import EnergyModel, PowerProfile, RadioState

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.medium import WirelessMedium
    from repro.net.node import Node


@dataclass(frozen=True)
class EnergyConfig:
    """Everything the harness needs to energy-instrument a scenario."""

    profile: PowerProfile = field(default_factory=PowerProfile.wifi_80211b)
    battery_capacity_j: Optional[float] = None     # None = mains power
    duty_cycle: DutyCycleConfig = field(default_factory=DutyCycleConfig)

    def __post_init__(self) -> None:
        if (self.battery_capacity_j is not None
                and self.battery_capacity_j <= 0):
            raise ValueError("battery_capacity_j must be positive")


@dataclass(frozen=True)
class EnergyReading:
    """One node's meter at close: what it cost, by radio state, and when
    (absolute simulation seconds) its battery ran dry, if it did."""

    node_id: int
    total_joules: float
    joules_by_state: Dict[RadioState, float]
    depleted_at: Optional[float]

    @property
    def depleted(self) -> bool:
        return self.depleted_at is not None


@dataclass
class EnergyRecord:
    """What an :class:`EnergyAccountant` metered over one trial's window,
    handed over at close; plain data that pickles as is."""

    config: EnergyConfig
    deaths: List[Tuple[float, int]]   # (time, node_id), in order
    models: Dict[int, EnergyReading]

    @classmethod
    def merge(cls, records: Sequence[EnergyRecord]) -> EnergyRecord:
        """Union per-shard records in canonical order: deaths by (time,
        node id), readings by node id (joules sum in that order)."""
        models: Dict[int, EnergyReading] = {}
        deaths: List[Tuple[float, int]] = []
        for record in records:
            models.update(record.models)
            deaths.extend(record.deaths)
        return cls(config=records[0].config, deaths=sorted(deaths),
                   models={nid: models[nid] for nid in sorted(models)})

    def total_joules(self) -> float:
        return sum(m.total_joules for m in self.models.values())

    def joules_per_node(self) -> float:
        n = len(self.models)
        return self.total_joules() / n if n else 0.0

    def joules_by_state(self) -> Dict[RadioState, float]:
        out = {state: 0.0 for state in RadioState}
        for model in self.models.values():
            for state, joules in model.joules_by_state.items():
                out[state] += joules
        return out

    def depleted_ids(self) -> List[int]:
        return [node_id for _, node_id in self.deaths]

    def survivor_ids(self) -> List[int]:
        dead = set(self.depleted_ids())
        return sorted(i for i in self.models if i not in dead)

    def network_lifetime_s(self, horizon_s: float) -> float:
        """Time until the first battery death — the classic lifetime
        metric — clamped to the observation ``horizon_s`` when every node
        survived the whole run."""
        return min(self.deaths[0][0], horizon_s) if self.deaths \
            else horizon_s


class EnergyAccountant:
    """Meter every node on a medium; kill the ones that run dry."""

    def __init__(self, medium: WirelessMedium, config: EnergyConfig):
        self.medium = medium
        self.config = config
        self.models: Dict[int, EnergyModel] = {}
        self.cyclers: Dict[int, DutyCycler] = {}
        self.deaths: List[Tuple[float, int]] = []   # (time, node_id)
        # Own node registry: a depleted node leaves the medium, but the
        # accountant must still reach it (metrics, warm-up revival).
        self._nodes: Dict[int, "Node"] = {}
        medium.on_tx_window = self._on_tx_window
        medium.on_rx_window = self._on_rx_window

    # -- wiring ---------------------------------------------------------------

    def track_node(self, node: "Node") -> None:
        """Meter ``node`` (idempotent per id): build its energy model,
        subscribe to its sleep/wake transitions, start its duty cycler."""
        if node.id in self.models:
            return
        battery = Battery(self.config.battery_capacity_j)
        model = EnergyModel(node.id, node.sim, self.config.profile,
                            battery=battery, on_depleted=self._on_depleted)
        self.models[node.id] = model
        self._nodes[node.id] = node
        node.on_radio_state = self._on_radio_state
        if self.config.duty_cycle.enabled:
            self.cyclers[node.id] = DutyCycler(node.sim, node,
                                               self.config.duty_cycle)

    # -- medium hooks -----------------------------------------------------------

    def _on_tx_window(self, sender_id: int, duration_s: float) -> None:
        model = self.models.get(sender_id)
        if model is not None:
            model.note_tx(duration_s)

    def _on_rx_window(self, receiver_id: int, duration_s: float) -> None:
        model = self.models.get(receiver_id)
        if model is not None:
            model.note_rx(duration_s)

    # -- node hooks -------------------------------------------------------------

    def _on_radio_state(self, node: "Node", state: str) -> None:
        model = self.models.get(node.id)
        if model is None:
            return
        if state == "sleep":
            model.sleep()
        elif state == "wake":
            model.wake()

    def _on_depleted(self, node_id: int) -> None:
        model = self.models[node_id]
        self.deaths.append((model.sim.now, node_id))
        cycler = self.cyclers.pop(node_id, None)
        if cycler is not None:
            cycler.stop()
        node = self._nodes.get(node_id)
        if node is not None:
            node.power_down()

    # -- lifecycle ------------------------------------------------------------

    def start_measurement(self) -> None:
        """Zero tallies and refill batteries — warm-up traffic is free,
        mirroring the metrics collector's freeze/resume window.

        A node whose battery ran dry *during* warm-up gets a fresh one
        and rejoins the medium: lifetime clocks start here, and a
        network that is already dead at measurement start would
        otherwise be reported as never having died at all.
        """
        for node_id, model in self.models.items():
            was_off = model.depleted
            model.reset_tallies(recharge=True)
            if was_off:
                model.revive()
                self._nodes[node_id].repower()
            if (self.config.duty_cycle.enabled
                    and node_id not in self.cyclers):
                self.cyclers[node_id] = DutyCycler(
                    model.sim, self._nodes[node_id], self.config.duty_cycle)
        self.deaths.clear()

    def finalize(self) -> None:
        """Charge every node up to the current instant (end of run)."""
        for model in self.models.values():
            model.finalize()

    def record(self) -> EnergyRecord:
        """:meth:`finalize`, then hand the meters' readings over."""
        self.finalize()
        return EnergyRecord(
            config=self.config, deaths=list(self.deaths),
            models={node_id: EnergyReading(
                        node_id=node_id, total_joules=model.total_joules,
                        joules_by_state=model.joules_by_state,
                        depleted_at=model.depleted_at)
                    for node_id, model in self.models.items()})
