"""Radio propagation: power budgets, path loss and communication range.

The paper's Qualnet configuration (Section 5.1): 15 dBm transmit power at
all rates; receiver sensitivity −93/−89/−87/−83 dBm for 1/2/6/11 Mbit/s; a
2.4 GHz channel with a two-ray path-loss model; 0.8-efficiency
omnidirectional antennas.  Those settings yield communication radii of
442/339/321/273 m; the city-section experiments lower sensitivity to
−65 dBm, i.e. a 44 m radius, to model urban propagation.

We implement the standard free-space and two-ray-ground models and solve
them for range.  Because the paper reports the *resulting radii* (which are
what the protocol behaviour actually depends on), :class:`RadioConfig`
accepts an explicit ``range_override_m`` used by the paper presets, keeping
the reproduction calibrated to the published radii regardless of the exact
antenna heights Qualnet assumed.

:class:`MediumConfig` (the MAC knobs :class:`~repro.net.medium
.WirelessMedium` reads) lives here too, beside the radio it configures,
so a scenario config can be built and read without loading the medium.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

SPEED_OF_LIGHT = 299_792_458.0  # m/s


def dbm_to_mw(dbm: float) -> float:
    """Convert a power level from dBm to milliwatts."""
    return 10.0 ** (dbm / 10.0)


def mw_to_dbm(mw: float) -> float:
    """Convert a power level from milliwatts to dBm."""
    if mw <= 0:
        raise ValueError(f"power must be positive: {mw=}")
    return 10.0 * math.log10(mw)


def free_space_path_loss_db(distance_m: float, frequency_hz: float) -> float:
    """Friis free-space path loss in dB (gain-free form)."""
    if distance_m <= 0:
        raise ValueError(f"distance must be positive: {distance_m=}")
    if frequency_hz <= 0:
        raise ValueError(f"frequency must be positive: {frequency_hz=}")
    wavelength = SPEED_OF_LIGHT / frequency_hz
    return 20.0 * math.log10(4.0 * math.pi * distance_m / wavelength)


def two_ray_crossover_m(frequency_hz: float, h_tx_m: float,
                        h_rx_m: float) -> float:
    """Crossover distance below which two-ray reduces to free space."""
    wavelength = SPEED_OF_LIGHT / frequency_hz
    return 4.0 * math.pi * h_tx_m * h_rx_m / wavelength

def two_ray_path_loss_db(distance_m: float, frequency_hz: float,
                         h_tx_m: float = 1.5, h_rx_m: float = 1.5) -> float:
    """Two-ray ground-reflection path loss with free-space near field."""
    if distance_m <= 0:
        raise ValueError(f"distance must be positive: {distance_m=}")
    crossover = two_ray_crossover_m(frequency_hz, h_tx_m, h_rx_m)
    if distance_m <= crossover:
        return free_space_path_loss_db(distance_m, frequency_hz)
    return 40.0 * math.log10(distance_m) - 20.0 * math.log10(h_tx_m * h_rx_m)


class PathLossModel(enum.Enum):
    """Which propagation model solves the link budget for range."""

    FREE_SPACE = "free-space"
    TWO_RAY = "two-ray"


@dataclass(frozen=True)
class RadioConfig:
    """Physical-layer parameters of every radio in a simulation.

    ``data_rate_bps`` drives transmission durations (and hence collision
    windows); the power budget drives the communication radius unless
    ``range_override_m`` pins it to a published figure.
    """

    tx_power_dbm: float = 15.0
    sensitivity_dbm: float = -93.0
    frequency_hz: float = 2.4e9
    data_rate_bps: float = 1_000_000.0
    antenna_efficiency: float = 0.8
    antenna_height_m: float = 1.5
    path_loss: PathLossModel = PathLossModel.TWO_RAY
    range_override_m: Optional[float] = None

    def __post_init__(self) -> None:
        if self.data_rate_bps <= 0:
            raise ValueError("data_rate_bps must be positive")
        if not 0 < self.antenna_efficiency <= 1:
            raise ValueError("antenna_efficiency must be in (0, 1]")
        if self.range_override_m is not None and self.range_override_m <= 0:
            raise ValueError("range_override_m must be positive")

    # -- link budget -----------------------------------------------------------

    @property
    def link_budget_db(self) -> float:
        """Maximum tolerable path loss, including antenna efficiency."""
        efficiency_loss = -10.0 * math.log10(self.antenna_efficiency)
        return (self.tx_power_dbm - self.sensitivity_dbm
                - 2.0 * efficiency_loss)

    def path_loss_db(self, distance_m: float) -> float:
        """Path loss in dB at ``distance_m`` under the configured model."""
        if self.path_loss is PathLossModel.FREE_SPACE:
            return free_space_path_loss_db(distance_m, self.frequency_hz)
        return two_ray_path_loss_db(distance_m, self.frequency_hz,
                                    self.antenna_height_m,
                                    self.antenna_height_m)

    def received_power_dbm(self, distance_m: float) -> float:
        """Signal level a receiver sees at ``distance_m``."""
        efficiency_loss = -10.0 * math.log10(self.antenna_efficiency)
        return (self.tx_power_dbm - self.path_loss_db(distance_m)
                - 2.0 * efficiency_loss)

    def communication_range_m(self) -> float:
        """Maximum distance at which a frame is receivable.

        Solved analytically from the configured path-loss model, or pinned
        by ``range_override_m`` when calibrating to published radii.
        """
        if self.range_override_m is not None:
            return self.range_override_m
        budget = self.link_budget_db
        wavelength = SPEED_OF_LIGHT / self.frequency_hz
        free_space_range = wavelength / (4.0 * math.pi) * 10 ** (budget / 20.0)
        if self.path_loss is PathLossModel.FREE_SPACE:
            return free_space_range
        crossover = two_ray_crossover_m(self.frequency_hz,
                                        self.antenna_height_m,
                                        self.antenna_height_m)
        if free_space_range <= crossover:
            return free_space_range
        # Beyond crossover: budget = 40 log10(d) - 20 log10(ht*hr)
        h2 = self.antenna_height_m * self.antenna_height_m
        return 10.0 ** ((budget + 20.0 * math.log10(h2)) / 40.0)

    def transmission_duration_s(self, size_bytes: int,
                                preamble_s: float = 192e-6) -> float:
        """Airtime of a frame: 802.11b long preamble + payload at rate."""
        if size_bytes < 0:
            raise ValueError("size_bytes must be >= 0")
        return preamble_s + (size_bytes * 8.0) / self.data_rate_bps

    # -- paper presets ----------------------------------------------------------

    @classmethod
    def paper_random_waypoint(cls, rate_bps: float = 1_000_000.0
                              ) -> "RadioConfig":
        """Section 5.1 open-area settings: 15 dBm, −93 dBm, 442 m @ 1 Mbit/s."""
        ranges = {1_000_000.0: 442.0, 2_000_000.0: 339.0,
                  6_000_000.0: 321.0, 11_000_000.0: 273.0}
        sens = {1_000_000.0: -93.0, 2_000_000.0: -89.0,
                6_000_000.0: -87.0, 11_000_000.0: -83.0}
        if rate_bps not in ranges:
            raise ValueError(f"paper rates are {sorted(ranges)}: {rate_bps=}")
        return cls(tx_power_dbm=15.0, sensitivity_dbm=sens[rate_bps],
                   data_rate_bps=rate_bps,
                   range_override_m=ranges[rate_bps])

    @classmethod
    def paper_city_section(cls, rate_bps: float = 1_000_000.0
                           ) -> "RadioConfig":
        """Section 5.1 urban settings: −65 dBm sensitivity, 44 m radius."""
        return cls(tx_power_dbm=15.0, sensitivity_dbm=-65.0,
                   data_rate_bps=rate_bps, range_override_m=44.0)

    @classmethod
    def bluetooth(cls) -> "RadioConfig":
        """A class-2 Bluetooth radio (the paper's other example MAC):
        2.5 mW (4 dBm) transmit power, ~10 m range, 1 Mbit/s, 2.4 GHz.

        The protocol runs unmodified on it — that is the paper's
        portability claim — but the tiny radius makes encounters brief
        and rare, so expect far lower reliability at equal validity.
        """
        return cls(tx_power_dbm=4.0, sensitivity_dbm=-70.0,
                   data_rate_bps=1_000_000.0, range_override_m=10.0)


@dataclass(frozen=True)
class MediumConfig:
    """Medium/MAC behaviour knobs.

    Attributes
    ----------
    csma_enabled:
        Whether senders carrier-sense and back off before transmitting.
    max_csma_retries:
        Back-off attempts before the frame is sent regardless (802.11
        eventually seizes a busy channel).
    csma_backoff_min_s / csma_backoff_max_s:
        Uniform back-off window bounds, seconds.
    frame_loss_probability:
        Per-reception uniform loss probability in [0, 1] (fading hook).
    model_collisions:
        Whether overlapping audible frames corrupt each other.
    anchor_slack_m:
        Maximum distance (metres) a node's true position may drift from
        its indexed anchor before the mobility model re-anchors it.
        ``None`` derives ``communication_range / 8``.  Smaller values mean
        tighter range queries but more re-anchor events.
    history_horizon_s:
        Seconds a finished transmission stays available for collision
        checks.  Must exceed the longest frame airtime (milliseconds);
        the default of 1 s is three orders of magnitude above it.
    """

    csma_enabled: bool = True
    max_csma_retries: int = 6
    csma_backoff_min_s: float = 0.5e-3
    csma_backoff_max_s: float = 4e-3
    frame_loss_probability: float = 0.0
    model_collisions: bool = True
    anchor_slack_m: Optional[float] = None
    history_horizon_s: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.frame_loss_probability <= 1.0:
            raise ValueError("frame_loss_probability must be in [0,1]")
        if self.csma_backoff_min_s < 0 or \
                self.csma_backoff_max_s < self.csma_backoff_min_s:
            raise ValueError("need 0 <= backoff_min <= backoff_max")
        if self.anchor_slack_m is not None and self.anchor_slack_m <= 0:
            raise ValueError("anchor_slack_m must be positive")
        if self.history_horizon_s <= 0:
            raise ValueError("history_horizon_s must be positive")
