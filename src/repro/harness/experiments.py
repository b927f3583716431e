"""The experiment result type and the scenario factories behind it.

Every reproduced figure and ablation is a declaration
(:mod:`repro.study.studies`); this module holds what those declarations
are built from: :class:`ExperimentResult` (the rows one experiment
produces), the scenario factories for the paper's two mobility settings
(Section 5.1) and the ``config -> config`` transforms the study axes
sweep — one per concept, so a figure, an ablation and the
``study-frontier`` cube cannot drift apart.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.config import FrugalConfig
from repro.energy import DutyCycleConfig, EnergyConfig, PowerProfile
from repro.faults import ChurnConfig, FaultConfig
from repro.harness.presets import Scale
from repro.harness.scenario import (CityGridSpec, CitySectionSpec,
                                    MobilitySpec, Publication,
                                    RandomWaypointSpec, ScenarioConfig,
                                    StationarySpec)
from repro.net import RadioConfig

@dataclass
class ExperimentResult:
    """Rows of one reproduced table/figure."""

    experiment_id: str
    title: str
    parameters: Dict[str, object]
    rows: List[Dict[str, float]] = field(default_factory=list)
    #: Printable analysis attachments (study pivots, component delta
    #: tables, Pareto frontiers) the CLI renders below the row table.
    #: Notes never influence ``rows`` or the CSV output.
    notes: List[str] = field(default_factory=list)

    def known_columns(self) -> List[str]:
        """Every column name any row carries, first-seen order."""
        columns: List[str] = []
        for row in self.rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
        return columns

    def column(self, name: str) -> List[float]:
        """All values of one named column, in row order."""
        try:
            return [row[name] for row in self.rows]
        except KeyError:
            raise KeyError(
                f"experiment {self.experiment_id!r} has no column "
                f"{name!r}; known columns: {self.known_columns()}"
            ) from None

    def filter(self, **criteria) -> List[Dict[str, float]]:
        """Rows matching all the given parameter values.

        Criteria keys must name real columns — a typo'd name raises
        :class:`KeyError` listing the known columns instead of
        silently matching nothing.  (Rows of a heterogeneous result
        may individually lack a known column; those rows simply do
        not match.)
        """
        known = self.known_columns()
        for key in criteria:
            if key not in known:
                raise KeyError(
                    f"experiment {self.experiment_id!r} has no column "
                    f"{key!r} to filter on; known columns: {known}")
        out = []
        for row in self.rows:
            if all(row.get(k) == v for k, v in criteria.items()):
                out.append(row)
        return out



# --------------------------------------------------------------------------
# Scenario factories
# --------------------------------------------------------------------------

def rwp_mobility(scale: Scale, speed_min: float,
                 speed_max: float) -> MobilitySpec:
    """Random waypoint over the scale's area; parked when the top speed
    is 0 (Fig. 11's stationary column)."""
    if speed_max <= 0:
        return StationarySpec(width=scale.rwp_area_m,
                              height=scale.rwp_area_m)
    return RandomWaypointSpec(
        width=scale.rwp_area_m, height=scale.rwp_area_m,
        speed_min=speed_min, speed_max=speed_max, pause_time=1.0)


def rwp_publications(n_events: int,
                     validity: float) -> Tuple[Publication, ...]:
    """``n_events`` publications 2 s apart, publishers rotating."""
    return tuple(
        Publication(at=2.0 + 2.0 * i, validity=validity, publisher=i)
        for i in range(n_events))


def _covering_duration(publications: Tuple[Publication, ...]) -> float:
    """Run length that outlives every publication's validity by 5 s."""
    return max(p.at + p.validity for p in publications) + 5.0


def rwp_scenario(scale: Scale, speed_min: float, speed_max: float,
                 validity: float, interest: float,
                 n_events: int = 1, protocol: str = "frugal",
                 duration: Optional[float] = None,
                 frugal: Optional[FrugalConfig] = None) -> ScenarioConfig:
    """A random-waypoint trial with the paper's Section 5.1 settings."""
    pubs = rwp_publications(n_events, validity)
    return ScenarioConfig(
        n_processes=scale.rwp_processes,
        mobility=rwp_mobility(scale, speed_min, speed_max),
        duration=duration if duration is not None
        else _covering_duration(pubs),
        warmup=scale.rwp_warmup,
        protocol=protocol,
        frugal=frugal or FrugalConfig.paper_random_waypoint(),
        radio=RadioConfig.paper_random_waypoint(),
        subscriber_fraction=interest,
        publications=pubs,
        shards=scale.shards)


def city_scenario(scale: Scale, validity: float, interest: float,
                  hb_upper: float = 1.0, publisher: int = 0,
                  protocol: str = "frugal") -> ScenarioConfig:
    """A city-section trial on the synthetic campus map."""
    pubs = (Publication(at=5.0, validity=validity, publisher=publisher),)
    return ScenarioConfig(
        n_processes=scale.city_processes,
        mobility=CitySectionSpec(),
        duration=_covering_duration(pubs),
        warmup=scale.city_warmup,
        protocol=protocol,
        frugal=FrugalConfig.paper_city_section(hb_upper_bound=hb_upper),
        radio=RadioConfig.paper_city_section(),
        subscriber_fraction=interest,
        publications=pubs,
        shards=scale.shards)


#: Paper city density — 15 processes over the 1200x900 m campus.
CITY_SCALE_DENSITY_KM2 = 15 / (1.2 * 0.9)
#: Street-grid block pitch, metres (campus map: ~190 m blocks).
CITY_SCALE_BLOCK_M = 200.0


def city_scale_grid(n: int) -> CityGridSpec:
    """A street grid sized to hold ``n`` processes at the paper's city
    density, 4:3 aspect ratio."""
    area_km2 = n / CITY_SCALE_DENSITY_KM2
    width_m = math.sqrt(area_km2 * 4.0 / 3.0) * 1000.0
    height_m = area_km2 * 1e6 / width_m
    return CityGridSpec(
        columns=max(3, round(width_m / CITY_SCALE_BLOCK_M)),
        rows=max(3, round(height_m / CITY_SCALE_BLOCK_M)),
        width=width_m, height=height_m)


def city_scale_scenario(scale: Scale, n: int, validity: float = 60.0,
                        interest: float = 0.2,
                        protocol: str = "frugal") -> ScenarioConfig:
    """One large city-section trial: ``n`` processes on
    :func:`city_scale_grid`."""
    pubs = (Publication(at=5.0, validity=validity),)
    return ScenarioConfig(
        n_processes=n,
        mobility=city_scale_grid(n),
        duration=_covering_duration(pubs),
        warmup=scale.city_warmup,
        protocol=protocol,
        frugal=FrugalConfig.paper_city_section(),
        radio=RadioConfig.paper_city_section(),
        subscriber_fraction=interest,
        publications=pubs,
        shards=scale.shards)


# --------------------------------------------------------------------------
# Config transforms (what the study axes sweep)
# --------------------------------------------------------------------------

def with_validity(config: ScenarioConfig,
                  validity: float) -> ScenarioConfig:
    """Every publication lives ``validity`` seconds; the run covers it."""
    pubs = tuple(dataclasses.replace(p, validity=validity)
                 for p in config.publications)
    return config.with_changes(publications=pubs,
                               duration=_covering_duration(pubs))


def with_publisher(config: ScenarioConfig,
                   publisher: int) -> ScenarioConfig:
    """Process ``publisher`` originates the (single) publication — the
    paper: "all processes, in turn, become the original publisher"."""
    pub, = config.publications
    return config.with_changes(
        publications=(dataclasses.replace(pub, publisher=publisher),))


def with_awake_fraction(config: ScenarioConfig,
                        awake: float) -> ScenarioConfig:
    """Install a heartbeat-aligned duty cycle (1.0 = always on) on an
    energy-instrumented config, so one beacon exchange fits every
    awake window."""
    if awake < 1.0:
        duty = DutyCycleConfig.heartbeat_aligned(
            config.frugal.hb_upper_bound, awake)
    else:
        duty = DutyCycleConfig.always_on()
    return config.with_changes(
        energy=dataclasses.replace(config.energy, duty_cycle=duty))


def with_churn(config: ScenarioConfig, mean_session_s: Optional[float],
               mean_rest_s: float = 45.0) -> ScenarioConfig:
    """Install exponential population churn: up-sessions of mean
    ``mean_session_s``, down-rests of mean ``mean_rest_s``.  ``None``
    is the churn-free baseline, still fault-instrumented (empty config)
    so its summary carries the same availability columns."""
    if mean_session_s is None:
        faults = FaultConfig()
    else:
        faults = FaultConfig(churn=ChurnConfig(
            mean_session_s=mean_session_s, mean_rest_s=mean_rest_s))
    return config.with_changes(faults=faults)


def churn_per_min(mean_session_s: Optional[float]) -> float:
    """Expected leaves per node per minute (0 = no churn)."""
    return 0.0 if mean_session_s is None else 60.0 / mean_session_s


def energy_scenario(scale: Scale, protocol: str,
                    battery_j: Optional[float] = None,
                    awake_fraction: float = 1.0,
                    n_events: int = 5, interest: float = 0.8,
                    duration: float = 120.0) -> ScenarioConfig:
    """A random-waypoint trial instrumented with the energy subsystem.

    Uses the power-save radio profile (cheap idle carrier sense), where
    TX/RX airtime dominates the budget — the regime in which protocol
    frugality translates most directly into battery lifetime.
    """
    cfg = rwp_scenario(scale, 10.0, 10.0, validity=duration,
                       interest=interest, n_events=n_events,
                       protocol=protocol, duration=duration)
    return with_awake_fraction(cfg.with_changes(energy=EnergyConfig(
        profile=PowerProfile.power_save(),
        battery_capacity_j=battery_j)), awake_fraction)


def churn_scenario(scale: Scale, protocol: str,
                   mean_session_s: Optional[float],
                   n_events: int = 5, interest: float = 0.8,
                   duration: float = 120.0) -> ScenarioConfig:
    """A random-waypoint trial under population churn (:func:`with_churn`).

    Events outlive the churn rests, so the store-and-forward phase —
    not raw luck — decides who catches up.
    """
    cfg = rwp_scenario(scale, 10.0, 10.0, validity=100.0,
                       interest=interest, n_events=n_events,
                       protocol=protocol, duration=duration)
    return with_churn(cfg, mean_session_s)
