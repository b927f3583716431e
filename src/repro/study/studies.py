"""The declared studies: every figure, ablation and sweep of the repo.

Each entry is a :class:`~repro.study.spec.StudySpec` builder — base
scenario, ordered grid, metrics — registered in :data:`STUDIES`, the
single declaration registry.  :data:`ALL_EXPERIMENTS` (what the CLI
and ``all`` iterate) is derived from it: one
``(scale, runner) -> ExperimentResult`` entry per declaration, plus
``loopback-bridge``, whose real-socket half cannot be a spec.  The CSV
bytes of every declaration are pinned by
``tests/golden_experiments.json``, and the paper's qualitative claims
about them are asserted by ``tests/test_paper_claims.py``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.core import registry
from repro.core.config import FrugalConfig
from repro.faults import FaultConfig, RegionalOutage
from repro.harness.experiments import (CITY_SCALE_DENSITY_KM2,
                                       ExperimentResult, churn_per_min,
                                       churn_scenario, city_scale_grid,
                                       city_scale_scenario, city_scenario,
                                       energy_scenario, rwp_mobility,
                                       rwp_publications, rwp_scenario,
                                       with_awake_fraction, with_churn,
                                       with_publisher, with_validity)
from repro.harness.parallel import ParallelRunner
from repro.harness.presets import Scale, get_scale
from repro.harness.scenario import ScenarioConfig
from repro.study.engine import run_study
from repro.study.spec import (Axis, Component, Metric, Objective,
                              PivotSpec, StudySpec, Toggles, Variant)

__all__ = ["Study", "STUDIES", "ALL_EXPERIMENTS", "study_names",
           "get_study", "build_study", "loopback_bridge"]


# --------------------------------------------------------------------------
# Shared axes
# --------------------------------------------------------------------------

VALIDITIES_FULL = [20.0, 60.0, 100.0, 140.0, 180.0]
VALIDITIES_COARSE = [30.0, 90.0, 180.0]
INTERESTS_FULL = [0.2, 0.4, 0.6, 0.8, 1.0]
INTERESTS_COARSE = [0.2, 0.6, 1.0]

#: Mean session lengths swept by the churn studies; ``None`` is the
#: churn-free baseline row (instrumented with an *empty* fault config so
#: every row carries the availability columns).
CHURN_SESSIONS_FULL = (None, 240.0, 120.0, 60.0, 30.0)
CHURN_SESSIONS_COARSE = (None, 120.0, 30.0)

#: Metrics every fault-instrumented summary exposes.
FAULT_METRICS = ("availability", "churn_reliability",
                 "recovery_latency_s", "downtime_s")


def _interest_axis(interests: Sequence[float]) -> Axis:
    return Axis(name="interest", path="subscriber_fraction",
                values=interests)


def _validity_axis(validities: Sequence[float]) -> Axis:
    return Axis(name="validity", values=validities, apply=with_validity)


def _publisher_rotation(scale: Scale) -> Axis:
    """The paper's "all processes, in turn, become the original
    publisher": folded, so each row reduces over the publishers."""
    return Axis(name="publisher", apply=with_publisher, folded=True,
                values=range(scale.city_publisher_rotations))


def _churn_axis(sessions: Sequence[Optional[float]]) -> Axis:
    return Axis(name="churn", values=sessions, apply=with_churn,
                cells=lambda s: {"churn_per_min": churn_per_min(s)})


def _awake_axis(awake_fractions: Sequence[float]) -> Axis:
    return Axis(name="awake_fraction", values=awake_fractions,
                apply=with_awake_fraction)


def _session_labels(sessions: Sequence[Optional[float]]) -> list:
    return ["none" if s is None else s for s in sessions]


# --------------------------------------------------------------------------
# Random waypoint reliability (Figs. 11, 12)
# --------------------------------------------------------------------------

FIG11_SPEEDS_FULL = [0.0, 1.0, 5.0, 10.0, 20.0, 30.0, 40.0]
FIG11_SPEEDS_COARSE = [0.0, 5.0, 10.0, 30.0]


def fig11_study(scale: Scale) -> StudySpec:
    """Fig. 11: reliability vs speed x validity at 20 % / 80 % interest."""
    speeds = scale.pick(FIG11_SPEEDS_FULL, FIG11_SPEEDS_COARSE)
    validities = scale.pick(VALIDITIES_FULL, VALIDITIES_COARSE)
    interests = [0.2, 0.8]
    return StudySpec(
        study_id="fig11",
        title="Reliability vs validity, speed and subscriber fraction "
              "(random waypoint)",
        base=rwp_scenario(scale, speeds[0], speeds[0], validities[0],
                          interests[0]),
        grid=(_interest_axis(interests),
              Axis(name="speed", values=speeds,
                   apply=lambda cfg, speed: cfg.with_changes(
                       mobility=rwp_mobility(scale, speed, speed))),
              _validity_axis(validities)),
        seeds=tuple(scale.seed_list()),
        metrics=(Metric("reliability", std=True),),
        parameters={"scale": scale.name, "speeds": speeds,
                    "validities": validities, "interests": interests},
        pivot=PivotSpec(rows=("interest", "speed"), cols="validity",
                        value="reliability"))


def fig12_study(scale: Scale) -> StudySpec:
    """Fig. 12: reliability vs (validity x interest), speeds ~ U(1, 40)."""
    validities = scale.pick(VALIDITIES_FULL, VALIDITIES_COARSE)
    interests = scale.pick(INTERESTS_FULL, INTERESTS_COARSE)
    return StudySpec(
        study_id="fig12",
        title="Reliability in a heterogeneous network (speeds 1-40 m/s)",
        base=rwp_scenario(scale, 1.0, 40.0, validities[0], interests[0]),
        grid=(_interest_axis(interests), _validity_axis(validities)),
        seeds=tuple(scale.seed_list()),
        metrics=(Metric("reliability", std=True),),
        parameters={"scale": scale.name, "validities": validities,
                    "interests": interests},
        pivot=PivotSpec(rows="interest", cols="validity",
                        value="reliability"))


# --------------------------------------------------------------------------
# City section reliability (Figs. 13-16): every row folds the publisher
# rotation
# --------------------------------------------------------------------------

def fig13_study(scale: Scale) -> StudySpec:
    """Fig. 13: reliability vs heartbeat upper bound (city section)."""
    bounds = scale.pick([1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 3.0, 5.0])
    return StudySpec(
        study_id="fig13",
        title="Reliability vs heartbeat upper-bound period (city section, "
              "validity 150 s, 100% subscribers)",
        base=city_scenario(scale, validity=150.0, interest=1.0),
        grid=(Axis(name="hb_upper", path="frugal.hb_upper_bound",
                   values=bounds),
              _publisher_rotation(scale)),
        seeds=tuple(scale.seed_list()),
        metrics=(Metric("reliability", std=True),),
        parameters={"scale": scale.name, "hb_upper_bounds": bounds})


def _interest_rotation_study(scale: Scale, study_id: str, title: str,
                             metrics: Tuple[Metric, ...]) -> StudySpec:
    """Figs. 14/15: one interest x publisher sweep, two reductions."""
    interests = scale.pick(INTERESTS_FULL, INTERESTS_COARSE)
    return StudySpec(
        study_id=study_id, title=title,
        base=city_scenario(scale, validity=150.0, interest=interests[0]),
        grid=(_interest_axis(interests), _publisher_rotation(scale)),
        seeds=tuple(scale.seed_list()),
        metrics=metrics,
        parameters={"scale": scale.name, "interests": interests})


def fig14_study(scale: Scale) -> StudySpec:
    """Fig. 14: reliability vs subscriber fraction (city section)."""
    return _interest_rotation_study(
        scale, "fig14",
        "Reliability vs subscriber fraction (city section, "
        "validity 150 s, heartbeat bound 1 s)",
        (Metric("reliability", std=True),))


def fig15_study(scale: Scale) -> StudySpec:
    """Fig. 15: max-min reliability spread across publishers."""
    return _interest_rotation_study(
        scale, "fig15",
        "Reliability spread between publishers vs subscriber "
        "fraction (city section)",
        (Metric("spread", key="reliability",
                fold=lambda per_pub: max(per_pub) - min(per_pub)),
         Metric("best", key="reliability", fold=max),
         Metric("worst", key="reliability", fold=min)))


def fig16_study(scale: Scale) -> StudySpec:
    """Fig. 16: reliability vs event validity period (city section)."""
    validities = scale.pick([25.0, 50.0, 75.0, 100.0, 125.0, 150.0],
                            [25.0, 75.0, 150.0])
    return StudySpec(
        study_id="fig16",
        title="Reliability vs validity period (city section, "
              "100% subscribers)",
        base=city_scenario(scale, validity=validities[0], interest=1.0),
        grid=(_validity_axis(validities), _publisher_rotation(scale)),
        seeds=tuple(scale.seed_list()),
        metrics=(Metric("reliability", std=True),),
        parameters={"scale": scale.name, "validities": validities})


# --------------------------------------------------------------------------
# Frugality comparison (Figs. 17-20): four views of one sweep
# --------------------------------------------------------------------------

EVENTS_FULL = [1, 5, 10, 15, 20]
EVENTS_COARSE = [1, 10, 20]

_FLOODERS = ("frugal", "interest-flooding", "simple-flooding")

#: figure -> (title, the protocols the paper plots, the metric shown).
FRUGALITY_FIGURES = {
    "fig17": ("Bandwidth used per process", _FLOODERS, "bandwidth_bytes"),
    "fig18": ("Events sent per process", _FLOODERS, "events_sent"),
    "fig19": ("Duplicates received per process", _FLOODERS, "duplicates"),
    "fig20": ("Parasite events received per process",
              ("frugal", "interest-flooding", "neighbor-flooding"),
              "parasites"),
}


def frugality_study(scale: Scale, figure: str) -> StudySpec:
    """Figs. 17-20: protocols x #events x interest on paired seeds.

    All protocols run the identical mobility/subscription draw per seed,
    at 10 m/s over a 180 s window, 400-byte events with a validity long
    enough to stay live for the whole window — the paper's frugality
    measurement conditions.  The four figures share every cell their
    protocol sets have in common, so with a result cache the second
    figure simulates only what the first did not.
    """
    title, protocols, metric = FRUGALITY_FIGURES[figure]
    events = scale.pick(EVENTS_FULL, EVENTS_COARSE)
    interests = scale.pick(INTERESTS_FULL, INTERESTS_COARSE)
    return StudySpec(
        study_id=figure, title=f"{title} (random waypoint, 10 m/s)",
        base=rwp_scenario(scale, 10.0, 10.0, validity=180.0,
                          interest=interests[0], n_events=events[0],
                          protocol=protocols[0], duration=180.0),
        grid=(Axis(name="protocol", values=protocols),
              Axis(name="events", values=events,
                   apply=lambda cfg, n: cfg.with_changes(
                       publications=rwp_publications(n, 180.0))),
              _interest_axis(interests)),
        seeds=tuple(scale.seed_list()),
        metrics=(Metric("reliability"), Metric(metric, std=True)),
        parameters={"scale": scale.name, "protocols": list(protocols),
                    "events": events, "interests": interests})


# --------------------------------------------------------------------------
# Related work (paper Section 6): broadcast-storm schemes
# --------------------------------------------------------------------------

def related_work_study(scale: Scale) -> StudySpec:
    """related-work: frugal vs the broadcast-storm schemes.

    The probabilistic and counter-based schemes (Ni et al.) forward each
    event at most once, so — unlike the Section 5.2 flooders — they
    cannot exploit validity periods: whoever is outside the connected
    component at publish time is lost forever.  The frugal protocol's
    store-and-forward phase is exactly what fixes that.
    """
    protocols = ["frugal", "gossip-flooding", "counter-flooding",
                 "simple-flooding"]
    return StudySpec(
        study_id="related-work",
        title="Frugal vs broadcast-storm schemes (one-shot forwarding)",
        base=rwp_scenario(scale, 10.0, 10.0, validity=120.0, interest=0.8,
                          n_events=3, protocol=protocols[0],
                          duration=150.0),
        grid=(Axis(name="protocol", values=protocols),),
        seeds=tuple(scale.seed_list()),
        metrics=(Metric("reliability"), Metric("bandwidth_bytes"),
                 Metric("duplicates"), Metric("events_sent")),
        parameters={"scale": scale.name, "protocols": protocols})


# --------------------------------------------------------------------------
# Ablations (design choices DESIGN.md calls out)
# --------------------------------------------------------------------------

def gc_study(scale: Scale, capacity: int = 8) -> StudySpec:
    """abl-gc: eviction policies under memory pressure.

    Many events with mixed validities flow through a tiny event table;
    the policy decides who survives to be re-disseminated.  Measured:
    reliability (long- and short-validity events averaged together).
    """
    policies = ["validity-forward", "remaining-validity", "fifo", "random"]
    base = rwp_scenario(scale, 10.0, 10.0, validity=120.0, interest=0.8,
                        n_events=16, duration=160.0,
                        frugal=FrugalConfig(event_table_capacity=capacity))
    return StudySpec(
        study_id="abl-gc",
        title=f"Eviction policy comparison (event table capacity "
              f"{capacity})",
        base=base,
        grid=(Axis(name="policy", path="frugal.eviction_policy",
                   values=tuple(policies)),),
        seeds=tuple(scale.seed_list()),
        metrics=(Metric("reliability"), Metric("duplicates")),
        parameters={"scale": scale.name, "capacity": capacity,
                    "policies": policies})


def backoff_study(scale: Scale) -> StudySpec:
    """abl-backoff: the contention back-off vs sending immediately."""
    base = rwp_scenario(scale, 10.0, 10.0, validity=180.0, interest=0.8,
                        n_events=5, duration=180.0)
    toggles = Toggles(
        components=(
            Component("backoff", off={"frugal.use_backoff": False}),
            Component("suppression",
                      off={"frugal.backoff_suppression": False}),
        ),
        key="variant",
        variants=(
            Variant(enabled=("backoff", "suppression")),
            Variant(enabled=("backoff",)),
            # Without the back-off there is nothing to suppress: the
            # hand-written ablation switched both off, so the variant
            # disables both components under the historical name.
            Variant(enabled=(), label="no-backoff"),
        ))
    labels = [toggles.label(v) for v in toggles.resolved_variants()]
    return StudySpec(
        study_id="abl-backoff",
        title="Back-off / suppression ablation (duplicates per process)",
        base=base,
        grid=(toggles,),
        seeds=tuple(scale.seed_list()),
        metrics=(Metric("reliability"), Metric("duplicates"),
                 Metric("bandwidth_bytes")),
        parameters={"scale": scale.name, "variants": labels})


def adaptive_hb_study(scale: Scale) -> StudySpec:
    """abl-adaptive-hb: speed-adaptive heartbeat vs static period.

    With a loose upper bound (5 s) the adaptive rule ``x / avgSpeed``
    shortens the beacon period as the network speeds up; the static
    variant stays at the bound and detects neighbours late.
    """
    speeds = [5.0, 20.0, 40.0]
    base = rwp_scenario(scale, 10.0, 10.0, validity=120.0, interest=0.8,
                        frugal=FrugalConfig(hb_upper_bound=5.0))
    toggles = Toggles(
        components=(Component(
            "adaptive-hb", off={"frugal.adaptive_heartbeat": False}),),
        variants=(Variant(enabled=("adaptive-hb",),
                          cells={"adaptive": True}),
                  Variant(enabled=(), cells={"adaptive": False})))
    return StudySpec(
        study_id="abl-adaptive-hb",
        title="Adaptive vs static heartbeat (hb upper bound 5 s)",
        base=base,
        grid=(toggles,
              Axis(name="speed", values=speeds,
                   path=("mobility.speed_min", "mobility.speed_max"))),
        seeds=tuple(scale.seed_list()),
        metrics=(Metric("reliability"), Metric("bandwidth_bytes")),
        parameters={"scale": scale.name, "speeds": speeds})


def ids_study(scale: Scale) -> StudySpec:
    """abl-ids: exchanging event ids first vs pushing events blindly."""
    base = rwp_scenario(scale, 10.0, 10.0, validity=180.0, interest=0.8,
                        n_events=5, duration=180.0)
    toggles = Toggles(
        components=(Component(
            "id-exchange",
            off={"frugal.announce_on_new_neighbor": False}),),
        variants=(Variant(enabled=("id-exchange",),
                          cells={"id_exchange": True}),
                  Variant(enabled=(), cells={"id_exchange": False})))
    return StudySpec(
        study_id="abl-ids",
        title="Event-id exchange vs blind push (duplicates, bandwidth)",
        base=base,
        grid=(toggles,),
        seeds=tuple(scale.seed_list()),
        metrics=(Metric("reliability"), Metric("duplicates"),
                 Metric("bandwidth_bytes")),
        parameters={"scale": scale.name})


# --------------------------------------------------------------------------
# Energy (the frugality claim priced in joules)
# --------------------------------------------------------------------------

#: The two protocols the energy comparison pits against each other:
#: the frugal protocol vs the strongest flooding baseline (Fig. 20's
#: neighbours'-interests flooder, the only one that is interest-aware
#: on both sides).
ENERGY_PROTOCOLS = ("frugal", "neighbor-flooding")

ENERGY_METRICS = ("joules_per_node", "joules_per_delivery", "lifetime_s",
                  "survivor_fraction", "survivor_reliability")


def energy_lifetime_study(scale: Scale,
                          batteries: Sequence[Optional[float]] = (
                              None, 40.0, 28.0)) -> StudySpec:
    """energy-lifetime: joules, network lifetime and survivors.

    Sweeps protocol x battery capacity on paired seeds.  The mains row
    (capacity None) prices the paper's frugality claim in joules per
    delivered event; the finite-capacity rows turn the same scenario into
    a network-lifetime experiment — flooding listeners burn their budget
    on parasite airtime and die mid-run, frugal nodes coast.
    """
    return StudySpec(
        study_id="energy-lifetime",
        title="Energy per delivery and network lifetime "
              "(random waypoint, 10 m/s, power-save radio)",
        base=energy_scenario(scale, ENERGY_PROTOCOLS[0]),
        grid=(Axis(name="protocol", values=ENERGY_PROTOCOLS),
              Axis(name="battery_j", path="energy.battery_capacity_j",
                   values=batteries,
                   cells=lambda b: {"battery_j": (float("inf") if b is None
                                                  else b)})),
        seeds=tuple(scale.seed_list()),
        metrics=(Metric("reliability"),)
        + tuple(Metric(name, std=True) for name in ENERGY_METRICS),
        parameters={"scale": scale.name,
                    "protocols": list(ENERGY_PROTOCOLS),
                    "batteries_j": ["mains" if b is None else b
                                    for b in batteries]})


def dutycycle_study(scale: Scale,
                    awake_fractions: Tuple[float, ...] = (1.0, 0.5, 0.25)
                    ) -> StudySpec:
    """abl-dutycycle: sleep schedules as a protocol-visible ablation.

    Every node sleeps the same synchronised fraction of each heartbeat
    period.  The frugal protocol's reactive traffic rides the awake
    windows, so it keeps its reliability while its radio bill drops; the
    flooder's clock-driven frames pile up at window starts and collide,
    so it pays in reliability for the joules it saves.
    """
    return StudySpec(
        study_id="abl-dutycycle",
        title="Duty-cycling ablation (heartbeat-aligned sleep windows)",
        base=energy_scenario(scale, ENERGY_PROTOCOLS[0]),
        grid=(Axis(name="protocol", values=ENERGY_PROTOCOLS),
              _awake_axis(awake_fractions)),
        seeds=tuple(scale.seed_list()),
        metrics=(Metric("reliability"), Metric("joules_per_node"),
                 Metric("joules_per_delivery"), Metric("bandwidth_bytes")),
        parameters={"scale": scale.name,
                    "protocols": list(ENERGY_PROTOCOLS),
                    "awake_fractions": list(awake_fractions)})


# --------------------------------------------------------------------------
# Faults & churn (availability as an evaluation axis)
# --------------------------------------------------------------------------

#: Frugal vs the two canonical Section 5.2 flooders under churn: the
#: interest-aware flooder (closest competitor) and the blind flooder
#: (upper bound on redundancy, hence on churn tolerance per byte).
CHURN_PROTOCOLS = ("frugal", "interest-flooding", "simple-flooding")


def _churn_sweep(scale: Scale, study_id: str, title: str,
                 protocols: Sequence[str], cost_metrics: Sequence[str],
                 pivot: Optional[PivotSpec] = None) -> StudySpec:
    """protocol x churn rate on paired seeds.

    ``churn_per_min`` is the expected leaves per node per minute (0 =
    no churn); ``churn_reliability`` uses churn-aware denominators, so
    the gap between it and plain ``reliability`` is exactly the
    deliveries that were physically impossible, not protocol failures.
    """
    sessions = scale.pick(CHURN_SESSIONS_FULL, CHURN_SESSIONS_COARSE)
    return StudySpec(
        study_id=study_id, title=title,
        base=churn_scenario(scale, protocols[0], None),
        grid=(Axis(name="protocol", values=protocols),
              _churn_axis(sessions)),
        seeds=tuple(scale.seed_list()),
        metrics=tuple(Metric(name) for name in cost_metrics)
        + tuple(Metric(name, std=True) for name in FAULT_METRICS),
        parameters={"scale": scale.name, "protocols": list(protocols),
                    "mean_sessions_s": _session_labels(sessions)},
        pivot=pivot)


def churn_resilience_study(scale: Scale) -> StudySpec:
    """churn-resilience: delivery under churn, frugal vs flooders."""
    return _churn_sweep(
        scale, "churn-resilience",
        "Delivery under population churn "
        "(random waypoint, 10 m/s, exponential sessions)",
        CHURN_PROTOCOLS, ("reliability", "bandwidth_bytes", "duplicates"))


def protocol_matrix_study(scale: Scale) -> StudySpec:
    """protocol-matrix: every registered protocol under churn.

    The registry-powered cross product: each entry of
    :mod:`repro.core.registry` — the frugal protocol, the three
    Section 5.2 flooders, both broadcast-storm schemes, the lpbcast
    gossip baseline, and any custom registration — runs the churn
    scenarios on paired seeds.  One sweep answers "how does a new
    strategy behave under availability stress" without touching the
    harness.
    """
    return _churn_sweep(
        scale, "protocol-matrix",
        "Every registered protocol under population churn "
        "(random waypoint, 10 m/s, exponential sessions)",
        registry.names(),
        ("reliability", "bandwidth_bytes", "duplicates", "parasites"),
        pivot=PivotSpec(rows="protocol", cols="churn_per_min",
                        value="churn_reliability"))


def _apply_outage(config: ScenarioConfig, value) -> ScenarioConfig:
    """Install one regional outage from a ``(kind, radius_frac)`` value."""
    kind, frac = value
    if kind == "none":
        faults = FaultConfig()
    else:
        half = config.mobility.width / 2.0
        faults = FaultConfig(outages=(RegionalOutage(
            at=20.0, duration=60.0, center=(half, half),
            radius_m=frac * half, kind=kind),))
    return config.with_changes(faults=faults)


def outage_study(scale: Scale) -> StudySpec:
    """abl-outage: a regional outage knocks out the middle of the map.

    One circular outage centred on the area, radius a fraction of the
    half-side, from t=20 s to t=80 s of a 120 s window.  ``silence``
    (radios jammed, state survives) is compared against ``crash``
    (state lost) and the no-outage baseline: the frugal protocol's
    validity periods are what lets the silenced region catch up.
    """
    fractions = scale.pick([0.25, 0.5, 0.75], [0.5])
    variants = [("none", 0.0)] + [(kind, frac)
                                  for kind in ("silence", "crash")
                                  for frac in fractions]
    base = rwp_scenario(scale, 10.0, 10.0, validity=100.0, interest=0.8,
                        n_events=5, duration=120.0)
    return StudySpec(
        study_id="abl-outage",
        title="Regional outage ablation (60 s outage, random waypoint)",
        base=base,
        grid=(Axis(name="outage", values=tuple(variants),
                   apply=_apply_outage,
                   cells=lambda v: {"outage": v[0], "radius_frac": v[1]}),),
        seeds=tuple(scale.seed_list()),
        metrics=(Metric("reliability"), Metric("bandwidth_bytes"))
        + tuple(Metric(name) for name in FAULT_METRICS),
        parameters={"scale": scale.name,
                    "kinds": ["none", "silence", "crash"],
                    "radius_fractions": fractions})


# --------------------------------------------------------------------------
# City-scale: large grid maps at the paper's city density
# --------------------------------------------------------------------------

#: Populations swept per scale.  The full list is the sharded engine's
#: target (one large world); smoke/quick shrink the population but keep
#: the density and the map idiom.
CITY_SCALE_POPULATIONS = {
    "smoke": [40, 80],
    "quick": [100, 200],
    "paper": [2000, 5000, 10000],
}


def _city_scale_cells(n: int) -> Dict[str, object]:
    grid = city_scale_grid(n)
    return {"n": n, "width_m": round(grid.width, 1),
            "height_m": round(grid.height, 1)}


def city_scale_study(scale: Scale) -> StudySpec:
    """city-scale: one metropolitan world per population step.

    Unlike the per-figure city runs (15 processes, one campus), each row
    here is a *single* large world at the paper's density — the family
    the sharded engine exists for.  Rows record delivery and cost
    metrics plus mean wall-clock per run, so the same table doubles as
    the scaling reference for ``--shards`` (results are bit-identical
    for any shard count; only the wall-clock column moves).
    """
    populations = CITY_SCALE_POPULATIONS.get(
        scale.name, CITY_SCALE_POPULATIONS["quick"])
    return StudySpec(
        study_id="city-scale",
        title="City-section scaling: street grids at paper density, "
              "one world per population",
        base=city_scale_scenario(scale, populations[0]),
        grid=(Axis(name="n", values=populations,
                   apply=lambda cfg, n: city_scale_scenario(scale, n),
                   cells=_city_scale_cells),),
        seeds=tuple(scale.seed_list()),
        metrics=(Metric("reliability", std=True),
                 Metric("bandwidth_bytes"), Metric("events_sent"),
                 Metric("duplicates"),
                 Metric("wallclock_s", derive=lambda multi: multi.metric(
                     lambda r: r.wallclock_s).mean)),
        parameters={"scale": scale.name, "populations": populations,
                    "density_km2": round(CITY_SCALE_DENSITY_KM2, 2),
                    "shards": scale.shards.plan_label})


# --------------------------------------------------------------------------
# The frugality frontier: a cube no hand-written loop was worth writing
# --------------------------------------------------------------------------

#: Protocols raced across the frontier cube: the frugal protocol, the
#: strongest interest-aware flooder, and the lpbcast gossip baseline.
FRONTIER_PROTOCOLS = ("frugal", "neighbor-flooding", "gossip")


def frontier_study(scale: Scale) -> StudySpec:
    """study-frontier: protocol x churn x duty-cycle, Pareto-extracted.

    Every cell is energy- and fault-instrumented, so one cube prices
    the frugality trade-off in all four currencies at once: how much
    churn-aware reliability each protocol buys per joule, per byte and
    per second of post-recovery catch-up latency.  The declared
    objectives extract the Pareto frontier automatically; the pivot
    renders churn-aware reliability across the churn axis for every
    (protocol, duty-cycle) row.  ``recovery_latency_s`` is 0 for cells
    where nothing needed catching up, which is genuinely optimal —
    churn-free cells simply never pay that cost.
    """
    sessions = scale.pick(CHURN_SESSIONS_FULL, CHURN_SESSIONS_COARSE)
    awake_fractions = scale.pick([1.0, 0.5, 0.25], [1.0, 0.5])
    return StudySpec(
        study_id="study-frontier",
        title="Frugality frontier: protocol x churn x duty-cycle "
              "(random waypoint, 10 m/s, power-save radio)",
        base=energy_scenario(scale, FRONTIER_PROTOCOLS[0]),
        grid=(Axis(name="protocol", values=FRONTIER_PROTOCOLS),
              _churn_axis(sessions), _awake_axis(awake_fractions)),
        seeds=tuple(scale.seed_list()),
        metrics=(Metric("churn_reliability"), Metric("reliability"),
                 Metric("joules_per_node"), Metric("bandwidth_bytes"),
                 Metric("recovery_latency_s"), Metric("duplicates")),
        parameters={"scale": scale.name,
                    "protocols": list(FRONTIER_PROTOCOLS),
                    "mean_sessions_s": _session_labels(sessions),
                    "awake_fractions": list(awake_fractions)},
        objectives=(Objective("churn_reliability", "max"),
                    Objective("joules_per_node", "min"),
                    Objective("bandwidth_bytes", "min"),
                    Objective("recovery_latency_s", "min")),
        pivot=PivotSpec(rows=("protocol", "awake_fraction"),
                        cols=("churn_per_min",),
                        value="churn_reliability"))


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Study:
    """One registered study: an id, a one-liner, and a spec builder."""

    study_id: str
    summary: str
    build: Callable[..., StudySpec]


def _study(study_id: str, build: Callable[..., StudySpec],
           summary: Optional[str] = None) -> Study:
    """Register ``build``; its docstring's first line is the summary."""
    return Study(study_id,
                 summary or build.__doc__.strip().splitlines()[0], build)


#: The single declaration registry, in ``repro list`` / ``all`` order.
STUDIES: Dict[str, Study] = {study.study_id: study for study in (
    _study("fig11", fig11_study), _study("fig12", fig12_study),
    _study("fig13", fig13_study), _study("fig14", fig14_study),
    _study("fig15", fig15_study), _study("fig16", fig16_study),
    *(_study(figure, functools.partial(frugality_study, figure=figure),
             f"Fig. {figure[3:]}: {title.lower()} vs (#events x interest).")
      for figure, (title, _, _) in FRUGALITY_FIGURES.items()),
    _study("abl-gc", gc_study), _study("abl-backoff", backoff_study),
    _study("abl-adaptive-hb", adaptive_hb_study),
    _study("abl-ids", ids_study), _study("abl-dutycycle", dutycycle_study),
    _study("related-work", related_work_study),
    _study("energy-lifetime", energy_lifetime_study),
    _study("churn-resilience", churn_resilience_study),
    _study("abl-outage", outage_study),
    _study("protocol-matrix", protocol_matrix_study),
    _study("city-scale", city_scale_study),
    _study("study-frontier", frontier_study),
)}


def study_names() -> Tuple[str, ...]:
    """Every registered study id, declaration order."""
    return tuple(STUDIES)


def get_study(study_id: str) -> Study:
    """Look a study up by id; unknown ids name the known ones."""
    try:
        return STUDIES[study_id]
    except KeyError:
        raise KeyError(f"unknown study {study_id!r}; "
                       f"known studies: {list(STUDIES)}") from None


def build_study(study_id: str, scale: Scale, **kwargs) -> StudySpec:
    """Build the registered study's spec for ``scale``."""
    return get_study(study_id).build(scale, **kwargs)


#: One runnable experiment: ``(scale, runner) -> ExperimentResult``.
Experiment = Callable[[Optional[Scale], Optional[ParallelRunner]],
                      ExperimentResult]


def _experiment(study: Study) -> Experiment:
    def run(scale: Optional[Scale] = None,
            runner: Optional[ParallelRunner] = None) -> ExperimentResult:
        return run_study(study.build(scale or get_scale()),
                         runner).experiment
    run.__doc__ = study.summary
    return run


def loopback_bridge(scale: Optional[Scale] = None,
                    runner: Optional[ParallelRunner] = None
                    ) -> ExperimentResult:
    """loopback-bridge: sim-predicted vs UDP-measured, side by side."""
    # Imported on demand: the asyncio runtime is only needed when this
    # experiment is asked for.
    from repro.rt.bridge import loopback_bridge as bridge
    return bridge(scale, runner=runner)


def _experiments():
    for study in STUDIES.values():
        if study.study_id == "city-scale":     # its historical slot
            yield "loopback-bridge", loopback_bridge
        yield study.study_id, _experiment(study)


#: Everything runnable by id — one ``(scale, runner) -> ExperimentResult``
#: entry per declaration, plus ``loopback-bridge`` (its rt half opens
#: real sockets, so it cannot be a spec).  Both arguments are optional:
#: ``None`` means ``get_scale()`` and a fresh serial, uncached runner.
ALL_EXPERIMENTS: Dict[str, Experiment] = dict(_experiments())
