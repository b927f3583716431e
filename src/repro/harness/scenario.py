"""Scenario construction and execution: one simulated world, end to end.

A :class:`ScenarioConfig` fully describes an experiment trial: how many
processes, how they move, who subscribes to what, which protocol they run,
the radio, and which events get published when.  :func:`run_scenario`
builds the world, runs warm-up + measurement window, and returns a
:class:`ScenarioResult` exposing the paper's metrics.

Topic layout
------------
Processes come in two populations, as in the paper's interest sweeps:

* *subscribers* (``subscriber_fraction`` of processes) subscribe to
  :data:`EVENT_TOPIC` — they are entitled to the published events;
* the rest subscribe to :data:`OTHER_TOPIC` — an unrelated branch of the
  topic tree, so published events are *parasite* events for them.

The publishers of the scheduled publications are drawn from the subscriber
population (the paper's scenarios always have the publisher interested in
its own topic).

Import layering
---------------
This module is loaded by everything that reads a config or a result —
the cache, the study layer, the CLI, a spawned worker unpickling its
job — so at import time it loads only configs, the registry and the
metric arithmetic.  The engine (kernel, medium, nodes, mobility models,
collectors) is imported inside the functions that build a world:
:func:`wire_world`, :func:`build_world` and the specs' ``build`` /
``street_map``.  A warm-cache rerun therefore never loads the simulator.
"""

from __future__ import annotations

import abc
import time as _wallclock
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core import registry
from repro.core.base import ProtocolCounters
from repro.core.config import FrugalConfig
from repro.core.topics import Topic, TopicError
from repro.metrics.reliability import (ReliabilityReport,
                                       churn_aware_reliability,
                                       event_reliability, mean_reliability,
                                       recovery_latencies)
from repro.net.messages import SizeModel
from repro.net.radio import MediumConfig, RadioConfig
from repro.sim.shard.config import ShardConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.events import Event, EventFactory
    from repro.energy.collector import (EnergyAccountant, EnergyConfig,
                                        EnergyRecord)
    from repro.faults.injector import (FaultConfig, FaultInjector,
                                       FaultTimeline)
    from repro.metrics.collector import MetricsCollector, MetricsRecord
    from repro.mobility.base import MobilityModel
    from repro.mobility.maps import StreetMap
    from repro.net.medium import WirelessMedium
    from repro.net.node import Node
    from repro.sim.kernel import Simulator
    from repro.sim.rng import RngRegistry

#: The topic subscribers hold and publications default to.
EVENT_TOPIC = ".paper.events.demo"

#: The unrelated branch the non-subscribers hold; published events are
#: parasites for them.
OTHER_TOPIC = ".paper.other"


# --------------------------------------------------------------------------
# Mobility specifications (picklable descriptions, built per node at setup)
# --------------------------------------------------------------------------

class MobilitySpec(abc.ABC):
    """A declarative description of how every process moves."""

    @abc.abstractmethod
    def build(self, index: int) -> MobilityModel:
        """Instantiate the mobility model for process ``index``."""

    def max_speed_mps(self) -> Optional[float]:
        """An upper bound on any process's speed, m/s — or ``None``
        when the spec cannot bound it.

        The sharded engine's audibility routing inflates its reach by
        a ``max_speed * dt`` drift margin; a spec that answers ``None``
        simply disarms the prune, which stays correct (every frame
        ships everywhere) at some wall-clock cost.
        """
        return None


@dataclass(frozen=True)
class RandomWaypointSpec(MobilitySpec):
    """Uniform random waypoint in a ``width x height`` rectangle."""

    width: float
    height: float
    speed_min: float
    speed_max: float
    pause_time: float = 1.0

    def build(self, index: int) -> MobilityModel:
        """Random-waypoint (or stationary, at 0 m/s) model for one process."""
        from repro.mobility.random_waypoint import RandomWaypoint
        from repro.mobility.stationary import Stationary
        if self.speed_max <= 0:
            return Stationary(width=self.width, height=self.height)
        return RandomWaypoint(self.width, self.height,
                              self.speed_min, self.speed_max,
                              pause_time=self.pause_time)

    def max_speed_mps(self) -> float:
        """Waypoint legs never exceed ``speed_max`` (0 m/s builds
        stationary models)."""
        return max(self.speed_max, 0.0)


@dataclass(frozen=True)
class CitySectionSpec(MobilitySpec):
    """Street-constrained mobility over the synthetic campus map."""

    map_seed: int = 7
    stop_probability: float = 0.3
    stop_min: float = 2.0
    stop_max: float = 15.0

    def build(self, index: int) -> MobilityModel:
        """Street-constrained city-section model for one process."""
        from repro.mobility.city_section import CitySection
        return CitySection(self.street_map(),
                           stop_probability=self.stop_probability,
                           stop_min=self.stop_min, stop_max=self.stop_max)

    def street_map(self) -> StreetMap:
        """The (cached) synthetic campus street map for ``map_seed``."""
        return _cached_map("campus_map", seed=self.map_seed)

    def max_speed_mps(self) -> float:
        """Street travel is capped by the fastest road's speed limit."""
        return self.street_map().max_speed_limit


def _cached_map(builder: str, **kwargs) -> StreetMap:
    """``repro.mobility.maps.<builder>(**kwargs)``, built once per
    process: every node of a world, and every world of a sweep, shares
    the map and its route cache."""
    key = (builder, *kwargs.items())
    cached = _MAP_CACHE.get(key)
    if cached is None:
        from repro.mobility import maps
        cached = _MAP_CACHE[key] = getattr(maps, builder)(**kwargs)
    return cached


_MAP_CACHE: Dict[tuple, StreetMap] = {}


@dataclass(frozen=True)
class CityGridSpec(MobilitySpec):
    """Street-constrained mobility over a parameterised Manhattan grid.

    The campus map behind :class:`CitySectionSpec` is fixed at
    1200 x 900 m — far too small for the city-scale populations the
    sharded engine targets.  This spec builds an arbitrary
    ``columns x rows`` street grid (``width x height`` metres) instead,
    so experiments can hold the paper's process density while the map
    grows with N.  Maps are cached per parameter tuple, like the campus
    map.
    """

    columns: int = 12
    rows: int = 9
    width: float = 2400.0
    height: float = 1800.0
    map_seed: int = 0
    stop_probability: float = 0.3
    stop_min: float = 2.0
    stop_max: float = 15.0

    def build(self, index: int) -> MobilityModel:
        """Street-constrained city model for one process."""
        from repro.mobility.city_section import CitySection
        return CitySection(self.street_map(),
                           stop_probability=self.stop_probability,
                           stop_min=self.stop_min, stop_max=self.stop_max)

    def street_map(self) -> StreetMap:
        """The (cached) grid street map for this spec's parameters."""
        return _cached_map("grid_map", columns=self.columns, rows=self.rows,
                           width=self.width, height=self.height,
                           seed=self.map_seed,
                           name=f"grid-{self.columns}x{self.rows}")

    def max_speed_mps(self) -> float:
        """Street travel is capped by the fastest road's speed limit."""
        return self.street_map().max_speed_limit


@dataclass(frozen=True)
class StationarySpec(MobilitySpec):
    """Fixed random positions (the paper's 0 m/s configuration)."""

    width: float
    height: float

    def build(self, index: int) -> MobilityModel:
        """Fixed-random-position model for one process."""
        from repro.mobility.stationary import Stationary
        return Stationary(width=self.width, height=self.height)

    def max_speed_mps(self) -> float:
        """Stationary processes never move."""
        return 0.0


@dataclass(frozen=True)
class FixedPositionsSpec(MobilitySpec):
    """Explicit stationary placement: process ``i`` sits at
    ``positions[i]`` (metres).

    Used by topology-sensitive tests and examples — a line of nodes, a
    known cluster inside an outage region — where the random placement
    of :class:`StationarySpec` would make assertions meaningless.
    Extra processes wrap around the position list.
    """

    positions: Tuple[Tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.positions:
            raise ValueError("positions must not be empty")

    def build(self, index: int) -> MobilityModel:
        """Fixed-position model for one process."""
        from repro.mobility.stationary import Stationary
        from repro.sim.space import Vec2
        x, y = self.positions[index % len(self.positions)]
        return Stationary(position=Vec2(x, y))

    def max_speed_mps(self) -> float:
        """Pinned processes never move."""
        return 0.0


# --------------------------------------------------------------------------
# Publications
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Publication:
    """One scheduled publish.

    ``at`` is relative to the end of the warm-up window — a publication
    can therefore never overlap warm-up by construction (negative
    offsets, the only way to reach into warm-up, are rejected by
    ``ScenarioConfig.__post_init__``).  ``publisher`` is an index into
    the *subscriber* population (``None`` lets the scenario pick the
    first subscriber), so publishers are always interested in their own
    topic, as in the paper's experiments.
    """

    at: float
    validity: float
    topic: Optional[str] = None           # defaults to EVENT_TOPIC
    publisher: Optional[int] = None       # subscriber-population index

    def __post_init__(self) -> None:
        if self.validity <= 0:
            raise ValueError(f"Publication.validity must be positive: "
                             f"{self.validity}")
        if self.publisher is not None and self.publisher < 0:
            raise ValueError(f"Publication.publisher must be None or "
                             f">= 0: {self.publisher}")


# --------------------------------------------------------------------------
# Scenario configuration
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to reproduce one simulation trial bit-for-bit."""

    n_processes: int
    mobility: MobilitySpec
    duration: float
    warmup: float = 0.0
    seed: int = 0
    protocol: str = "frugal"
    frugal: FrugalConfig = field(default_factory=FrugalConfig)
    radio: RadioConfig = field(
        default_factory=RadioConfig.paper_random_waypoint)
    medium: MediumConfig = field(default_factory=MediumConfig)
    sizes: SizeModel = field(default_factory=SizeModel)
    subscriber_fraction: float = 1.0
    publications: Tuple[Publication, ...] = ()
    speed_sensor: bool = True
    energy: Optional[EnergyConfig] = None
    faults: Optional[FaultConfig] = None
    #: Sharded execution: the :class:`~repro.sim.shard.ShardConfig`
    #: choosing the tile grid and latency.  Summaries are invariant in
    #: the shard count and tile shape.  The default (``shards=0``)
    #: keeps the classic single-world engine.
    shards: ShardConfig = ShardConfig()

    def __post_init__(self) -> None:
        if self.n_processes < 1:
            raise ValueError("n_processes must be >= 1")
        if not isinstance(self.shards, ShardConfig):
            raise ValueError(f"shards must be a ShardConfig: "
                             f"{self.shards!r}")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.warmup < 0:
            raise ValueError("warmup must be >= 0")
        registry.get(self.protocol)
        if not 0.0 < self.subscriber_fraction <= 1.0:
            raise ValueError("subscriber_fraction must be in (0, 1]")
        for i, pub in enumerate(self.publications):
            if pub.topic is None:
                continue
            try:
                Topic(pub.topic)
            except TopicError as exc:
                raise ValueError(f"publications[{i}].topic: {exc}") from None
        for pub in self.publications:
            # Publication.at is relative to the *end* of warm-up, so a
            # publication cannot overlap the warm-up window: the only
            # way to reach into it would be a negative offset, rejected
            # here explicitly.
            if pub.at < 0:
                raise ValueError(
                    f"publication at {pub.at}s would precede the "
                    f"measurement window: Publication.at is relative to "
                    f"the end of warm-up ({self.warmup}s), so scheduling "
                    f"inside warm-up is not possible")
            if pub.at >= self.duration:
                raise ValueError(
                    f"publication at {pub.at}s falls outside the "
                    f"measurement window [0, {self.duration})")
        if self.faults is not None:
            self.faults.validate(self.duration, self.n_processes)

    def with_changes(self, **changes) -> "ScenarioConfig":
        """A copy of this config with the given fields replaced."""
        return replace(self, **changes)

    # -- convenience presets --------------------------------------------------

    @classmethod
    def random_waypoint_demo(cls, seed: int = 0,
                             n_processes: int = 20) -> "ScenarioConfig":
        """A small, fast random-waypoint scenario for quickstarts/tests."""
        return cls(
            n_processes=n_processes,
            mobility=RandomWaypointSpec(width=1500.0, height=1500.0,
                                        speed_min=10.0, speed_max=10.0),
            duration=120.0, warmup=10.0, seed=seed,
            subscriber_fraction=0.8,
            publications=(Publication(at=5.0, validity=90.0),))


# --------------------------------------------------------------------------
# Result
# --------------------------------------------------------------------------

@dataclass
class ScenarioResult:
    """Outcome of one scenario run.

    A result is plain data: the world's observers hand over their
    records when the trial closes (:class:`MetricsRecord`,
    :class:`EnergyRecord`, :class:`FaultTimeline`), and nothing here
    points back into the simulation.  A pickle round trip — the parallel
    engine's worker -> parent transfer, the on-disk result cache —
    therefore yields an equal result that answers every metric method
    identically, and the payload is a few kilobytes.

    :meth:`summary` is computed once and memoised on the result; the
    parallel engine asks for it in the worker, so the memo travels in
    the pickle and a cache hit reads it instead of re-deriving it.
    """

    config: ScenarioConfig
    collector: MetricsRecord
    published_events: List[Event]
    subscriber_ids: List[int]
    sim_events_processed: int
    wallclock_s: float
    energy: Optional[EnergyRecord] = None
    faults: Optional[FaultTimeline] = None
    #: Sharded runs only: wall-clock seconds spent in each barrier
    #: phase (``drain`` / ``merge`` / ``ingest`` / ``retime``) summed
    #: over shards, plus ``barriers`` (count) and ``frames_exchanged``
    #: (frames ingested, summed over shards) — the measured barrier tax
    #: the e2e ``city_shard`` workload reports.  ``merge`` is timed in
    #: the shards: routing their own outbox, (un)pickling peer slices
    #: and sorting what they ingest.  ``None`` for classic runs;
    #: excluded from equality (timings are noise).
    barrier_stats: Optional[Dict[str, float]] = field(default=None,
                                                      compare=False)
    #: The memoised :meth:`summary`.
    _summary: Optional[Dict[str, float]] = field(default=None, init=False,
                                                 compare=False, repr=False)

    # -- reliability -------------------------------------------------------------

    def per_event_reports(self) -> List[ReliabilityReport]:
        """One in-time delivery report per published event."""
        return [event_reliability(self.collector, event, self.subscriber_ids)
                for event in self.published_events]

    def reliability(self) -> float:
        """Mean reliability across the scenario's publications."""
        return mean_reliability(self.per_event_reports())

    # -- frugality (per-process, over the measurement window) ----------------------

    def bandwidth_per_process_bytes(self) -> float:
        """Mean bytes put on the air per process (measurement window)."""
        return self.collector.bandwidth_per_process_bytes()

    def events_sent_per_process(self) -> float:
        """Mean events transmitted per process (measurement window)."""
        return self.collector.events_sent_per_process()

    def duplicates_per_process(self) -> float:
        """Mean duplicate receptions per process (measurement window)."""
        return self.collector.duplicates_per_process()

    def parasites_per_process(self) -> float:
        """Mean parasite (uninterested-topic) receptions per process."""
        return self.collector.parasites_per_process()

    def protocol_counters(self) -> ProtocolCounters:
        """Summed per-stack protocol counters (heartbeats, batches,
        deliveries, drops) over the measurement window — warm-up
        traffic is excluded, like every other metric."""
        return self.collector.protocol_totals

    # -- energy (only when the scenario is energy-instrumented) --------------------

    def total_joules(self) -> float:
        """Network-wide energy spent, joules (0 when un-instrumented)."""
        return 0.0 if self.energy is None else self.energy.total_joules()

    def joules_per_node(self) -> float:
        """Mean energy per node, joules (0 when un-instrumented)."""
        return 0.0 if self.energy is None else self.energy.joules_per_node()

    def joules_per_delivery(self) -> float:
        """Joules the whole network burned per in-time delivery — the
        paper's frugality claim priced in energy instead of bytes."""
        if self.energy is None:
            return 0.0
        return self._joules_per_delivery(self.per_event_reports())

    def _joules_per_delivery(self, reports: List[ReliabilityReport]
                             ) -> float:
        delivered = sum(r.delivered_in_time for r in reports)
        if delivered == 0:
            return float("inf")
        return self.energy.total_joules() / delivered

    def network_lifetime_s(self) -> float:
        """Seconds from measurement start until the first battery death
        (the full window if everyone survived)."""
        if self.energy is None:
            return float(self.config.duration)
        end = self.config.warmup + self.config.duration
        return self.energy.network_lifetime_s(end) - self.config.warmup

    def survivor_ids(self) -> List[int]:
        """Ids of nodes whose batteries lasted the whole window."""
        if self.energy is None:
            return list(range(self.config.n_processes))
        return self.energy.survivor_ids()

    def survivor_fraction(self) -> float:
        """Fraction of the population still powered at window end."""
        if self.energy is None:
            return 1.0
        return len(self.energy.survivor_ids()) / self.config.n_processes

    def survivor_reliability(self) -> float:
        """Reliability computed over the subscribers whose batteries
        lasted — did the network serve the devices that stayed up?"""
        if self.energy is None:
            return self.reliability()
        return self._survivor_reliability(None)

    def _survivor_reliability(
            self, reports: Optional[List[ReliabilityReport]]) -> float:
        """``reports``, the all-subscriber reports when the caller has
        them, are reused when no battery died: they are then exactly
        the survivors' reports."""
        dead = set(self.energy.depleted_ids())
        survivors = [i for i in self.subscriber_ids if i not in dead]
        if not survivors:
            return 0.0
        if dead or reports is None:
            reports = [event_reliability(self.collector, event, survivors)
                       for event in self.published_events]
        return mean_reliability(reports)

    # -- faults (only when the scenario is fault-instrumented) ----------------------

    def availability(self) -> float:
        """Mean fraction of the window the population was up (1.0 for
        fault-free scenarios)."""
        return 1.0 if self.faults is None else self.faults.availability()

    def mean_downtime_s(self) -> float:
        """Mean fault-induced downtime per node, seconds."""
        return 0.0 if self.faults is None else self.faults.mean_downtime_s()

    def churn_reliability(self) -> float:
        """Reliability with churn-aware denominators: per event, only
        subscribers that were up at some point of its validity window
        count — a node down the whole window could never have received
        it.  Equals :meth:`reliability` for fault-free scenarios."""
        if self.faults is None:
            return self.reliability()
        return churn_aware_reliability(self.collector,
                                       self.published_events,
                                       self.subscriber_ids,
                                       self.faults.was_up_during)

    def recovery_latency_s(self) -> float:
        """Mean catch-up delay after recoveries: how long a recovered
        subscriber waited for its first delivery of each event that was
        still valid when it came back (0.0 when nothing caught up)."""
        if self.faults is None:
            return 0.0
        samples = recovery_latencies(self.collector, self.published_events,
                                     self.subscriber_ids,
                                     self.faults.recoveries)
        return sum(samples) / len(samples) if samples else 0.0

    def summary(self) -> Dict[str, float]:
        """The four paper metrics plus reliability (and, for
        energy-/fault-instrumented scenarios, the energy and
        availability metrics), flat.

        Computed on first call and memoised; every call returns a fresh
        copy, so callers may mutate what they get.
        """
        if self._summary is None:
            self._summary = self._compute_summary()
        return dict(self._summary)

    def _compute_summary(self) -> Dict[str, float]:
        # One pass of per-event reports feeds reliability, joules per
        # delivery and (when no battery died) survivor reliability.
        reports = self.per_event_reports()
        out = {
            "reliability": mean_reliability(reports),
            "bandwidth_bytes": self.bandwidth_per_process_bytes(),
            "events_sent": self.events_sent_per_process(),
            "duplicates": self.duplicates_per_process(),
            "parasites": self.parasites_per_process(),
        }
        if self.energy is not None:
            out.update({
                "joules_per_node": self.joules_per_node(),
                "joules_per_delivery": self._joules_per_delivery(reports),
                "lifetime_s": self.network_lifetime_s(),
                "survivor_fraction": self.survivor_fraction(),
                "survivor_reliability": self._survivor_reliability(reports),
            })
        if self.faults is not None:
            out.update({
                "availability": self.availability(),
                "churn_reliability": self.churn_reliability(),
                "recovery_latency_s": self.recovery_latency_s(),
                "downtime_s": self.mean_downtime_s(),
            })
        return out


# --------------------------------------------------------------------------
# Execution
# --------------------------------------------------------------------------

def select_subscribers(config: ScenarioConfig,
                       rngs: RngRegistry) -> List[int]:
    """Deterministically draw the subscriber population.

    At least one process always subscribes (there must be a publisher);
    the draw uses its own rng stream so that varying the fraction keeps
    mobility traces identical across paired runs.
    """
    n_subs = max(1, round(config.subscriber_fraction * config.n_processes))
    rng = rngs.stream("subscribers")
    return sorted(rng.sample(range(config.n_processes), n_subs))


@dataclass
class World:
    """A fully wired simulation and the four steps every trial walks.

    :meth:`start`, :meth:`open_window`, :meth:`schedule_publications`,
    :meth:`close` — the paper's Section 5.1 method.  ``run_scenario``
    and the sharded engine are both sequences of those calls; they
    differ in who advances ``sim`` in between and in when publications
    are armed.  ``nodes`` holds the *resident* processes in ascending id
    order: everyone for the classic engine, one shard's share otherwise.
    The energy accountant and fault injector are present only for
    instrumented configs.
    """

    sim: Simulator
    medium: WirelessMedium
    collector: MetricsCollector
    nodes: List[Node]
    subscriber_ids: List[int]
    energy: Optional[EnergyAccountant] = None
    faults: Optional[FaultInjector] = None
    #: ``(publication index, event)`` in firing order.
    published: List[Tuple[int, Event]] = field(default_factory=list)

    def start(self) -> None:
        """Start every resident node (mobility first, then protocol)."""
        for node in self.nodes:
            node.start()

    def open_window(self) -> None:
        """Begin the measurement window now: thaw the collector,
        baseline the (lifetime-monotonic) protocol counters so captured
        totals cover the window only, zero the energy meters and refill
        batteries — warm-up traffic is free, lifetime clocks start here."""
        self.collector.resume()
        self.collector.mark_protocol_baseline(self.nodes)
        if self.energy is not None:
            self.energy.start_measurement()

    def schedule_publications(self, config: ScenarioConfig) -> None:
        """Arm the publications whose publisher (an index into the
        subscriber population) lives here; the rest are another
        shard's to arm."""
        from repro.core.events import EventFactory
        residents = {node.id: node for node in self.nodes}
        factories: Dict[int, EventFactory] = {}
        for index, pub in enumerate(config.publications):
            idx = pub.publisher if pub.publisher is not None else 0
            publisher = residents.get(
                self.subscriber_ids[idx % len(self.subscriber_ids)])
            if publisher is None:
                continue
            factory = factories.setdefault(publisher.id,
                                           EventFactory(publisher.id))
            self.sim.call_at(config.warmup + pub.at, self._publish, index,
                             publisher, factory,
                             pub.topic or EVENT_TOPIC, pub)

    def _publish(self, index: int, publisher: Node, factory: EventFactory,
                 topic: str, pub: Publication) -> None:
        event = factory.create(topic, validity=pub.validity,
                               now=self.sim.now)
        self.published.append((index, event))
        self.collector.record_publication(event)
        publisher.protocol.publish(event)

    def close(self) -> Tuple[MetricsRecord, Optional[EnergyRecord],
                             Optional[FaultTimeline]]:
        """End the trial: settle the energy meters and the fault
        timeline, and hand over the three records a result carries
        (energy and faults ``None`` when un-instrumented)."""
        energy = None if self.energy is None else self.energy.record()
        timeline = None if self.faults is None else self.faults.finalize()
        return self.collector.record(self.nodes), energy, timeline


def wire_world(config: ScenarioConfig, sim: Simulator, rngs: RngRegistry,
               medium: WirelessMedium, residents: Sequence[int],
               **fault_options) -> World:
    """Wire collectors, the ``residents`` (ascending process ids) and
    fault arming onto a medium — the one construction routine both
    engines call.  ``fault_options`` reach the :class:`FaultInjector`:
    the sharded engine passes the global ``population`` and per-receiver
    loss streams, so fault draws do not depend on co-residency."""
    from repro.energy.collector import EnergyAccountant
    from repro.faults.injector import FaultInjector
    from repro.metrics.collector import MetricsCollector
    from repro.net.node import Node
    collector = MetricsCollector(medium)
    accountant = (EnergyAccountant(medium, config.energy)
                  if config.energy is not None else None)
    subscriber_ids = select_subscribers(config, rngs)
    subscriber_set = set(subscriber_ids)
    nodes: List[Node] = []
    for i in residents:
        protocol = registry.create(config.protocol, config)
        node = Node(i, sim, medium,
                    mobility=config.mobility.build(i),
                    protocol=protocol,
                    rng=rngs.stream("node", i),
                    speed_sensor=config.speed_sensor)
        topic = EVENT_TOPIC if i in subscriber_set else OTHER_TOPIC
        protocol.subscribe(topic)
        collector.track_node(node)
        if accountant is not None:
            accountant.track_node(node)
        nodes.append(node)
    injector = None
    if config.faults is not None:
        # Armed at build time: fault timers land on the kernel before
        # any node starts, so same-instant ties resolve plan-first,
        # deterministically.  All fault times are offsets from the end
        # of warm-up, the same time base publications use.
        injector = FaultInjector(
            sim=sim, medium=medium, nodes=nodes, rngs=rngs,
            config=config.faults, start=config.warmup,
            horizon=config.warmup + config.duration, **fault_options)
        injector.arm()
    return World(sim=sim, medium=medium, collector=collector, nodes=nodes,
                 subscriber_ids=subscriber_ids, energy=accountant,
                 faults=injector)


def build_world(config: ScenarioConfig) -> World:
    """Construct simulator, medium, nodes and collectors (no events yet).

    Exposed separately from :func:`run_scenario` so tests and examples can
    poke at a fully wired world before/while it runs.
    """
    from repro.net.medium import WirelessMedium
    from repro.sim.kernel import Simulator
    from repro.sim.rng import RngRegistry
    sim = Simulator()
    rngs = RngRegistry(config.seed)
    medium = WirelessMedium(sim, config.radio, config=config.medium,
                            sizes=config.sizes, rng=rngs.stream("medium"))
    return wire_world(config, sim, rngs, medium, range(config.n_processes))


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Run one trial: warm-up, publications, measurement window."""
    if config.shards:
        # Imported lazily: the shard engine pulls this module in for
        # world construction, and the classic path must not pay for it.
        from repro.sim.shard.engine import run_sharded_scenario
        return run_sharded_scenario(config)
    started = _wallclock.perf_counter()
    world = build_world(config)
    world.start()
    # Warm-up: mobility mixes, neighbourhoods form; traffic is not counted
    # (the paper discards the first 600 s of its random-waypoint runs).
    if config.warmup > 0:
        world.collector.freeze()
        world.sim.run(until=config.warmup)
    world.open_window()
    # Armed after the warm-up run (a shard arms at build time): kernel
    # sequence numbers break same-instant ties, so order is behaviour.
    world.schedule_publications(config)
    world.sim.run(until=config.warmup + config.duration)
    metrics, energy, timeline = world.close()
    return ScenarioResult(
        config=config,
        collector=metrics,
        published_events=[event for _, event in world.published],
        subscriber_ids=world.subscriber_ids,
        sim_events_processed=world.sim.events_processed,
        wallclock_s=_wallclock.perf_counter() - started,
        energy=energy,
        faults=timeline)
