"""The per-world fault driver and the availability record it produces.

The :class:`FaultInjector` is one per simulated world, wired by
``build_world`` when the scenario carries a :class:`FaultConfig`.  At
arm time it schedules every declarative
:class:`~repro.faults.plan.FaultEvent`, starts the per-node churn
renewal processes, books the regional outages and installs the link-loss
model on the medium — all as ordinary kernel timers, so serial, parallel
and cached runs replay the identical fault trace.

Every availability transition the injector causes is recorded in a
:class:`FaultTimeline` — plain picklable data, like the metrics and
energy records, that travels with the
:class:`~repro.harness.scenario.ScenarioResult` and feeds the
churn-aware metrics (availability, delivery-under-churn denominators,
recovery latency).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.faults.churn import ChurnConfig
from repro.faults.loss import LinkLossConfig, LinkLossProcess
from repro.faults.outage import RegionalOutage
from repro.faults.plan import FaultEvent, FaultPlan

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.medium import WirelessMedium
    from repro.net.node import Node
    from repro.sim.kernel import Simulator
    from repro.sim.rng import RngRegistry


@dataclass(frozen=True)
class FaultConfig:
    """Everything the harness needs to fault-instrument a scenario.

    All four components default to "off"; an *empty* ``FaultConfig()``
    is a strict no-op whose results are bit-identical to ``faults=None``
    (asserted by the paired-verification tests), which is what lets
    experiments add the availability columns to every row of a sweep
    that only churns some cells.
    """

    plan: FaultPlan = field(default_factory=FaultPlan)
    churn: Optional[ChurnConfig] = None
    outages: Tuple[RegionalOutage, ...] = ()
    loss: Optional[LinkLossConfig] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "outages", tuple(self.outages))

    def validate(self, duration: float, n_processes: int) -> None:
        """Cross-check the config against one scenario's window/population."""
        self.plan.validate(duration, n_processes)
        if self.churn is not None and self.churn.start_at >= duration:
            raise ValueError(
                f"churn start_at {self.churn.start_at}s falls outside "
                f"the measurement window [0, {duration})")
        for outage in self.outages:
            outage.validate(duration)


@dataclass
class FaultTimeline:
    """What the injector actually did: per-node down intervals.

    Times are absolute simulation seconds; ``window`` is the measurement
    window ``(start, end)``.  Intervals record *fault-induced*
    unavailability (crash, silence, drain, churn, outage) — duty-cycle
    sleep and battery deaths caused by the energy subsystem are not
    faults and are not recorded here.
    """

    window: Tuple[float, float]
    n_nodes: int
    down_intervals: Dict[int, List[Tuple[float, float]]] = \
        field(default_factory=dict)
    recoveries: List[Tuple[float, int]] = field(default_factory=list)
    down_transitions: int = 0
    outages: List[Tuple[float, int]] = field(default_factory=list)

    @classmethod
    def merge(cls, timelines: Sequence[FaultTimeline]) -> FaultTimeline:
        """Union per-shard timelines (disjoint node residency), rebuilt
        in canonical node-id order (availability sums by iteration
        order, which must not depend on the shard count)."""
        merged = cls(window=timelines[0].window,
                     n_nodes=sum(t.n_nodes for t in timelines))
        outage_counts: Dict[float, int] = {}
        intervals_by_node: Dict[int, List[Tuple[float, float]]] = {}
        for timeline in timelines:
            for node_id, intervals in timeline.down_intervals.items():
                intervals_by_node.setdefault(node_id, []).extend(intervals)
            merged.recoveries.extend(timeline.recoveries)
            merged.down_transitions += timeline.down_transitions
            for at, count in timeline.outages:
                outage_counts[at] = outage_counts.get(at, 0) + count
        for node_id in sorted(intervals_by_node):
            merged.down_intervals[node_id] = intervals_by_node[node_id]
        merged.recoveries.sort()
        merged.outages.extend(sorted(outage_counts.items()))
        return merged

    def _clipped(self, interval: Tuple[float, float]) -> float:
        start, end = self.window
        s, e = interval
        return max(0.0, min(e, end) - max(s, start))

    def downtime_s(self, node_id: int) -> float:
        """Seconds of the window this node spent fault-downed."""
        return sum(self._clipped(iv)
                   for iv in self.down_intervals.get(node_id, ()))

    def total_downtime_s(self) -> float:
        """Node-seconds of downtime across the whole population."""
        return sum(self.downtime_s(i) for i in self.down_intervals)

    def mean_downtime_s(self) -> float:
        """Mean per-node downtime over the window, seconds."""
        if self.n_nodes == 0:
            return 0.0
        return self.total_downtime_s() / self.n_nodes

    def availability(self) -> float:
        """Mean fraction of the window the population was up."""
        start, end = self.window
        span = end - start
        if span <= 0 or self.n_nodes == 0:
            return 1.0
        return 1.0 - self.total_downtime_s() / (self.n_nodes * span)

    def was_up_during(self, node_id: int, start: float,
                      end: float) -> bool:
        """Was the node up at any point of ``[start, end]``?

        This is the churn-aware *denominator* predicate: a subscriber
        that was down for an event's entire validity window could never
        have received it and is excluded from that event's reliability
        denominator.
        """
        if end <= start:
            return False
        covered = 0.0
        for s, e in self.down_intervals.get(node_id, ()):
            covered += max(0.0, min(e, end) - max(s, start))
        return covered < (end - start) - 1e-9


class FaultInjector:
    """Drive one world's fault schedule off the simulation clock.

    Parameters
    ----------
    sim, medium, nodes:
        The world being faulted (as built by ``build_world``).
    rngs:
        The scenario's :class:`RngRegistry`; the injector only ever
        touches ``("faults", ...)`` streams, so arming it never perturbs
        mobility, protocol or medium draws.
    config:
        The declarative :class:`FaultConfig`.
    start, horizon:
        Absolute simulation times bounding the measurement window; all
        fault times are offsets from ``start``.
    population:
        The *global* node-id population fault fractions are resolved
        against.  Defaults to the ids of ``nodes``; the sharded engine
        passes the whole world's ids so every shard samples identical
        targets from the shared ``("faults", ...)`` streams and then
        applies only the locally resident ones.
    per_receiver_loss_rng:
        Optional per-receiver reception-stream factory forwarded to
        :class:`LinkLossProcess` (see its docstring); ``None`` keeps the
        classic single shared stream.
    """

    def __init__(self, sim: Simulator, medium: WirelessMedium,
                 nodes: Sequence["Node"], rngs: RngRegistry,
                 config: FaultConfig, start: float, horizon: float,
                 population: Optional[Sequence[int]] = None,
                 per_receiver_loss_rng=None):
        self.sim = sim
        self.medium = medium
        self.config = config
        self.start = start
        self.horizon = horizon
        self._rngs = rngs
        self._nodes: Dict[int, "Node"] = {n.id: n for n in nodes}
        self._population: List[int] = (
            sorted(self._nodes) if population is None
            else sorted(population))
        self._per_receiver_loss_rng = per_receiver_loss_rng
        self._down_since: Dict[int, float] = {}
        self._armed = False
        self.timeline = FaultTimeline(window=(start, horizon),
                                      n_nodes=len(self._nodes))
        self.loss_process: Optional[LinkLossProcess] = None

    # -- arming ---------------------------------------------------------------

    def arm(self) -> None:
        """Schedule the whole fault programme (idempotence guarded)."""
        if self._armed:
            raise RuntimeError("fault injector already armed")
        self._armed = True
        self._arm_plan()
        if self.config.churn is not None:
            self._arm_churn(self.config.churn)
        for outage in self.config.outages:
            self.sim.call_at(self.start + outage.at,
                             self._begin_outage, outage)
        if self.config.loss is not None and self.config.loss.enabled:
            self.loss_process = LinkLossProcess(
                self.sim, self.config.loss,
                reception_rng=self._rngs.stream("faults", "loss"),
                burst_rng=self._rngs.stream("faults", "burst"),
                root_seed=self._rngs.root_seed,
                per_receiver_rng=self._per_receiver_loss_rng)
            self.loss_process.arm(self.start, self.horizon)
            self.medium.extra_loss = self.loss_process

    def _arm_plan(self) -> None:
        for event in self.config.plan.events:
            ids = self._resolve_targets(event)
            self.sim.call_at(self.start + event.at,
                             self._fire, event.kind, ids)
            if event.duration is not None:
                self.sim.call_at(self.start + event.at + event.duration,
                                 self._fire, event.undo_kind, ids)

    def _resolve_targets(self, event: FaultEvent) -> List[int]:
        """Targets of one plan event, resolved deterministically at arm
        time (fractions draw from the ``("faults", "targets")`` stream
        in plan order)."""
        if event.nodes:
            return sorted(event.nodes)
        population = self._population
        count = max(1, round(event.fraction * len(population)))
        rng = self._rngs.stream("faults", "targets")
        return sorted(rng.sample(population, count))

    # -- plan execution -------------------------------------------------------

    def _fire(self, kind: str, ids: Sequence[int]) -> None:
        for node_id in ids:
            node = self._nodes.get(node_id)
            if node is not None:
                self._apply(kind, node)

    def _apply(self, kind: str, node: "Node") -> None:
        if kind == "crash":
            node.crash()
        elif kind == "recover":
            node.recover()
        elif kind == "silence":
            node.silence()
        elif kind == "restore":
            node.unsilence()
        elif kind == "drain":
            node.power_down()
        else:  # pragma: no cover - kinds validated at construction
            raise ValueError(f"unknown fault kind {kind!r}")
        self._note_state(node)

    def _note_state(self, node: "Node") -> None:
        """Record an availability transition, if this action caused one."""
        now = self.sim.now
        available = node.alive and not node.silenced
        since = self._down_since.get(node.id)
        if available and since is not None:
            self.timeline.down_intervals.setdefault(
                node.id, []).append((since, now))
            del self._down_since[node.id]
            self.timeline.recoveries.append((now, node.id))
        elif not available and since is None:
            self._down_since[node.id] = now
            self.timeline.down_transitions += 1

    # -- churn ----------------------------------------------------------------

    def _arm_churn(self, churn: ChurnConfig) -> None:
        population = self._population
        if churn.fraction < 1.0:
            count = max(1, round(churn.fraction * len(population)))
            rng = self._rngs.stream("faults", "churn-members")
            population = sorted(rng.sample(population, count))
        for node_id in population:
            if node_id not in self._nodes:
                # Sharded worlds: the membership draw covers the global
                # population, but a shard only drives its own residents.
                # Skipping is draw-safe — session/rest times come from
                # this node's private ("faults", "churn", id) stream.
                continue
            stream = self._rngs.stream("faults", "churn", node_id)
            first = (self.start + churn.start_at
                     + churn.draw(stream, churn.mean_session_s))
            if first <= self.horizon:
                self.sim.call_at(first, self._churn_leave, node_id)

    def _churn_leave(self, node_id: int) -> None:
        churn = self.config.churn
        node = self._nodes.get(node_id)
        if node is not None and not node.depleted:
            self._apply("crash", node)
        stream = self._rngs.stream("faults", "churn", node_id)
        back = self.sim.now + churn.draw(stream, churn.mean_rest_s)
        if back <= self.horizon:
            self.sim.call_at(back, self._churn_rejoin, node_id)

    def _churn_rejoin(self, node_id: int) -> None:
        churn = self.config.churn
        node = self._nodes.get(node_id)
        if node is not None and not node.depleted:
            self._apply("recover", node)
        stream = self._rngs.stream("faults", "churn", node_id)
        nxt = self.sim.now + churn.draw(stream, churn.mean_session_s)
        if nxt <= self.horizon:
            self.sim.call_at(nxt, self._churn_leave, node_id)

    # -- regional outages -----------------------------------------------------

    def _begin_outage(self, outage: RegionalOutage) -> None:
        from repro.sim.space import Vec2
        center = Vec2(outage.center[0], outage.center[1])
        members = self.medium.nodes_within(center, outage.radius_m)
        kind = "crash" if outage.kind == "crash" else "silence"
        hit: List[int] = []
        for node in members:
            # A node the outage actually touched gets the matching undo
            # at window end.  Both kinds only act on live processes
            # (crashing a crashed node is a no-op, a dead radio cannot
            # be jammed), so nodes already downed by *another* mechanism
            # — churn, a plan crash — are left for that mechanism's own
            # recovery.  A silenced-but-alive node IS touched: a crash
            # outage kills and later restarts it (its silence window
            # keeps the radio off until its own restore), and silence
            # windows nest via Node._silence_depth.
            was_alive = node.alive
            self._apply(kind, node)
            if was_alive:
                hit.append(node.id)
        self.timeline.outages.append((self.sim.now, len(hit)))
        undo = "recover" if kind == "crash" else "restore"
        self.sim.schedule(outage.duration, self._fire, undo, hit)

    # -- lifecycle ------------------------------------------------------------

    def finalize(self) -> FaultTimeline:
        """Close every still-open down interval at the current instant
        (end of run) and hand the timeline over; nodes that never came
        back count as down through the window end."""
        now = self.sim.now
        for node_id, since in sorted(self._down_since.items()):
            self.timeline.down_intervals.setdefault(
                node_id, []).append((since, now))
        self._down_since.clear()
        return self.timeline

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FaultInjector nodes={len(self._nodes)} "
                f"transitions={self.timeline.down_transitions}>")
