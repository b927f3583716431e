"""LoopbackCluster: N real UDP nodes running one scenario in-process.

The cluster is the rt twin of :func:`repro.harness.scenario.run_scenario`:
it takes the *same* :class:`~repro.harness.scenario.ScenarioConfig`, draws
the *same* subscriber population and per-node rng streams from the same
seed, attaches the *same* registry-built protocol stacks — but instead of
a discrete-event kernel each node gets an :class:`~repro.rt.host.AsyncioHost`
bound to its own ``127.0.0.1`` UDP socket, with every other node in its
static peer table (single-hop full mesh; the config's mobility and radio
model describe the sim half of a bridge comparison and are ignored here).

The run replays the scenario's structure on the wall clock (optionally
compressed by ``time_scale``): start all nodes, let them warm up, snapshot
counters, fire the scheduled publications, inject any
:class:`RtFault` crash/silence actions — the loopback subset of the fault
subsystem's vocabulary — and after the measurement window collect the same
:class:`~repro.core.base.ProtocolCounters` and per-event
:class:`~repro.metrics.ReliabilityReport` views the sim produces, plus
wire-level truth (datagrams and bytes actually sent through the kernel).
"""

from __future__ import annotations

import asyncio
import time as _wallclock
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core import registry
from repro.core.base import ProtocolCounters
from repro.core.events import Event, EventFactory, EventId
from repro.harness.scenario import (EVENT_TOPIC, OTHER_TOPIC, Publication,
                                    ScenarioConfig, select_subscribers)
from repro.metrics import (ReliabilityReport, event_reliability,
                           mean_reliability)
from repro.rt.host import AsyncioHost
from repro.sim import RngRegistry

#: Fault actions the loopback cluster can inject — the subset of the
#: fault subsystem's vocabulary that is meaningful without a radio model
#: (``drain`` needs the energy accountant, which is sim-only).
RT_FAULT_KINDS = ("crash", "recover", "silence", "restore")


@dataclass(frozen=True)
class RtFault:
    """One scheduled fault action against a cluster node.

    ``at`` is in virtual seconds relative to the end of warm-up — the
    same time base the scenario's publications and the fault subsystem's
    plans use.
    """

    at: float
    kind: str
    node: int

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError(f"fault time must be >= 0: {self.at}")
        if self.kind not in RT_FAULT_KINDS:
            raise ValueError(
                f"fault kind must be one of {RT_FAULT_KINDS}: "
                f"{self.kind!r}")
        if self.node < 0:
            raise ValueError(f"fault node must be >= 0: {self.node}")


@dataclass
class RtResult:
    """Outcome of one loopback cluster run.

    Mirrors the metric surface of
    :class:`~repro.harness.scenario.ScenarioResult` where both sides can
    measure the same thing (reliability, protocol counters) and adds the
    wire-level truth only a real network has (datagrams, bytes, rejected
    frames).
    """

    config: ScenarioConfig
    time_scale: float
    published_events: List[Event]
    subscriber_ids: List[int]
    #: ``{event_id: {node_id: virtual delivery time}}`` (first delivery).
    delivery_times: Dict[EventId, Dict[int, float]]
    per_node_counters: List[ProtocolCounters]
    frames_sent: int
    datagrams_sent: int
    wire_bytes_sent: int
    frames_rejected: int
    wallclock_s: float
    faults: Tuple[RtFault, ...] = field(default_factory=tuple)

    def counters(self) -> ProtocolCounters:
        """Summed measurement-window counters across all nodes."""
        return ProtocolCounters.total(self.per_node_counters)

    def deliveries_of(self, event_id: EventId) -> Dict[int, float]:
        """``{node_id: first delivery time}`` for one event (the
        :class:`~repro.metrics.collector.MetricsRecord` query of that
        name, so reliability scores both alike)."""
        return self.delivery_times.get(event_id, {})

    def per_event_reports(self) -> List[ReliabilityReport]:
        """One in-time delivery report per published event, by the
        sim's own rule (:func:`~repro.metrics.event_reliability`)."""
        return [event_reliability(self, event, self.subscriber_ids)
                for event in self.published_events]

    def reliability(self) -> float:
        """Mean measured reliability across the run's publications."""
        return mean_reliability(self.per_event_reports())

    def messages_per_node(self) -> float:
        """Mean protocol frames (heartbeats + id lists + batches) each
        node put on the wire during the measurement window — the rt
        counterpart of the sim's per-node overhead metric."""
        if not self.per_node_counters:
            return 0.0
        total = self.counters()
        frames = (total.heartbeats_sent + total.id_lists_sent +
                  total.batches_sent)
        return frames / len(self.per_node_counters)

    def summary(self) -> Dict[str, float]:
        """Headline measured metrics, flat (for rows and reports)."""
        return {
            "reliability": self.reliability(),
            "messages_per_node": self.messages_per_node(),
            "datagrams_sent": float(self.datagrams_sent),
            "wire_bytes_sent": float(self.wire_bytes_sent),
            "frames_rejected": float(self.frames_rejected),
            "wallclock_s": self.wallclock_s,
        }


class LoopbackCluster:
    """Run one scenario over real UDP sockets on the loopback interface.

    Construction validates the config's protocol against the registry
    (unknown names fail fast with the known-protocol list) and the fault
    schedule against the population; :meth:`run` owns its own event loop
    and returns an :class:`RtResult`.
    """

    def __init__(self, config: ScenarioConfig, *, time_scale: float = 1.0,
                 faults: Tuple[RtFault, ...] = ()):
        if time_scale <= 0:
            raise ValueError(f"time_scale must be positive: {time_scale=}")
        # Fail fast — with the full known-protocols list in the message —
        # before any sockets are bound.
        registry.get(config.protocol)
        for fault in faults:
            if fault.node >= config.n_processes:
                raise ValueError(
                    f"fault targets node {fault.node} but the cluster "
                    f"has only {config.n_processes} nodes")
        self.config = config
        self.time_scale = float(time_scale)
        self.faults = tuple(faults)

    def run(self) -> RtResult:
        """Execute the scenario on the cluster (blocking)."""
        return asyncio.run(self._run())

    async def _run(self) -> RtResult:
        """The async body of :meth:`run` (exposed for running loops)."""
        started = _wallclock.perf_counter()
        config = self.config
        scale = self.time_scale
        loop = asyncio.get_running_loop()
        rngs = RngRegistry(config.seed)
        subscriber_ids = select_subscribers(config, rngs)
        subscriber_set = set(subscriber_ids)

        hosts: List[AsyncioHost] = []
        transports: List[asyncio.DatagramTransport] = []
        try:
            for i in range(config.n_processes):
                protocol = registry.create(config.protocol, config)
                host = AsyncioHost(i, loop, protocol,
                                   rngs.stream("node", i),
                                   time_scale=scale)
                topic = EVENT_TOPIC if i in subscriber_set else OTHER_TOPIC
                protocol.subscribe(topic)
                transport, _ = await loop.create_datagram_endpoint(
                    lambda h=host: h, local_addr=("127.0.0.1", 0))
                hosts.append(host)
                transports.append(transport)

            # Wire the full-mesh peer tables only after every socket has
            # bound, so no node ever addresses an unbound peer.
            addrs = [t.get_extra_info("sockname") for t in transports]
            for host, transport, own in zip(hosts, transports, addrs):
                peers = [a for a in addrs if a is not own]
                host.set_network(transport, peers)

            # One shared epoch: all nodes agree what "virtual zero" is.
            epoch = loop.time()
            for host in hosts:
                host.set_epoch(epoch)
                host.start()

            # Warm-up: heartbeats mix, views form; traffic not counted.
            if config.warmup > 0:
                await asyncio.sleep(config.warmup / scale)
            baselines = [ProtocolCounters().add(h.protocol.counters)
                         for h in hosts]

            # Publications and faults are scheduled only now — after the
            # baseline snapshot — so a publish at offset 0 can never race
            # the warm-up accounting.  Offsets already behind the wall
            # clock fire as soon as the loop is idle, which is harmless.
            published: List[Event] = []
            factories: Dict[int, EventFactory] = {}

            def _do_publish(publisher_id: int, pub: Publication) -> None:
                factory = factories.setdefault(publisher_id,
                                               EventFactory(publisher_id))
                event = factory.create(
                    pub.topic or EVENT_TOPIC, validity=pub.validity,
                    now=hosts[publisher_id].now)
                published.append(event)
                hosts[publisher_id].protocol.publish(event)

            pending: List[asyncio.TimerHandle] = []
            for pub in config.publications:
                idx = pub.publisher if pub.publisher is not None else 0
                publisher_id = subscriber_ids[idx % len(subscriber_ids)]
                pending.append(loop.call_at(
                    epoch + (config.warmup + pub.at) / scale,
                    _do_publish, publisher_id, pub))

            actions = {"crash": lambda h: h.crash,
                       "recover": lambda h: h.recover,
                       "silence": lambda h: h.silence,
                       "restore": lambda h: h.unsilence}
            for fault in self.faults:
                pending.append(loop.call_at(
                    epoch + (config.warmup + fault.at) / scale,
                    actions[fault.kind](hosts[fault.node])))

            # The measurement window.
            end_at = epoch + (config.warmup + config.duration) / scale
            await asyncio.sleep(max(0.0, end_at - loop.time()))

            for handle in pending:
                handle.cancel()
            per_node = [h.protocol.counters.minus(base)
                        for h, base in zip(hosts, baselines)]
            published_ids = {e.event_id for e in published}
            delivery: Dict[EventId, Dict[int, float]] = {
                eid: {} for eid in published_ids}
            for host in hosts:
                for eid, t in host.delivery_times.items():
                    if eid in published_ids:
                        delivery[eid][host.id] = t

            return RtResult(
                config=config, time_scale=scale,
                published_events=published,
                subscriber_ids=subscriber_ids,
                delivery_times=delivery, per_node_counters=per_node,
                frames_sent=sum(h.frames_sent for h in hosts),
                datagrams_sent=sum(h.datagrams_sent for h in hosts),
                wire_bytes_sent=sum(h.wire_bytes_sent for h in hosts),
                frames_rejected=sum(h.frames_rejected for h in hosts),
                wallclock_s=_wallclock.perf_counter() - started,
                faults=self.faults)
        finally:
            for host in hosts:
                host.shutdown()
            for transport in transports:
                transport.close()
            # Give the loop one cycle to flush transport close callbacks.
            await asyncio.sleep(0)
