"""Medium-level measurement of the paper's four frugality metrics.

The collector hooks the wireless medium's observability callbacks and the
nodes' delivery callbacks; protocols are never instrumented directly, so
the same collector measures the frugal protocol and the flooding baselines
on exactly equal footing (Section 5.2):

* **bandwidth per process** — bytes transmitted (heartbeats + event-id
  lists + event payloads), Fig. 17;
* **events sent per process** — event payload transmissions, Fig. 18;
* **duplicates received per process** — receptions, by a subscribed
  process, of an event payload it had already received, Fig. 19;
* **parasite events received per process** — receptions of an event
  payload whose topic the receiver did not subscribe to, Fig. 20.

Delivery timestamps (for reliability, Figs. 11-16) are recorded via each
node's ``on_deliver`` hook.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Set, Tuple

from repro.core.base import ProtocolCounters
from repro.core.events import Event, EventId
from repro.core.topics import entitled
from repro.net.messages import EventBatch, Message

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.medium import WirelessMedium
    from repro.net.node import Node


@dataclass
class NodeStats:
    """Per-node tallies, all monotonically increasing."""

    bytes_sent: int = 0
    bytes_by_kind: Dict[str, int] = field(
        default_factory=lambda: defaultdict(int))
    frames_sent: int = 0
    events_sent: int = 0
    duplicates_received: int = 0
    parasites_received: int = 0
    useful_receptions: int = 0


class MetricsCollector:
    """Attach to a medium (and its nodes) and tally the paper's metrics."""

    def __init__(self, medium: WirelessMedium):
        self.medium = medium
        self.stats: Dict[int, NodeStats] = defaultdict(NodeStats)
        self.delivery_times: Dict[EventId, Dict[int, float]] = \
            defaultdict(dict)
        self.published: Dict[EventId, Event] = {}
        self._seen_receptions: Set[Tuple[int, EventId]] = set()
        self._frozen = False
        #: Snapshot of the summed per-protocol stack counters, filled by
        #: :meth:`capture_protocol_totals` at run end (picklable, so it
        #: survives the worker->parent transfer and the result cache).
        self.protocol_totals: Optional[ProtocolCounters] = None
        self._protocol_baseline: Optional[ProtocolCounters] = None
        medium.on_transmit = self._on_transmit
        medium.on_receive = self._on_receive

    # -- wiring ---------------------------------------------------------------

    def track_node(self, node: Node) -> None:
        """Subscribe to a node's delivery callback (idempotent)."""
        node.on_deliver = self._on_deliver
        self.stats[node.id]   # materialise the row even if it stays zero

    def record_publication(self, event: Event) -> None:
        """Register an event of interest for reliability accounting."""
        self.published[event.event_id] = event

    def mark_protocol_baseline(self, nodes) -> None:
        """Snapshot the protocol counters at measurement-window start.

        Protocol counters are lifetime-monotonic; recording them when
        warm-up ends lets :meth:`capture_protocol_totals` report the
        measurement window only — the same window every other metric of
        this collector uses (warm-up traffic is frozen out).
        """
        self._protocol_baseline = ProtocolCounters.total(
            node.protocol.counters for node in nodes)

    def capture_protocol_totals(self, nodes) -> ProtocolCounters:
        """Snapshot the sum of the nodes' unified protocol counters.

        Protocol counters are the *protocol-level* view (what each stack
        believes it sent/delivered/dropped), complementary to this
        collector's medium-level tallies; the snapshot is a plain
        dataclass, so it stays readable after the collector detaches
        from the world on pickling.  If :meth:`mark_protocol_baseline`
        ran (as :func:`~repro.harness.scenario.run_scenario` does at
        warm-up end), the totals cover the measurement window only.
        """
        totals = ProtocolCounters.total(
            node.protocol.counters for node in nodes)
        if self._protocol_baseline is not None:
            totals = totals.minus(self._protocol_baseline)
        self.protocol_totals = totals
        return self.protocol_totals

    def freeze(self) -> None:
        """Stop counting (used to exclude post-measurement-window traffic)."""
        self._frozen = True

    def resume(self) -> None:
        self._frozen = False

    # -- medium hooks -----------------------------------------------------------

    def _on_transmit(self, sender_id: int, message: Message,
                     size_bytes: int) -> None:
        if self._frozen:
            return
        row = self.stats[sender_id]
        row.bytes_sent += size_bytes
        row.bytes_by_kind[message.kind] += size_bytes
        row.frames_sent += 1
        if isinstance(message, EventBatch):
            row.events_sent += len(message.events)

    def _on_receive(self, receiver_id: int, message: Message) -> None:
        if self._frozen or not isinstance(message, EventBatch):
            return
        node = self.medium.nodes.get(receiver_id)
        if node is None:
            return
        subscriptions = node.protocol.subscriptions
        row = self.stats[receiver_id]
        for event in message.events:
            if not entitled(subscriptions, event.topic):
                row.parasites_received += 1
                continue
            key = (receiver_id, event.event_id)
            if key in self._seen_receptions:
                row.duplicates_received += 1
            else:
                self._seen_receptions.add(key)
                row.useful_receptions += 1

    # -- pickling (parallel execution / result cache) ---------------------------

    def __getstate__(self) -> dict:
        """Pickle the measurements, not the world.

        The collector holds the only path from a
        :class:`~repro.harness.scenario.ScenarioResult` back into the live
        simulation graph (medium -> nodes -> simulator -> pending timers),
        megabytes of state that no post-run consumer needs.  Dropping the
        medium here is what makes results cheap to ship from worker
        processes and to store in the on-disk result cache.  The unpickled
        collector is *detached*: every aggregate/report method works, but
        it can no longer observe a running medium.
        """
        state = dict(self.__dict__)
        state["medium"] = None
        # defaultdicts pickle fine, but plain containers keep the payload
        # schema independent of construction-time factories.
        state["stats"] = dict(self.stats)
        state["delivery_times"] = {k: dict(v) for k, v
                                   in self.delivery_times.items()}
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        stats = defaultdict(NodeStats)
        stats.update(state["stats"])
        self.stats = stats
        times: Dict[EventId, Dict[int, float]] = defaultdict(dict)
        times.update(state["delivery_times"])
        self.delivery_times = times

    def _on_deliver(self, node: Node, event: Event) -> None:
        if self._frozen:
            return   # outside the measurement window (warm-up / post-run)
        times = self.delivery_times[event.event_id]
        times.setdefault(node.id, node.sim.now)

    # -- aggregates ----------------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.stats)

    def total_bytes(self) -> int:
        return sum(s.bytes_sent for s in self.stats.values())

    def bytes_by_kind(self) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for s in self.stats.values():
            for kind, n in s.bytes_by_kind.items():
                out[kind] += n
        return dict(out)

    def _per_process(self, total: float) -> float:
        n = self.node_count
        return total / n if n else 0.0

    def bandwidth_per_process_bytes(self) -> float:
        """Fig. 17's measurement (we report bytes; the paper plots kb)."""
        return self._per_process(self.total_bytes())

    def events_sent_per_process(self) -> float:
        """Fig. 18's measurement."""
        return self._per_process(
            sum(s.events_sent for s in self.stats.values()))

    def duplicates_per_process(self) -> float:
        """Fig. 19's measurement."""
        return self._per_process(
            sum(s.duplicates_received for s in self.stats.values()))

    def parasites_per_process(self) -> float:
        """Fig. 20's measurement."""
        return self._per_process(
            sum(s.parasites_received for s in self.stats.values()))

    def deliveries_of(self, event_id: EventId) -> Dict[int, float]:
        """Node id -> delivery time for one event."""
        return dict(self.delivery_times.get(event_id, {}))

    def __repr__(self) -> str:   # pragma: no cover - debugging aid
        return (f"<MetricsCollector nodes={self.node_count} "
                f"bytes={self.total_bytes()}>")
