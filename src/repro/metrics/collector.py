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
node's ``on_deliver`` hook.  When the trial closes, the collector hands
everything over as a :class:`MetricsRecord`: plain data, which is what a
result carries and what the aggregates are asked of.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Set, Tuple

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


#: The medium's frame counters a :class:`MetricsRecord` carries.
FRAME_COUNTERS = ("frames_sent", "frames_delivered", "frames_collided",
                  "frames_lost_random", "frames_lost_fault")


@dataclass
class MetricsRecord:
    """What a :class:`MetricsCollector` measured over one trial's window,
    handed over at close; plain data that pickles as is.
    ``protocol_totals`` is the protocol-level view (what each stack
    believes it sent/delivered/dropped) beside the medium-level ``stats``.
    """

    stats: Dict[int, NodeStats]
    delivery_times: Dict[EventId, Dict[int, float]]
    published: Dict[EventId, Event]
    protocol_totals: ProtocolCounters
    #: The medium's :data:`FRAME_COUNTERS` at close (warm-up included);
    #: ``None`` for a merged sharded run, which has no single medium.
    frames: Optional[Dict[str, int]] = None

    @classmethod
    def merge(cls, records: Sequence[MetricsRecord]) -> MetricsRecord:
        """Union per-shard records (disjoint node rows) in canonical
        (node id, event id) order: summaries sum floats in dict order,
        so only this makes their last ulp shard-count-invariant (K=1
        included)."""
        stats: Dict[int, NodeStats] = {}
        times: Dict[EventId, Dict[int, float]] = {}
        published: Dict[EventId, Event] = {}
        for record in records:
            stats.update(record.stats)
            for event_id, per_node in record.delivery_times.items():
                times.setdefault(event_id, {}).update(per_node)
            published.update(record.published)
        event_key = lambda eid: (eid.publisher, eid.seq)  # noqa: E731
        return cls(
            stats={nid: stats[nid] for nid in sorted(stats)},
            delivery_times={
                eid: {nid: times[eid][nid] for nid in sorted(times[eid])}
                for eid in sorted(times, key=event_key)},
            published={eid: published[eid]
                       for eid in sorted(published, key=event_key)},
            protocol_totals=ProtocolCounters.total(
                record.protocol_totals for record in records))

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


class MetricsCollector:
    """Attach to a medium (and its nodes) and tally the paper's metrics;
    :meth:`record` hands the tallies over as a :class:`MetricsRecord`."""

    def __init__(self, medium: WirelessMedium):
        self.medium = medium
        self.stats: Dict[int, NodeStats] = defaultdict(NodeStats)
        self.delivery_times: Dict[EventId, Dict[int, float]] = \
            defaultdict(dict)
        self.published: Dict[EventId, Event] = {}
        self._seen_receptions: Set[Tuple[int, EventId]] = set()
        self._frozen = False
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
        warm-up ends lets :meth:`record` report the measurement window
        only — the same window every other metric of this collector
        uses (warm-up traffic is frozen out).
        """
        self._protocol_baseline = ProtocolCounters.total(
            node.protocol.counters for node in nodes)

    def record(self, nodes) -> MetricsRecord:
        """A snapshot of what was measured so far; ``protocol_totals``
        sums the ``nodes``' counters, over the window only once
        :meth:`mark_protocol_baseline` ran."""
        totals = ProtocolCounters.total(
            node.protocol.counters for node in nodes)
        if self._protocol_baseline is not None:
            totals = totals.minus(self._protocol_baseline)
        return MetricsRecord(
            stats={nid: replace(row, bytes_by_kind=row.bytes_by_kind.copy())
                   for nid, row in self.stats.items()},
            delivery_times={eid: dict(per_node) for eid, per_node
                            in self.delivery_times.items()},
            published=dict(self.published),
            protocol_totals=totals,
            frames={name: getattr(self.medium, name)
                    for name in FRAME_COUNTERS})

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

    def _on_deliver(self, node: Node, event: Event) -> None:
        if self._frozen:
            return   # outside the measurement window (warm-up / post-run)
        times = self.delivery_times[event.event_id]
        times.setdefault(node.id, node.sim.now)
