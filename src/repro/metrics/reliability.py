"""Reliability: the probability of event reception (Figs. 11-16).

The paper's reliability of an event is the fraction of processes subscribed
to the event's topic that receive it before its validity period ends
(e.g. "an event with a validity period of 180 seconds is received by 95 %
of the 120 devices", Section 1).  The publisher counts as having received
its own publication — it delivers it locally at publish time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.events import Event, EventId
from repro.metrics.collector import MetricsCollector


@dataclass(frozen=True)
class ReliabilityReport:
    """Delivery outcome of one event across its subscriber population."""

    event_id: EventId
    subscribers: int
    delivered_in_time: int
    delivered_late: int

    @property
    def reliability(self) -> float:
        """Fraction of subscribers that received the event in time."""
        if self.subscribers == 0:
            return 0.0
        return self.delivered_in_time / self.subscribers

    def __str__(self) -> str:
        return (f"{self.event_id}: {self.delivered_in_time}/"
                f"{self.subscribers} = {self.reliability:.1%}")


def event_reliability(collector: MetricsCollector, event: Event,
                      subscriber_ids: Iterable[int]) -> ReliabilityReport:
    """Compute one event's :class:`ReliabilityReport`.

    ``subscriber_ids`` is the population entitled to the event (determined
    by the scenario, which knows who subscribed to what); deliveries after
    the validity expiry are tallied separately as late.  ``collector`` is
    anything answering ``deliveries_of(event_id)``: the sim's collector or
    the rt runtime's :class:`~repro.rt.cluster.RtResult`.
    """
    subscriber_ids = list(subscriber_ids)
    times = collector.deliveries_of(event.event_id)
    in_time = 0
    late = 0
    for node_id in subscriber_ids:
        t = times.get(node_id)
        if t is None:
            continue
        if t <= event.expires_at:
            in_time += 1
        else:
            late += 1
    return ReliabilityReport(event_id=event.event_id,
                             subscribers=len(subscriber_ids),
                             delivered_in_time=in_time,
                             delivered_late=late)


def mean_reliability(reports: Sequence[ReliabilityReport]) -> float:
    """Average reliability over several events (Fig. 17-20 scenarios
    publish up to 20) or several publisher rotations (Figs. 13-16)."""
    if not reports:
        return 0.0
    return sum(r.reliability for r in reports) / len(reports)


def churn_aware_reliability(collector: MetricsCollector,
                            events: Sequence[Event],
                            subscriber_ids: Iterable[int],
                            up_during) -> float:
    """Mean reliability with churn-aware denominators.

    ``up_during(node_id, start, end) -> bool`` reports whether a node was
    available at any point of ``[start, end]`` (e.g.
    ``FaultTimeline.was_up_during``).  A subscriber that was down for an
    event's *entire* validity window could never have received it, so it
    is excluded from that event's denominator — the plain reliability
    metric would otherwise report protocol failures for deliveries that
    were physically impossible.
    """
    subscriber_ids = list(subscriber_ids)
    reports = []
    for event in events:
        eligible = [i for i in subscriber_ids
                    if up_during(i, event.published_at, event.expires_at)]
        reports.append(event_reliability(collector, event, eligible))
    return mean_reliability(reports)


def recovery_latencies(collector: MetricsCollector,
                       events: Sequence[Event],
                       subscriber_ids: Iterable[int],
                       recoveries: Sequence[tuple]) -> List[float]:
    """Catch-up delays after recoveries, one sample per caught-up event.

    ``recoveries`` is a sequence of ``(time, node_id)`` up-transitions
    (e.g. ``FaultTimeline.recoveries``).  A ``(node, event)`` pair
    contributes at most **one** sample: the event must have been
    published before some recovery of that subscriber, still be valid
    then, and its *first* delivery to the node must land after that
    recovery (and before expiry).  The sample is measured from the
    *latest* qualifying recovery — the one that actually performed the
    catch-up — so a flapping node's earlier recoveries neither
    duplicate the sample nor contaminate it with interleaved downtime.
    This is the store-and-forward catch-up latency the paper's validity
    periods exist to bound.
    """
    subscribers = set(subscriber_ids)
    recovery_times: dict = {}
    for recovered_at, node_id in recoveries:
        if node_id in subscribers:
            recovery_times.setdefault(node_id, []).append(recovered_at)
    out: List[float] = []
    for event in events:
        deliveries = collector.deliveries_of(event.event_id)
        for node_id, times in recovery_times.items():
            delivered_at = deliveries.get(node_id)
            if delivered_at is None or delivered_at > event.expires_at:
                continue
            qualifying = [t for t in times
                          if event.published_at <= t <= event.expires_at
                          and t < delivered_at]
            if qualifying:
                out.append(delivered_at - max(qualifying))
    return out


def reliability_spread(reports: Sequence[ReliabilityReport]) -> float:
    """Max-min reliability across reports — the paper's Fig. 15 metric
    ("difference of reliability between the publishers")."""
    if not reports:
        return 0.0
    values = [r.reliability for r in reports]
    return max(values) - min(values)
