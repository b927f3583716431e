"""Measurement layer: the paper's four frugality metrics plus reliability.

Everything is measured at the *medium* level (bytes on air, receptions)
and the *application* level (deliveries), never inside a protocol — so the
frugal protocol and the flooding baselines are scored by the same ruler.
Names resolve lazily (:mod:`repro._lazy`): reliability over a cached
result needs neither the medium nor the tracer.
"""

from repro._lazy import lazy_exports

__all__ = [
    "MetricsCollector",
    "MetricsRecord",
    "NodeStats",
    "ReliabilityReport",
    "churn_aware_reliability",
    "event_reliability",
    "mean_reliability",
    "recovery_latencies",
    "reliability_spread",
    "ProtocolTracer",
    "TraceRecord",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.metrics.collector": ("MetricsCollector", "MetricsRecord",
                                "NodeStats"),
    "repro.metrics.reliability": ("ReliabilityReport",
                                  "churn_aware_reliability",
                                  "event_reliability", "mean_reliability",
                                  "recovery_latencies",
                                  "reliability_spread"),
    "repro.metrics.trace": ("ProtocolTracer", "TraceRecord"),
})
