"""The paper's primary contribution: the frugal topic-based pub/sub protocol.

Layout:

* :mod:`repro.core.topics` — hierarchical dot-separated topics and
  subscription matching,
* :mod:`repro.core.events` — events with identifiers, validity periods and
  forward counters,
* :mod:`repro.core.tables` — the two memory-bounded data structures of
  Section 4.1 (neighborhood table, event table) plus the events-to-send
  buffer,
* :mod:`repro.core.gc` — event-table eviction policies, including the
  paper's Equation 1,
* :mod:`repro.core.config` — protocol tunables (HBDelay, x, HB2BO, HB2NGC
  and friends, Section 4/5.1),
* :mod:`repro.core.base` — the protocol/host interfaces shared with the
  flooding baselines, plus the unified per-stack counters,
* :mod:`repro.core.stack` — the composable membership / store /
  delivery / forwarding layers every protocol is assembled from,
* :mod:`repro.core.registry` — the string-keyed protocol registry the
  harness dispatches through,
* :mod:`repro.core.protocol` — the three-phase frugal dissemination
  algorithm itself (Sections 4.2-4.4), composed from the stack layers.

Names resolve lazily (:mod:`repro._lazy`): the harness reads configs and
the registry without loading the protocol stack.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.core.topics": ("Topic", "TopicError", "covers", "related"),
    "repro.core.events": ("Event", "EventId"),
    "repro.core.config": ("FrugalConfig",),
    "repro.core.tables": ("NeighborhoodTable", "NeighborEntry", "EventTable",
                          "EventTableFull"),
    "repro.core.gc": ("EvictionPolicy", "ValidityForwardPolicy",
                      "FifoPolicy", "RandomPolicy", "RemainingValidityPolicy",
                      "gc_score"),
    "repro.core.base": ("PubSubProtocol", "Host", "ProtocolCounters"),
    "repro.core.registry": ("REGISTRY",),
    "repro.core.protocol": ("FrugalPubSub",),
})
