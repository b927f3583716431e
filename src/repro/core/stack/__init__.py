"""Composable protocol-stack layers.

Every dissemination protocol in this repository — the paper's frugal
protocol, the Section 5.2 flooding comparators and the lpbcast-style
gossip baseline — is assembled from four layers, each written against the
minimal :class:`repro.core.base.Host` interface:

* **membership** (:mod:`repro.core.stack.membership`) — who is around and
  what do they want: heartbeat beaconing, a neighbour table, timeout GC.
  Two implementations: the frugal protocol's adaptive
  :class:`HeartbeatMembership` (``computeHBDelay``/``computeNGCDelay``,
  paper Fig. 8) and the flooder's flat :class:`TTLMembership`.
* **store** (:mod:`repro.core.stack.store`) — which events a process
  holds: a bounded or unbounded event table with validity expiry and
  pluggable eviction from :mod:`repro.core.gc`.
* **delivery** (:mod:`repro.core.stack.delivery`) — what reaches the
  application: subscription matching, exactly-once hand-off, duplicate
  and parasite accounting.
* **forwarding** (:mod:`repro.core.stack.forwarding`) — when held events
  go back on the air: the frugal back-off/suppression contention
  (:class:`BackoffForwarding`), the flooders' fixed-period rebroadcast
  (:class:`PeriodicFloodForwarding`), the gossip rounds of the
  lpbcast-style baseline (:class:`GossipForwarding`) and the
  broadcast-storm schemes' single rebroadcast (:class:`OneShotForwarding`).

All layers share one :class:`repro.core.base.ProtocolCounters` instance
per stack.  :class:`StackProtocol` (:mod:`repro.core.stack.protocol`)
takes the layers through its constructor and owns the lifecycle and the
one reception loop, so a protocol is a declaration: its layers plus a
small hook (see ``examples/custom_protocol.py`` for a from-scratch
declaration, and :mod:`repro.core.registry` for plugging the result
into the experiment harness).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.core.base": ("ProtocolCounters",),
    "repro.core.stack.delivery": ("DeliveryLayer",),
    "repro.core.stack.forwarding": ("BackoffForwarding", "GossipForwarding",
                                    "OneShotForwarding",
                                    "PeriodicFloodForwarding"),
    "repro.core.stack.membership": ("HeartbeatMembership", "TTLMembership"),
    "repro.core.stack.protocol": ("StackProtocol",),
    "repro.core.stack.store": ("EventStore",),
})
