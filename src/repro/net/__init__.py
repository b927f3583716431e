"""Wireless network substrate.

The paper runs its protocol directly on an 802.11b broadcast MAC inside
Qualnet.  This subpackage is our from-scratch equivalent:

* :mod:`repro.net.radio` — transmit power / receiver sensitivity / path
  loss math that derives communication radii (the paper's 442 m RWP and
  44 m city-section ranges are presets),
* :mod:`repro.net.messages` — the three protocol messages (heartbeat,
  event-id list, event batch) with an explicit wire-size model so
  bandwidth accounting matches the paper's byte counts (50 B heartbeats,
  128-bit event ids, 400 B events),
* :mod:`repro.net.medium` — a shared broadcast medium with carrier sense,
  finite transmission durations and receiver-side collisions (no capture),
* :mod:`repro.net.node` — binds a protocol + mobility model + metrics to
  the medium and exposes the small host interface protocols program to.

It also surfaces :class:`~repro.core.base.ProtocolCounters`, the unified
picklable per-stack counter dataclass every protocol layer writes into
(defined next to the host interface to keep the import graph acyclic;
the network layer is where the counts become observable, via
``MetricsCollector.record``).

The medium's configuration (:class:`~repro.net.radio.MediumConfig`)
lives beside the radio's, so a scenario config is readable without
loading the medium; names resolve lazily (:mod:`repro._lazy`).
"""

from repro._lazy import lazy_exports

__all__ = [
    "PathLossModel",
    "RadioConfig",
    "dbm_to_mw",
    "mw_to_dbm",
    "free_space_path_loss_db",
    "two_ray_path_loss_db",
    "Heartbeat",
    "EventIdList",
    "EventBatch",
    "Message",
    "SizeModel",
    "WirelessMedium",
    "MediumConfig",
    "Transmission",
    "Node",
    "ProtocolCounters",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.base": ("ProtocolCounters",),
    "repro.net.radio": ("PathLossModel", "RadioConfig", "MediumConfig",
                        "dbm_to_mw", "mw_to_dbm", "free_space_path_loss_db",
                        "two_ray_path_loss_db"),
    "repro.net.messages": ("Heartbeat", "EventIdList", "EventBatch",
                           "Message", "SizeModel"),
    "repro.net.medium": ("WirelessMedium", "Transmission"),
    "repro.net.node": ("Node",),
})
