"""Regional outages: a spatial area loses its radios for a window.

Models localised disruptions — a jammed conference hall, a powered-down
city block, a tunnel — as a circular region whose member nodes all fail
at the same instant and come back ``duration`` seconds later.  Membership
is resolved *at outage start* against the nodes' exact positions (via
:meth:`~repro.net.medium.WirelessMedium.nodes_within`), so a node that drives into the region mid-outage is unaffected
and a member that drives out stays down until the outage lifts — the
radio was hit, not the coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

#: How a regional outage takes its members down.
#:
#: ``silence`` — radios jammed: deaf and mute, protocol state survives,
#:              queued frames flush when the outage lifts.
#: ``crash``   — fail-stop: members lose all volatile state and restart
#:              empty when the outage lifts (a regional power cut).
OUTAGE_KINDS = ("silence", "crash")


@dataclass(frozen=True)
class RegionalOutage:
    """One circular outage window.

    ``at`` is seconds after the start of the measurement window;
    ``center`` is in world coordinates (metres), matching the mobility
    area.  Every node whose exact position lies within ``radius_m`` of
    ``center`` at outage start is taken down for ``duration`` seconds.
    """

    at: float
    duration: float
    center: Tuple[float, float]
    radius_m: float
    kind: str = "silence"

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError(f"outage at {self.at}s precedes the "
                             f"measurement window")
        if self.duration <= 0:
            raise ValueError("outage duration must be positive")
        if self.radius_m <= 0:
            raise ValueError("outage radius_m must be positive")
        if len(self.center) != 2:
            raise ValueError(f"center must be (x, y): {self.center!r}")
        if self.kind not in OUTAGE_KINDS:
            raise ValueError(f"kind must be one of {OUTAGE_KINDS}: "
                             f"{self.kind!r}")

    def validate(self, duration: float) -> None:
        """Check the outage starts inside the measurement window."""
        if self.at >= duration:
            raise ValueError(
                f"outage at {self.at}s falls outside the measurement "
                f"window [0, {duration})")
