"""Baseline (2): interests-aware flooding.

"The processes, at every one second interval, propagate only the events
they are interested in" (Section 5.2).  A process stores and re-floods an
event only when it subscribed to the event's topic; parasite events are
dropped on reception (but were still transmitted at them — the medium-level
metrics charge that cost).
"""

from __future__ import annotations

from repro.baselines.base import FloodingProtocol


class InterestAwareFlooding(FloodingProtocol):
    """Flood only events the process itself subscribed to."""

    stores_parasites = False


def make_interest_flooding(config) -> InterestAwareFlooding:
    """Registry factory for ``interest-flooding``: the 1 s flood period."""
    return InterestAwareFlooding()
