"""Baseline (1): simple flooding.

"An event is sent every second by a process to all its neighbors which in
turn, irrespective of their interests, propagates it with the same
technique" (Section 5.2).  Every process stores and re-floods every valid
event it hears, subscribed or not — 100 % reliability by construction, at
maximal bandwidth, duplicate and parasite cost.
"""

from __future__ import annotations

from repro.baselines.base import FloodingProtocol


class SimpleFlooding(FloodingProtocol):
    """Flood everything, interests ignored."""


def make_simple_flooding(config) -> SimpleFlooding:
    """Registry factory for ``simple-flooding``: the 1 s flood period."""
    return SimpleFlooding()
