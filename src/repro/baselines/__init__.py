"""The dissemination strategies the frugal protocol is compared against.

The paper quantifies frugality against three flooding variants on
identical scenarios (Section 5.2): simple flooding (everything, always),
interests-aware flooding (only events the process wants) and
neighbors'-interests flooding (only events the process wants *and* some
neighbour wants), all rebroadcasting on a 1-second period.  Section 6
adds the broadcast-storm schemes (probabilistic and counter-based
one-shot forwarding), and the stack refactor contributed an
lpbcast-style gossip baseline (periodic probabilistic rounds over a
bounded digest buffer).

Each module exposes a ``make_<name>(config)`` factory; the protocol
registry (:mod:`repro.core.registry`) names those factories as data and
imports a module the first time its protocol is instantiated, so
validating a scenario config never loads this package.
"""

from repro.baselines.base import FloodingProtocol
from repro.baselines.simple_flooding import SimpleFlooding
from repro.baselines.interest_flooding import InterestAwareFlooding
from repro.baselines.neighbor_flooding import NeighborInterestFlooding
from repro.baselines.storm import CounterFlooding, GossipFlooding
from repro.baselines.gossip import GossipConfig, GossipPubSub

__all__ = [
    "FloodingProtocol",
    "SimpleFlooding",
    "InterestAwareFlooding",
    "NeighborInterestFlooding",
    "GossipFlooding",
    "CounterFlooding",
    "GossipConfig",
    "GossipPubSub",
]
