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

Each comparator runs at one fixed setting, so a protocol name is a
complete description: the flooders rebroadcast every 1 s, the
probabilistic scheme forwards with ``p = 0.6``, the counter scheme
stops at ``C = 3`` copies and gossip runs the :class:`GossipConfig`
defaults.  Each module exposes a ``make_<name>(config)`` factory that
builds exactly that; the protocol registry (:mod:`repro.core.registry`)
names those factories as data and imports a module the first time its
protocol is instantiated, so validating a scenario config never loads
this package.  Another setting is another protocol: construct the
class with it and register the composition under a name of its own.
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
