#!/usr/bin/env python
"""Compose your own dissemination protocol from the public stack layers.

The protocol stack (:mod:`repro.core.stack`) splits every dissemination
strategy into four swappable layers — membership, store, delivery,
forwarding — and the registry (:mod:`repro.core.registry`) plugs any
composition into the experiment harness by name.  This example builds
**selective gossip**: the lpbcast-style gossip rounds of the built-in
``gossip`` baseline, but with the neighbours'-interests flooder's TTL
membership bolted on so a node only spends a round when some *current*
neighbour is interested — a hybrid no built-in offers.  It is a
:class:`~repro.core.stack.StackProtocol` declaration plus one gated
forwarding layer: 60 lines, none of which touch the harness or re-type
the reception loop.

Run::

    python examples/custom_protocol.py [seed]
"""

from __future__ import annotations

import sys

from repro.core import registry
from repro.core.base import ProtocolCounters
from repro.core.stack import (DeliveryLayer, EventStore, GossipForwarding,
                              StackProtocol, TTLMembership)
from repro.harness import QUICK, ParallelRunner, rwp_scenario
from repro.harness.reporting import format_table


class GatedGossipForwarding(GossipForwarding):
    """Gossip rounds that are spent only on events some current
    neighbour of the membership view is interested in."""

    def __init__(self, counters, membership, **gossip):
        super().__init__(counters, **gossip)
        self.membership = membership

    def _tick(self) -> None:
        now = self._host.now
        self._store.purge_expired(now)
        self.membership.prune(now)
        rows = [row for row in self._store
                if self.membership.any_interested(row.topic)]
        if not rows:
            return
        if self._host.rng.random() >= self.forward_probability:
            return
        self.broadcast(tuple(row.event for row in rows[-self.fanout:]))


class SelectiveGossip(StackProtocol):
    """Gossip rounds, but only while an interested neighbour is around.

    Declaration: TTL membership (heartbeats + lazily pruned neighbour
    view), a bounded FIFO digest buffer, and the membership-gated gossip
    rounds above.  The stack supplies the lifecycle and the reception
    loop: every event heard is buffered, subscribed ones are delivered
    exactly once.
    """

    def __init__(self, probability: float = 0.75, fanout: int = 8,
                 buffer_capacity: int = 32):
        # Defaults mirror the built-in GossipConfig, so the comparison
        # below isolates exactly one variable: the membership gate.
        counters = ProtocolCounters()
        delivery = DeliveryLayer(counters)
        membership = TTLMembership(
            counters, heartbeat_period=1.0, ttl=2.5,
            subscriptions=lambda: delivery.subscriptions, jitter=0.05)
        super().__init__(
            counters, delivery, EventStore.bounded_fifo(buffer_capacity),
            GatedGossipForwarding(counters, membership, period=1.0,
                                  jitter=0.05,
                                  forward_probability=probability,
                                  fanout=fanout),
            membership)

    def on_start(self) -> None:
        # Beacons before rounds: each task draws its first jitter as it
        # is armed, so the order is part of the outcome.
        self._running = True
        self.membership.start()
        self.forwarding.start()

    def publish(self, event) -> None:
        self.store.store(event, self._require_attached().now)
        self.delivery.deliver_once(event)
        self.forwarding.broadcast((event,))


def main(seed: int = 0) -> None:
    """Register the custom stack and race it against two built-ins."""
    registry.register("selective-gossip", lambda cfg: SelectiveGossip(),
                      replace=True)
    try:
        scale = QUICK.with_seed_base(seed)
        protocols = ["frugal", "gossip", "selective-gossip"]
        # 20 % subscribers: most neighbourhoods contain no interested
        # node, which is exactly when gating rounds on membership pays
        # off.
        configs = {
            proto: rwp_scenario(scale, 10.0, 10.0, validity=120.0,
                                interest=0.2, n_events=5,
                                protocol=proto, duration=120.0)
            for proto in protocols
        }
        print(f"Custom protocol 'selective-gossip' vs two built-ins "
              f"({scale.rwp_processes} processes, 20% subscribers, "
              f"{len(scale.seed_list())} seeds)\n")
        outcomes = ParallelRunner().run_matrix(configs, scale.seed_list())

        rows = []
        for proto in protocols:
            summary = outcomes[proto].summary()
            rows.append({
                "protocol": proto,
                "reliability": round(summary["reliability"].mean, 3),
                "bandwidth [kB]": round(
                    summary["bandwidth_bytes"].mean / 1000.0, 2),
                "duplicates": round(summary["duplicates"].mean, 1),
                "parasites": round(summary["parasites"].mean, 1),
            })
        print(format_table(rows))

        blind = rows[1]
        gated = rows[2]
        if gated["bandwidth [kB]"] > 0:
            factor = blind["bandwidth [kB]"] / gated["bandwidth [kB]"]
            print(f"\nMembership gating changes selective-gossip's "
                  f"airtime by {factor:.1f}x vs blind gossip on this "
                  f"scenario (heartbeats included in its bill).")
    finally:
        registry.unregister("selective-gossip")


if __name__ == "__main__":
    main(seed=int(sys.argv[1]) if len(sys.argv) > 1 else 0)
