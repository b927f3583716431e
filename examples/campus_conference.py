#!/usr/bin/env python
"""Topic hierarchies at work: conference announcements across a campus.

The paper's running example is a hierarchy like
``.grenoble.conferences.middleware``: subscribing to a topic entitles you
to *all its subtopics*.  This example drives that semantics end to end on
the city-section campus:

* some attendees subscribe broadly (``.epfl.conferences``) and receive
  everything below it,
* some narrowly (``.epfl.conferences.middleware.keynotes``),
* one process only cares about ``.epfl.cafeteria`` — every conference
  event is a parasite for it, and the frugal protocol keeps it untouched.

Events are published on three different levels of the hierarchy and the
run prints, per process, what it received versus what it was entitled to.

Run::

    python examples/campus_conference.py [seed]
"""

from __future__ import annotations

import sys

from repro.core import FrugalConfig, FrugalPubSub, Topic
from repro.core.events import EventFactory
from repro.core.topics import subscription_matches_event
from repro.harness.scenario import CitySectionSpec
from repro.metrics import MetricsCollector
from repro.net import Node, RadioConfig, WirelessMedium
from repro.sim import RngRegistry, Simulator

ATTENDEES = [
    # (name, subscription)
    ("ana",   ".epfl.conferences"),
    ("bram",  ".epfl.conferences.middleware"),
    ("chloe", ".epfl.conferences.middleware.keynotes"),
    ("dani",  ".epfl.conferences"),
    ("emil",  ".epfl.conferences.middleware"),
    ("fay",   ".epfl.conferences.middleware.keynotes"),
    ("gus",   ".epfl.cafeteria"),          # not interested in conferences
    ("hana",  ".epfl.conferences"),
]

ANNOUNCEMENTS = [
    # (publisher index, topic, what)
    (0, ".epfl.conferences.middleware",
     "Registration desk moved to BC building"),
    (1, ".epfl.conferences.middleware.keynotes",
     "Keynote starts 10 minutes late"),
    (3, ".epfl.conferences",
     "Shuttle to the banquet leaves at 19:00"),
]


def main(seed: int = 5) -> None:
    sim = Simulator()
    rngs = RngRegistry(seed)
    medium = WirelessMedium(sim, RadioConfig.paper_city_section(),
                            rng=rngs.stream("medium"))
    collector = MetricsCollector(medium)
    spec = CitySectionSpec(map_seed=7)

    nodes = []
    for i, (name, sub) in enumerate(ATTENDEES):
        protocol = FrugalPubSub(FrugalConfig.paper_city_section())
        node = Node(i, sim, medium, spec.build(i), protocol,
                    rngs.stream("node", i))
        protocol.subscribe(sub)
        collector.track_node(node)
        nodes.append(node)
    for node in nodes:
        node.start()
    sim.run(until=30.0)

    published = []

    def announce(publisher: int, topic: str, text: str) -> None:
        factory = EventFactory(publisher)
        event = factory.create(topic, validity=180.0, now=sim.now,
                               payload=text)
        published.append(event)
        collector.record_publication(event)
        nodes[publisher].protocol.publish(event)

    base = sim.now
    for offset, (publisher, topic, text) in enumerate(ANNOUNCEMENTS):
        sim.call_at(base + 5.0 + 25.0 * offset, announce, publisher,
                    topic, text)
    sim.run(until=base + 240.0)
    record = collector.record(nodes)

    print("Announcements published:")
    for event in published:
        print(f"  {event.topic}  ->  {event.payload!r}")

    print("\nPer-attendee outcome (. = entitled+received, "
          "MISS = entitled but not received, - = not entitled):")
    for i, (name, sub) in enumerate(ATTENDEES):
        marks = []
        for event in published:
            entitled = subscription_matches_event([Topic(sub)], event.topic)
            got = i in record.deliveries_of(event.event_id)
            marks.append("." if entitled and got
                         else ("MISS" if entitled else "-"))
        stats = record.stats[i]
        print(f"  {name:6s} {sub:42s} {' '.join(m.ljust(4) for m in marks)}"
              f"  parasites={stats.parasites_received}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 5)
