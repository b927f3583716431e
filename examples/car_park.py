#!/usr/bin/env python
"""The paper's motivating application: free-parking-spot dissemination.

"The cars leaving the car parks act as publishers and propagate the
information of free parking spots.  When receiving such information, other
cars, acting as subscribers, are able to locate the free place that is
closest to their destination" (paper, footnote 1 — the EPFL Free Car Parks
application).

Cars drive the synthetic campus street map (city-section mobility).  Each
car subscribes to the parking branch of the topic hierarchy — some to all
of campus (``.epfl.parking``), some only to one lot.  Cars that leave a
lot publish a free-spot event with a short validity (a spot does not stay
free for long); the run reports which cars learned of which spots in time.

Run::

    python examples/car_park.py [seed]
"""

from __future__ import annotations

import sys
from collections import defaultdict

from repro.core import FrugalConfig, FrugalPubSub
from repro.core.events import EventFactory
from repro.harness.scenario import CitySectionSpec
from repro.metrics import MetricsCollector
from repro.net import Node, RadioConfig, WirelessMedium
from repro.sim import RngRegistry, Simulator

LOTS = ["riponne", "ouchy", "flon"]
N_CARS = 12
SPOT_VALIDITY = 120.0          # a freed spot stays relevant for 2 minutes


def main(seed: int = 3) -> None:
    sim = Simulator()
    rngs = RngRegistry(seed)
    medium = WirelessMedium(sim, RadioConfig.paper_city_section(),
                            rng=rngs.stream("medium"))
    collector = MetricsCollector(medium)
    spec = CitySectionSpec(map_seed=7)

    # Build the fleet: car i subscribes to one lot, or to all of parking.
    nodes = []
    subscriptions = {}
    for i in range(N_CARS):
        protocol = FrugalPubSub(FrugalConfig.paper_city_section())
        node = Node(i, sim, medium, spec.build(i), protocol,
                    rngs.stream("node", i))
        if i % 3 == 0:
            topic = ".epfl.parking"                   # wants every lot
        else:
            topic = f".epfl.parking.{LOTS[i % len(LOTS)]}"
        protocol.subscribe(topic)
        subscriptions[i] = topic
        collector.track_node(node)
        nodes.append(node)

    for node in nodes:
        node.start()
    sim.run(until=30.0)                               # let traffic mix

    # Three cars leave their lots at different times and announce the spot.
    departures = [(0, "riponne", 10.0), (4, "ouchy", 40.0),
                  (8, "flon", 80.0)]
    published = []

    def leave(car: int, lot: str) -> None:
        factory = EventFactory(car)
        event = factory.create(f".epfl.parking.{lot}",
                               validity=SPOT_VALIDITY, now=sim.now,
                               payload={"lot": lot, "spot": f"{lot}-17"})
        published.append(event)
        collector.record_publication(event)
        nodes[car].protocol.publish(event)
        print(f"t={sim.now:6.1f}s  car {car} leaves '{lot}' "
              f"and publishes a free spot")

    base = sim.now
    for car, lot, at in departures:
        sim.call_at(base + at, leave, car, lot)
    sim.run(until=base + 250.0)
    record = collector.record(nodes)

    print("\nWho learned of which spot (within its validity):")
    learned = defaultdict(list)
    for event in published:
        times = record.deliveries_of(event.event_id)
        for car, t in sorted(times.items()):
            if car != event.event_id.publisher and t <= event.expires_at:
                learned[event.payload["lot"]].append(car)
    for lot in LOTS:
        cars = learned.get(lot, [])
        names = ", ".join(f"car {c} ({subscriptions[c]})" for c in cars)
        print(f"  {lot:10s}: {len(cars)} cars  [{names}]")

    print(f"\nTotal bytes on air: {record.total_bytes()} "
          f"({record.bandwidth_per_process_bytes():.0f} per car); "
          f"parasites/car: {record.parasites_per_process():.1f}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 3)
