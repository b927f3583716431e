"""Micro-benchmarks of the substrate: kernel, spatial index, topics,
event table and medium.  These are real pytest-benchmark timings (many
rounds), unlike the figure benches which time one experiment sweep."""

from __future__ import annotations

import random

import pytest

from repro.core.events import Event, EventId
from repro.core.tables import EventTable
from repro.core.topics import Topic, subscriptions_related
from repro.energy import Battery, EnergyModel, PowerProfile, RadioState
from repro.net.medium import WirelessMedium
from repro.net.messages import Heartbeat
from repro.net.radio import RadioConfig
from repro.sim.batch import LegTable, TxLog
from repro.sim.kernel import Simulator
from repro.sim.space import SpatialGrid, Vec2


def test_kernel_schedule_run_throughput(benchmark):
    def run_1000_events():
        sim = Simulator()
        for i in range(1000):
            sim.schedule(float(i % 100), lambda: None)
        sim.run_until_idle()
        return sim.events_processed

    assert benchmark(run_1000_events) == 1000


def test_spatial_grid_query(benchmark):
    rng = random.Random(1)
    grid = SpatialGrid(cell_size=442.0)
    for i in range(150):
        grid.insert(i, Vec2(rng.uniform(0, 5000), rng.uniform(0, 5000)))
    center = Vec2(2500.0, 2500.0)

    found = benchmark(grid.query_radius, center, 442.0)
    assert isinstance(found, list)


def test_receiver_resolution_150_nodes(benchmark):
    """One frame's receiver resolution at the paper's density: 150
    moving nodes over 25 km², 442 m range, anchors 25 m stale."""
    rng = random.Random(1)
    grid = SpatialGrid(cell_size=442.0 * 1.125)
    legs = LegTable(grid, slack_m=442.0 / 8.0)
    for i in range(150):
        x, y = rng.uniform(0, 5000), rng.uniform(0, 5000)
        grid.insert(i, Vec2(x, y))
        legs.note(i, (x, y, x + 40.0, y + 30.0, 0.0, 10.0))

    hits = benchmark(legs.audible, 5.0, 2500.0, 2500.0, 442.0)
    assert hits == sorted(hits) and 1 <= len(hits) <= 15


def test_txlog_tail_scan(benchmark):
    """Carrier sense plus one frame's collision verdicts against a log
    holding a full 1 s horizon of history (150 rows, the frugal
    workload's average): the tail scan reads the last few."""
    rng = random.Random(2)
    log = TxLog(horizon_s=1.0)
    airtime = 1.2e-3
    for k in range(150):
        log.add(k, rng.uniform(0, 5000), rng.uniform(0, 5000), 442.0,
                k / 150.0, airtime)
    receivers = [(200 + i, 2400.0 + 50.0 * i, 2500.0) for i in range(5)]
    last = 149 / 150.0

    def sense_and_judge():
        return (log.busy(2500.0, 2500.0, 1.0),
                log.corrupt_verdicts(149, last, last + airtime, receivers))

    assert benchmark(sense_and_judge) == (False, None)


@pytest.mark.parametrize("capacity_j", [None, 1e6],
                         ids=["mains", "battery"])
def test_energy_meter_rx_window(benchmark, capacity_j):
    """One reception as the meter sees it — ``note_rx`` plus whatever
    its window's end costs (the kernel is run up to each arrival, so an
    end that is a timer fires inside the timed region) — per 1000
    receptions of a 150-node frugal world: 1.2 ms heartbeats and 5 ms
    event batches arriving ~10 ms apart, one in nine overlapping."""
    rng = random.Random(3)
    arrivals = [(rng.expovariate(100.0), rng.choice((1.2e-3, 1.2e-3, 5e-3)))
                for _ in range(1000)]

    def thousand_receptions():
        sim = Simulator()
        model = EnergyModel(0, sim, PowerProfile.wifi_80211b(),
                            battery=Battery(capacity_j))
        t = 0.0
        for gap, airtime in arrivals:
            t += gap
            sim.run(until=t)
            model.note_rx(airtime)
        model.finalize()
        return model.joules_by_state[RadioState.RX]

    assert 2.0 < benchmark(thousand_receptions) < 4.0


def test_topic_matching(benchmark):
    mine = [Topic(".epfl.conferences.middleware"), Topic(".epfl.parking")]
    theirs = [Topic(".epfl.conferences"), Topic(".epfl.cafeteria.menu"),
              Topic(".city.transport")]

    assert benchmark(subscriptions_related, mine, theirs) is True


def test_event_table_store_evict_cycle(benchmark):
    def churn():
        table = EventTable(capacity=64)
        for i in range(256):
            e = Event(EventId(1, i), Topic(".t"),
                      validity=10.0 + (i % 50), published_at=float(i))
            row = table.store(e, now=float(i))
            row.forward_count = i % 7
        return len(table)

    assert benchmark(churn) == 64


def test_medium_broadcast_150_nodes(benchmark):
    class Stub:
        def __init__(self, node_id, pos):
            self.id = node_id
            self.pos = pos
            self.alive = True
            self.asleep = False
            self.silenced = False
        @property
        def listening(self):
            return self.alive and not self.asleep
        def position(self):
            return self.pos
        def receive(self, message):
            pass

    def broadcast_round():
        sim = Simulator()
        medium = WirelessMedium(
            sim, RadioConfig.paper_random_waypoint(),
            rng=random.Random(0))
        rng = random.Random(1)
        for i in range(150):
            medium.register(Stub(i, Vec2(rng.uniform(0, 5000),
                                         rng.uniform(0, 5000))))
        hb = Heartbeat(sender=0, subscriptions=frozenset())
        for i in range(0, 150, 10):
            medium.broadcast(i, Heartbeat(sender=i,
                                          subscriptions=frozenset()))
        sim.run_until_idle()
        return medium.frames_sent

    assert benchmark(broadcast_round) == 15
