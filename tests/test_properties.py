"""Property-based tests (hypothesis) on core data structures and
protocol invariants."""

from __future__ import annotations

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import Event, EventId, StoredEvent
from repro.core.gc import (FifoPolicy, RandomPolicy, ValidityForwardPolicy,
                           gc_score)
from repro.core.tables import EventTable, NeighborhoodTable
from repro.core.topics import Topic, subscriptions_related
from repro.sim.kernel import Simulator
from repro.sim.space import SpatialGrid, Vec2

# -- strategies -------------------------------------------------------------

segments = st.text(alphabet="abcdefgh", min_size=1, max_size=4)
topics = st.lists(segments, min_size=0, max_size=5).map(
    lambda parts: Topic.from_parts(parts))
validities = st.floats(min_value=0.1, max_value=1e5, allow_nan=False)
forward_counts = st.integers(min_value=0, max_value=10_000)


def stored(seq: int, validity: float, fwd: int) -> StoredEvent:
    event = Event(EventId(0, seq), Topic(".t"), validity=validity,
                  published_at=0.0)
    return StoredEvent(event=event, stored_at=0.0, forward_count=fwd)


# -- topics -------------------------------------------------------------------

class TestTopicProperties:
    @given(topics)
    def test_string_round_trip(self, topic):
        assert Topic(str(topic)) == topic

    @given(topics)
    def test_covers_is_reflexive(self, topic):
        assert topic.covers(topic)

    @given(topics, topics)
    def test_related_is_symmetric(self, a, b):
        assert a.related_to(b) == b.related_to(a)

    @given(topics, topics, topics)
    def test_covers_is_transitive(self, a, b, c):
        if a.covers(b) and b.covers(c):
            assert a.covers(c)

    @given(topics, topics)
    def test_covers_antisymmetric(self, a, b):
        if a.covers(b) and b.covers(a):
            assert a == b

    @given(topics)
    def test_root_covers_all(self, topic):
        assert Topic.root().covers(topic)

    @given(topics, topics)
    def test_relatedness_of_singletons_matches_pairs(self, a, b):
        assert subscriptions_related([a], [b]) == a.related_to(b)

    @given(topics)
    def test_ancestor_chain_all_cover(self, topic):
        for ancestor in topic.ancestors():
            assert ancestor.covers(topic)
            assert not topic.covers(ancestor) or topic == ancestor


# -- Equation 1 ------------------------------------------------------------------

class TestGcScoreProperties:
    @given(validities, forward_counts)
    def test_score_in_unit_interval(self, val, fwd):
        assert 0.0 < gc_score(val, fwd) <= 1.0

    @given(validities, forward_counts, forward_counts)
    def test_monotone_decreasing_in_forwards(self, val, f1, f2):
        lo, hi = sorted((f1, f2))
        assert gc_score(val, hi) <= gc_score(val, lo)

    @given(validities, validities, forward_counts)
    def test_monotone_increasing_in_validity(self, v1, v2, fwd):
        lo, hi = sorted((v1, v2))
        assert gc_score(lo, fwd) <= gc_score(hi, fwd)

    @given(st.lists(st.tuples(validities, forward_counts), min_size=1,
                    max_size=20))
    def test_policy_picks_global_minimum(self, specs):
        rows = [stored(i, v, f) for i, (v, f) in enumerate(specs)]
        victim = ValidityForwardPolicy().select_victim(rows, now=0.0)
        best = min(gc_score(r.event.validity, r.forward_count)
                   for r in rows)
        assert gc_score(victim.event.validity,
                        victim.forward_count) == best


# -- event table -------------------------------------------------------------------

class TestEventTableProperties:
    @given(st.integers(min_value=1, max_value=16),
           st.lists(st.tuples(validities, st.booleans()), min_size=0,
                    max_size=40))
    @settings(max_examples=50)
    def test_capacity_never_exceeded(self, capacity, inserts):
        table = EventTable(capacity=capacity, rng=random.Random(0))
        now = 0.0
        for i, (validity, expired_flag) in enumerate(inserts):
            published = -2 * validity if expired_flag else now
            event = Event(EventId(1, i), Topic(".t"), validity=validity,
                          published_at=published)
            table.store(event, now=now)
            assert len(table) <= capacity
            now += 0.25

    @given(st.lists(validities, min_size=1, max_size=30))
    @settings(max_examples=50)
    def test_store_then_get_round_trips(self, vals):
        table = EventTable()
        events = [Event(EventId(2, i), Topic(".t"), validity=v,
                        published_at=0.0) for i, v in enumerate(vals)]
        for e in events:
            table.store(e, now=0.0)
        for e in events:
            assert table.get(e.event_id).event is e

    @given(st.permutations(list(range(8))))
    def test_eviction_order_ignores_insertion_order(self, order):
        """With FIFO disabled, Equation-1 eviction depends only on
        (validity, forwards), not on dict insertion order."""
        def run(sequence):
            table = EventTable(capacity=len(sequence))
            for i in sequence:
                e = Event(EventId(3, i), Topic(".t"),
                          validity=10.0 + i, published_at=0.0)
                table.store(e, now=0.0).forward_count = i
            table.store(Event(EventId(9, 99), Topic(".t"), validity=5.0,
                              published_at=0.0), now=0.0)
            return {r.event_id for r in table}
        assert run(order) == run(sorted(order))


# -- neighbourhood table ----------------------------------------------------------

class TestNeighborhoodProperties:
    @given(st.lists(st.tuples(st.integers(0, 20),
                              st.floats(0, 100, allow_nan=False)),
                    min_size=0, max_size=60))
    def test_collect_leaves_only_fresh(self, updates):
        table = NeighborhoodTable()
        for node_id, t in updates:
            table.upsert(node_id, [Topic(".a")], None, now=t)
        horizon = 50.0
        table.collect(now=100.0, ngc_delay=horizon)
        for entry in table:
            assert 100.0 - horizon <= entry.store_time


# -- spatial grid -------------------------------------------------------------------

class TestSpatialGridProperties:
    @given(st.lists(st.tuples(st.floats(-1e3, 1e3, allow_nan=False),
                              st.floats(-1e3, 1e3, allow_nan=False)),
                    min_size=0, max_size=50),
           st.floats(0, 500, allow_nan=False))
    @settings(max_examples=50)
    def test_grid_agrees_with_brute_force(self, points, radius):
        grid = SpatialGrid(cell_size=50.0)
        for i, (x, y) in enumerate(points):
            grid.insert(i, Vec2(x, y))
        center = Vec2(0.0, 0.0)
        expected = sorted(
            i for i, (x, y) in enumerate(points)
            if math.hypot(x, y) <= radius)
        assert grid.query_radius(center, radius) == expected


# -- kernel --------------------------------------------------------------------------

class TestKernelProperties:
    @given(st.lists(st.floats(0.0, 100.0, allow_nan=False), min_size=0,
                    max_size=50))
    def test_callbacks_fire_in_nondecreasing_time_order(self, delays):
        sim = Simulator()
        fired = []
        for d in delays:
            sim.schedule(d, lambda: fired.append(sim.now))
        sim.run_until_idle()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(st.lists(st.floats(0.0, 100.0, allow_nan=False), min_size=1,
                    max_size=30), st.integers(0, 29))
    def test_cancelling_one_timer_spares_the_rest(self, delays, idx):
        sim = Simulator()
        fired = []
        timers = [sim.schedule(d, fired.append, i)
                  for i, d in enumerate(delays)]
        victim = timers[idx % len(timers)]
        victim.cancel()
        sim.run_until_idle()
        assert len(fired) == len(delays) - 1
        assert (idx % len(timers)) not in fired
