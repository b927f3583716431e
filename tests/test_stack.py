"""Per-layer unit suite for the composable protocol stack
(repro.core.stack).

Each layer is driven in isolation with the scripted :class:`FakeHost` —
no radio, mobility or medium — covering the behaviours the composed
protocols rely on: membership timeout GC and delay adaptation, store
eviction ordering (expired first, then Equation 1), delivery dedup and
parasite accounting, the back-off's cancel-on-overhear, and the gossip
rounds' coin/fanout behaviour.
"""

from __future__ import annotations

import pytest

from repro.core.base import ProtocolCounters
from repro.core.config import FrugalConfig
from repro.core.stack import (BackoffForwarding, DeliveryLayer, EventStore,
                              GossipForwarding, HeartbeatMembership,
                              PeriodicFloodForwarding, TTLMembership)
from repro.core.topics import Topic
from repro.net.messages import EventBatch, Heartbeat

from tests.helpers import FakeHost, make_event


def frozenset_of(*topics: str):
    return frozenset(Topic(t) for t in topics)


# --------------------------------------------------------------------------
# Membership: HeartbeatMembership
# --------------------------------------------------------------------------

class TestHeartbeatMembership:
    def build(self, host, advertised=(".a",), on_new=None,
              **config_changes):
        config = FrugalConfig(**config_changes)
        counters = ProtocolCounters()
        membership = HeartbeatMembership(
            config, counters,
            advertised=lambda: frozenset_of(*advertised),
            on_new_neighbor=on_new)
        membership.attach(host)
        return membership, counters

    def test_beacons_while_started_and_advertising(self):
        host = FakeHost(exact=True)
        membership, counters = self.build(host)
        membership.start()
        host.advance(3.5)
        assert counters.heartbeats_sent == 3
        assert all(isinstance(m, Heartbeat)
                   for m in host.sent_of_kind(Heartbeat))

    def test_no_tasks_without_advertised_topics(self):
        host = FakeHost(exact=True)
        membership, counters = self.build(host, advertised=())
        membership.start()
        host.advance(5.0)
        assert counters.heartbeats_sent == 0

    def test_matching_heartbeat_stored_nonmatching_ignored(self):
        host = FakeHost(exact=True)
        membership, _ = self.build(host)
        membership.start()
        membership.on_heartbeat(Heartbeat(sender=5,
                                          subscriptions=frozenset_of(".a"),
                                          speed=None))
        membership.on_heartbeat(Heartbeat(sender=6,
                                          subscriptions=frozenset_of(".z"),
                                          speed=None))
        assert 5 in membership.table
        assert 6 not in membership.table

    def test_new_neighbor_callback_fires_once(self):
        host = FakeHost(exact=True)
        seen = []
        membership, _ = self.build(
            host, on_new=lambda nid, subs: seen.append(nid))
        membership.start()
        hb = Heartbeat(sender=5, subscriptions=frozenset_of(".a"),
                       speed=None)
        membership.on_heartbeat(hb)
        membership.on_heartbeat(hb)       # refresh, not a new detection
        assert seen == [5]

    def test_timeout_gc_drops_silent_neighbors(self):
        """The periodic NGC task removes rows older than NGCDelay."""
        host = FakeHost(exact=True)
        membership, _ = self.build(host)
        membership.start()
        membership.on_heartbeat(Heartbeat(sender=5,
                                          subscriptions=frozenset_of(".a"),
                                          speed=None))
        assert 5 in membership.table
        # NGCDelay = hb_delay * 2.5 = 2.5 s at the 1 s bound; a silent
        # neighbour must be collected by the tick after that.
        host.advance(6.0)
        assert 5 not in membership.table

    def test_refreshed_neighbor_survives_gc(self):
        host = FakeHost(exact=True)
        membership, _ = self.build(host)
        membership.start()
        for _ in range(6):
            membership.on_heartbeat(Heartbeat(
                sender=5, subscriptions=frozenset_of(".a"), speed=None))
            host.advance(1.0)
        assert 5 in membership.table

    def test_adaptive_delay_follows_average_speed(self):
        """computeHBDelay (Fig. 8): x / avgSpeed, clamped to the bounds."""
        host = FakeHost(exact=True, speed=20.0)
        membership, _ = self.build(host, hb_upper_bound=5.0)
        membership.start()
        assert membership.hb_delay == 5.0     # min(15 s initial, upper)
        membership.on_heartbeat(Heartbeat(sender=5,
                                          subscriptions=frozenset_of(".a"),
                                          speed=20.0))
        # avg speed 20 -> 40/20 = 2.0 s.
        assert membership.hb_delay == 2.0

    def test_adaptive_delay_clamped_to_upper_bound(self):
        host = FakeHost(exact=True, speed=10.0)
        membership, _ = self.build(host)     # upper bound 1 s
        membership.start()
        membership.on_heartbeat(Heartbeat(sender=5,
                                          subscriptions=frozenset_of(".a"),
                                          speed=10.0))
        assert membership.hb_delay == 1.0    # 40/10 = 4 clamped to 1

    def test_restart_without_stop_readapts_on_next_reception(self):
        """A second ``start`` resets HBDelay under the same tasks and the
        same table; the next reception must adapt it again, although no
        speed moved since the last recomputation."""
        host = FakeHost(exact=True, speed=20.0)
        membership, _ = self.build(host, hb_upper_bound=5.0)
        membership.start()
        hb = Heartbeat(sender=5, subscriptions=frozenset_of(".a"),
                       speed=20.0)
        membership.on_heartbeat(hb)
        assert membership.hb_delay == 2.0
        membership.start()
        assert membership.hb_delay == 5.0
        membership.on_heartbeat(hb)
        assert membership.hb_delay == 2.0

    def test_stop_and_reset_clear_tasks_and_table(self):
        host = FakeHost(exact=True)
        membership, counters = self.build(host)
        membership.start()
        membership.on_heartbeat(Heartbeat(sender=5,
                                          subscriptions=frozenset_of(".a"),
                                          speed=None))
        membership.stop()
        membership.reset()
        assert len(membership.table) == 0
        before = counters.heartbeats_sent
        host.advance(5.0)
        assert counters.heartbeats_sent == before


# --------------------------------------------------------------------------
# Membership: TTLMembership
# --------------------------------------------------------------------------

class TestTTLMembership:
    def build(self, host, ttl=2.5):
        counters = ProtocolCounters()
        membership = TTLMembership(counters, heartbeat_period=1.0, ttl=ttl,
                                   subscriptions=lambda: frozenset_of(".a"))
        membership.attach(host)
        return membership, counters

    def test_beacons_carry_subscriptions(self):
        host = FakeHost()
        membership, counters = self.build(host)
        membership.start()
        host.advance(2.5)
        beacons = host.sent_of_kind(Heartbeat)
        assert counters.heartbeats_sent == len(beacons) == 2
        assert beacons[0].subscriptions == frozenset_of(".a")
        assert beacons[0].speed is None

    def test_prune_drops_stale_rows_only(self):
        host = FakeHost()
        membership, _ = self.build(host, ttl=2.0)
        membership.on_heartbeat(Heartbeat(sender=5,
                                          subscriptions=frozenset_of(".a"),
                                          speed=None))
        host.advance(3.0)
        membership.on_heartbeat(Heartbeat(sender=6,
                                          subscriptions=frozenset_of(".a"),
                                          speed=None))
        membership.prune(host.now)
        assert 5 not in membership
        assert 6 in membership

    def test_any_interested_matches_subtopics(self):
        host = FakeHost()
        membership, _ = self.build(host)
        membership.on_heartbeat(Heartbeat(sender=5,
                                          subscriptions=frozenset_of(".a"),
                                          speed=None))
        assert membership.any_interested(Topic(".a.x"))
        assert not membership.any_interested(Topic(".z"))

    def test_validation(self):
        counters = ProtocolCounters()
        with pytest.raises(ValueError):
            TTLMembership(counters, heartbeat_period=0.0, ttl=1.0,
                          subscriptions=frozenset)
        with pytest.raises(ValueError):
            TTLMembership(counters, heartbeat_period=1.0, ttl=0.0,
                          subscriptions=frozenset)


# --------------------------------------------------------------------------
# Store: eviction ordering
# --------------------------------------------------------------------------

class TestEventStoreEviction:
    def test_expired_evicted_before_policy(self):
        store = EventStore.from_config(
            FrugalConfig(event_table_capacity=2), rng=None)
        expired = make_event(seq=0, validity=1.0, now=0.0)
        valid = make_event(seq=1, validity=100.0, now=0.0)
        store.store(expired, now=0.0)
        store.store(valid, now=0.0)
        # At t=5 the first event is expired; storing a third must evict
        # it (the cheap paper-prescribed fast path), not consult Eq. 1.
        store.store(make_event(seq=2, validity=100.0, now=5.0), now=5.0)
        assert expired.event_id not in store
        assert valid.event_id in store
        assert store.evictions_expired == 1
        assert store.evictions_policy == 0

    def test_equation1_when_all_valid(self):
        """The paper's worked example: a 2-minute event forwarded once
        outlives a 5-minute event forwarded five times."""
        store = EventStore.from_config(
            FrugalConfig(event_table_capacity=2), rng=None)
        short = make_event(seq=0, validity=120.0, now=0.0)
        long = make_event(seq=1, validity=300.0, now=0.0)
        store.store(short, now=0.0).forward_count = 1
        store.store(long, now=0.0).forward_count = 5
        store.store(make_event(seq=2, validity=60.0, now=1.0), now=1.0)
        assert long.event_id not in store      # 300/305 < 120/121
        assert short.event_id in store
        assert store.evictions_policy == 1

    def test_bounded_fifo_evicts_oldest(self):
        store = EventStore.bounded_fifo(2)
        first = make_event(seq=0, validity=100.0, now=0.0)
        second = make_event(seq=1, validity=100.0, now=0.0)
        store.store(first, now=0.0)
        store.store(second, now=1.0)
        store.store(make_event(seq=2, validity=100.0, now=2.0), now=2.0)
        assert first.event_id not in store
        assert second.event_id in store

    def test_unbounded_never_evicts(self):
        store = EventStore.unbounded()
        for seq in range(50):
            store.store(make_event(seq=seq, validity=100.0, now=0.0),
                        now=0.0)
        assert len(store) == 50
        assert store.event_ids() == {e for e in store.event_ids()}


# --------------------------------------------------------------------------
# Delivery
# --------------------------------------------------------------------------

class TestDeliveryLayer:
    def build(self, host):
        counters = ProtocolCounters()
        delivery = DeliveryLayer(counters)
        delivery.attach(host)
        delivery.subscribe(".a")
        return delivery, counters

    def test_deliver_once_dedups(self):
        host = FakeHost()
        delivery, counters = self.build(host)
        event = make_event(topic=".a.x")
        assert delivery.deliver_once(event) is True
        assert delivery.deliver_once(event) is False
        assert host.delivered == [event]
        assert counters.delivered_count == 1

    def test_unsubscribed_topic_not_delivered(self):
        host = FakeHost()
        delivery, counters = self.build(host)
        assert delivery.deliver_once(make_event(topic=".z")) is False
        assert host.delivered == []
        assert counters.delivered_count == 0

    def test_matches_respects_topic_tree(self):
        delivery, _ = self.build(FakeHost())
        assert delivery.matches(Topic(".a.x"))
        assert not delivery.matches(Topic(".z"))
        delivery.unsubscribe(".a")
        assert not delivery.matches(Topic(".a.x"))

    def test_reset_forgets_history_keeps_counters(self):
        host = FakeHost()
        delivery, counters = self.build(host)
        event = make_event(topic=".a.x")
        delivery.deliver_once(event)
        delivery.reset()
        assert delivery.deliver_once(event) is True   # re-deliverable
        assert counters.delivered_count == 2


# --------------------------------------------------------------------------
# Forwarding: BackoffForwarding
# --------------------------------------------------------------------------

class TestBackoffForwarding:
    def build(self, host, **config_changes):
        config = FrugalConfig(**config_changes)
        counters = ProtocolCounters()
        membership = HeartbeatMembership(
            config, counters, advertised=lambda: frozenset_of(".a"))
        membership.attach(host)
        membership.start()                  # HBDelay = the 1 s bound
        store = EventStore.from_config(config, rng=host.rng)
        forwarding = BackoffForwarding(config, counters, membership)
        forwarding.attach(host, store)
        return forwarding, membership, store, counters

    def add_needy_neighbor(self, membership, host, nid=5):
        membership.table.upsert(nid, frozenset_of(".a"), None, host.now)

    def test_retrieve_arms_backoff_and_sends_on_expiry(self):
        host = FakeHost(exact=True)
        forwarding, membership, store, counters = self.build(host)
        self.add_needy_neighbor(membership, host)
        event = make_event(topic=".a.x", validity=60.0, now=host.now)
        store.store(event, now=host.now)
        assert forwarding.retrieve() == [event.event_id]
        assert forwarding.pending
        host.advance(1.0)
        batches = host.sent_of_kind(EventBatch)
        assert len(batches) == 1
        assert batches[0].events == (event,)
        assert batches[0].neighbor_ids == (5,)
        assert counters.batches_sent == 1
        assert counters.events_forwarded == 1
        assert store.get(event.event_id).forward_count == 1
        assert membership.table.get(5).knows(event.event_id)

    def test_cancel_on_overhear_suppresses_send(self):
        """The suppression path: a pending back-off is cancelled (the
        composed protocol does this when an interesting event is
        overheard) and nothing goes out at the old expiry."""
        host = FakeHost(exact=True)
        forwarding, membership, store, _ = self.build(host)
        self.add_needy_neighbor(membership, host)
        event = make_event(topic=".a.x", validity=60.0, now=host.now)
        store.store(event, now=host.now)
        forwarding.retrieve()
        assert forwarding.pending
        forwarding.cancel()
        assert not forwarding.pending
        host.advance(2.0)
        assert host.sent_of_kind(EventBatch) == []

    def test_nothing_to_send_for_knowing_neighbors(self):
        host = FakeHost(exact=True)
        forwarding, membership, store, _ = self.build(host)
        self.add_needy_neighbor(membership, host)
        event = make_event(topic=".a.x", validity=60.0, now=host.now)
        store.store(event, now=host.now)
        membership.table.record_known_event(5, event.event_id)
        assert forwarding.retrieve() == []
        assert not forwarding.pending

    def test_more_events_expire_sooner(self):
        """BODelay = HBDelay / (HB2BO * n): the best-provisioned
        forwarder wins the contention."""
        times = {}
        for n_events in (1, 4):
            host = FakeHost(exact=True)
            forwarding, membership, store, _ = self.build(host)
            self.add_needy_neighbor(membership, host)
            for seq in range(n_events):
                store.store(make_event(seq=seq, topic=".a.x",
                                       validity=60.0, now=host.now),
                            now=host.now)
            forwarding.retrieve()
            times[n_events] = forwarding.timer.time - host.now
        assert times[4] < times[1]

    def test_send_recomputed_at_expiry(self):
        """Events learned-known during the back-off are not re-sent."""
        host = FakeHost(exact=True)
        forwarding, membership, store, _ = self.build(host)
        self.add_needy_neighbor(membership, host)
        event = make_event(topic=".a.x", validity=60.0, now=host.now)
        store.store(event, now=host.now)
        forwarding.retrieve()
        membership.table.record_known_event(5, event.event_id)
        host.advance(1.0)
        assert host.sent_of_kind(EventBatch) == []


# --------------------------------------------------------------------------
# Forwarding: PeriodicFloodForwarding
# --------------------------------------------------------------------------

class TestPeriodicFloodForwarding:
    def build(self, host, should_flood=lambda e: True):
        counters = ProtocolCounters()
        store = EventStore.unbounded()
        forwarding = PeriodicFloodForwarding(counters, 1.0, 0.0,
                                             should_flood)
        forwarding.attach(host, store)
        return forwarding, store, counters

    def test_ticks_flood_and_purge_expired(self):
        host = FakeHost()
        forwarding, store, counters = self.build(host)
        store.store(make_event(seq=0, validity=2.5, now=host.now),
                    now=host.now)
        forwarding.start()
        host.advance(5.0)
        # Ticks at 1 and 2 s flood; the 3 s tick finds it expired.
        assert counters.batches_sent == 2
        assert len(store) == 0

    def test_predicate_filters_the_flood(self):
        host = FakeHost()
        forwarding, store, counters = self.build(
            host, should_flood=lambda e: False)
        store.store(make_event(seq=0, validity=60.0, now=host.now),
                    now=host.now)
        forwarding.start()
        host.advance(3.0)
        assert counters.batches_sent == 0

    def test_period_must_be_positive(self):
        with pytest.raises(ValueError):
            PeriodicFloodForwarding(ProtocolCounters(), 0.0, 0.0,
                                    lambda e: True)


# --------------------------------------------------------------------------
# Forwarding: GossipForwarding
# --------------------------------------------------------------------------

class TestGossipForwarding:
    def build(self, host, probability=1.0, fanout=2):
        counters = ProtocolCounters()
        store = EventStore.bounded_fifo(8)
        forwarding = GossipForwarding(counters, 1.0, 0.0, probability,
                                      fanout)
        forwarding.attach(host, store)
        return forwarding, store, counters

    def test_round_sends_newest_fanout_events(self):
        host = FakeHost()
        forwarding, store, _ = self.build(host, probability=1.0, fanout=2)
        events = [make_event(seq=i, validity=60.0, now=host.now)
                  for i in range(4)]
        for e in events:
            store.store(e, now=host.now)
        forwarding.start()
        host.advance(1.0)
        batches = host.sent_of_kind(EventBatch)
        assert len(batches) == 1
        assert batches[0].events == tuple(events[-2:])   # the newest two

    def test_zero_probability_never_sends(self):
        host = FakeHost()
        forwarding, store, counters = self.build(host, probability=0.0)
        store.store(make_event(validity=60.0, now=host.now), now=host.now)
        forwarding.start()
        host.advance(10.0)
        assert counters.batches_sent == 0

    def test_empty_buffer_draws_no_coin(self):
        """Rounds with nothing to say must not consume rng state —
        otherwise an idle stretch would desynchronise paired runs."""
        host = FakeHost(seed=42)
        forwarding, _, _ = self.build(host, probability=1.0)
        forwarding.start()
        before = host.rng.getstate()
        host.advance(5.0)
        assert host.rng.getstate() == before

    def test_validation(self):
        counters = ProtocolCounters()
        with pytest.raises(ValueError):
            GossipForwarding(counters, 0.0, 0.0, 0.5, 2)
        with pytest.raises(ValueError):
            GossipForwarding(counters, 1.0, 0.0, 1.5, 2)
        with pytest.raises(ValueError):
            GossipForwarding(counters, 1.0, 0.0, 0.5, 0)
