"""The change-driven membership layer against a from-scratch oracle.

``FrugalPubSub`` keeps its advertised topic set, the heartbeat matching
verdict and the Fig. 8 delays beside the state they derive from and
recomputes them only when a mutation that can change them happened
(see :mod:`repro.core.stack.membership`).  A hypothesis state machine
drives one protocol instance on a scripted host through random
sequences of every such mutation and, after **every** step, compares
what the stack reports with :func:`tests.helpers.naive_membership`,
which recomputes everything from raw state.  A missed invalidation
shows up as a stale value on the step after the mutation.

The deterministic classes below pin the things a random walk only hits
by luck — the exact expiry instant, each table's generation contract
path by path — and put a count, not a timer, on the optimisation itself.
"""

from __future__ import annotations

import math

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.core import FrugalConfig, FrugalPubSub
from repro.core.config import INITIAL_HB_DELAY_S
from repro.core.events import EventFactory
from repro.core.stack.membership import (VERDICT_MEMO_SIZE,
                                         HeartbeatMembership, _related)
from repro.core.tables import EventTable, NeighborhoodTable
from repro.core.topics import Topic
from repro.harness.scenario import (Publication, RandomWaypointSpec,
                                    ScenarioConfig, run_scenario)
from repro.net.messages import EventBatch, Heartbeat

from tests.helpers import FakeHost, make_event, naive_membership

TOPICS = [Topic(t) for t in (".a", ".a.b", ".x", ".x.y.z")]
topics = st.sampled_from(TOPICS)
topic_sets = st.frozensets(topics, max_size=3)
#: ``None`` (no tachometer), a true zero, and values that repeat often
#: enough for "refreshed with an equal speed" to be a common step.
speeds = st.sampled_from([None, 0.0, 8.0, 8.0, 20.0, 80.0])
validities = st.sampled_from([0.5, 1.0, 2.5, 30.0])

CONFIG = FrugalConfig(hb_upper_bound=4.0, event_table_capacity=2,
                      neighborhood_capacity=2)


class MembershipMachine(RuleBasedStateMachine):
    """One frugal stack on a fake host, shadowed by a naive model."""

    def __init__(self):
        super().__init__()
        self.host = FakeHost(host_id=0, speed=8.0, exact=True)
        self.protocol = FrugalPubSub(CONFIG)
        self.protocol.attach(self.host)
        self.own = EventFactory(self.host.id)
        self.foreign = EventFactory(77)
        # The model: what a recompute-everything layer would hold.
        self.subscribed = set()
        self.hb_delay = INITIAL_HB_DELAY_S
        self.running = False
        self.recover()

    # -- application ------------------------------------------------------------

    @rule(topic=topics)
    def subscribe(self, topic):
        self.protocol.subscribe(topic)
        self.subscribed.add(topic)

    @rule(topic=topics)
    def unsubscribe(self, topic):
        self.protocol.unsubscribe(topic)
        self.subscribed.discard(topic)

    @precondition(lambda self: self.running)
    @rule(topic=topics, validity=validities)
    def publish(self, topic, validity):
        """An own publication; the third one evicts from the 2-row store."""
        self.protocol.publish(self.own.create(topic, validity,
                                              now=self.host.now))

    @precondition(lambda self: self.running)
    @rule(topic=topics, validity=validities)
    def receive_event(self, topic, validity):
        """A foreign event: stored if subscribed, evicting own rows."""
        event = self.foreign.create(topic, validity, now=self.host.now)
        self.protocol.on_message(EventBatch(sender=1, events=(event,)))

    # -- time ----------------------------------------------------------------------

    @rule(seconds=st.sampled_from([0.25, 1.0, 3.0, 12.0]))
    def advance(self, seconds):
        """Run heartbeat and neighbourhood-GC ticks."""
        self.host.advance(seconds)

    @precondition(lambda self: self._own_valid())
    @rule(data=st.data(), just_before=st.booleans())
    def advance_to_expiry(self, data, just_before):
        """Land exactly on (or one ulp before) an own ``expires_at``."""
        instant = data.draw(st.sampled_from(self._own_valid())).expires_at
        if just_before:
            instant = max(self.host.now, math.nextafter(instant, 0.0))
        self.host.sim.run(until=instant)

    def _own_valid(self):
        return sorted((row.event for row in self.protocol.events
                       if row.event_id.publisher == self.host.id
                       and row.is_valid(self.host.now)),
                      key=lambda event: event.event_id)

    # -- faults ----------------------------------------------------------------------

    @precondition(lambda self: self.running)
    @rule()
    def crash(self):
        self.protocol.on_stop()
        self.running = False

    @precondition(lambda self: not self.running)
    @rule()
    def recover(self):
        self.protocol.on_start()
        self.running = True
        self.hb_delay = min(INITIAL_HB_DELAY_S, CONFIG.hb_upper_bound)

    # -- the neighbourhood --------------------------------------------------------------

    @rule(speed=speeds)
    def change_own_speed(self, speed):
        """A leg boundary (or a tachometer appearing / vanishing)."""
        self.host.speed = speed

    @rule(sender=st.integers(1, 4), theirs=topic_sets, speed=speeds)
    def heartbeat(self, sender, theirs, speed):
        """Any sender, any topic set (senders change theirs), any speed;
        four senders against two rows exercises the capacity eviction."""
        table = self.protocol.neighborhood
        row = table.get(sender)
        before = row and (row.subscriptions, row.speed, row.store_time)
        _, verdict, _ = naive_membership(self.protocol, self.subscribed,
                                         theirs, self.hb_delay)
        self.protocol.on_message(Heartbeat(sender, theirs, speed))
        if not self.running:
            verdict = False          # a crashed process hears nothing
        row = table.get(sender)
        after = row and (row.subscriptions, row.speed, row.store_time)
        if verdict:
            assert after == (theirs, speed, self.host.now)
            assert len(table) <= CONFIG.neighborhood_capacity
        else:
            assert after == before
        if self.running:             # Fig. 8 runs on every reception
            _, _, self.hb_delay = naive_membership(
                self.protocol, self.subscribed, theirs, self.hb_delay)

    @precondition(lambda self: len(self.protocol.neighborhood))
    @rule(data=st.data())
    def refresh(self, data):
        """The steady-state step: a known neighbour repeats itself.  It
        changes nothing, so it is where a stale value would survive."""
        row = data.draw(st.sampled_from(
            sorted(self.protocol.neighborhood, key=lambda r: r.node_id)))
        self.heartbeat(row.node_id, row.subscriptions, row.speed)

    # -- cached == oracle, after every step -------------------------------------------

    @invariant()
    def stack_agrees_with_oracle(self):
        advertised, _, _ = naive_membership(self.protocol, self.subscribed,
                                            frozenset(), self.hb_delay)
        assert self.protocol.advertised_topics() == advertised
        assert self.protocol.subscriptions == self.subscribed
        assert self.protocol.hb_delay == self.hb_delay
        membership = self.protocol.membership
        if membership._hb_task is not None:
            assert membership._hb_task.period == self.hb_delay
        if membership._ngc_task is not None:
            assert membership._ngc_task.period == \
                CONFIG.ngc_delay(self.hb_delay)


MembershipMachine.TestCase.settings = settings(
    max_examples=120, stateful_step_count=50, deadline=None)
TestMembershipAgainstOracle = MembershipMachine.TestCase


class TestExpiryInstant:
    """``Event.is_valid`` is ``now < expires_at``: the advertised set of
    a pure publisher must shrink at exactly that instant."""

    def build(self):
        host = FakeHost(host_id=3)
        protocol = FrugalPubSub(CONFIG)
        protocol.attach(host)
        protocol.on_start()
        event = make_event(publisher=3, topic=".p", validity=2.0, now=0.0)
        protocol.publish(event)
        return host, protocol, event

    def test_still_advertised_one_ulp_before(self):
        host, protocol, event = self.build()
        assert protocol.advertised_topics() == {Topic(".p")}
        host.sim.run(until=math.nextafter(event.expires_at, 0.0))
        assert protocol.advertised_topics() == {Topic(".p")}

    def test_gone_at_the_instant_itself(self):
        host, protocol, event = self.build()
        assert protocol.advertised_topics() == {Topic(".p")}
        host.sim.run(until=event.expires_at)
        assert protocol.advertised_topics() == frozenset()

    def test_earliest_of_several_expiries_wins(self):
        host, protocol, event = self.build()
        protocol.publish(make_event(publisher=3, seq=1, topic=".q",
                                    validity=5.0, now=0.0))
        assert protocol.advertised_topics() == {Topic(".p"), Topic(".q")}
        host.sim.run(until=event.expires_at)
        assert protocol.advertised_topics() == {Topic(".q")}
        host.sim.run(until=5.0)
        assert protocol.advertised_topics() == frozenset()

    def test_reattach_starts_from_the_fresh_store(self):
        """``attach`` builds a new store whose generation restarts at
        zero; a result cached against the old store must not survive
        until the new one happens to reach the same generation."""
        _, protocol, _ = self.build()          # old store: generation 1
        protocol.subscribe(".s")
        assert protocol.advertised_topics() == {Topic(".p"), Topic(".s")}
        protocol.on_stop()
        protocol.detach()
        protocol.attach(FakeHost(host_id=3))
        # Published before on_start, which would refresh the set itself.
        protocol.publish(make_event(publisher=3, seq=1, topic=".q",
                                    validity=9.0))
        assert protocol.advertised_topics() == {Topic(".q"), Topic(".s")}

    def test_subscriber_gets_the_subscription_view_itself(self):
        """No own publication folded in: the very object the delivery
        layer holds, so the verdict memo hits by identity."""
        host = FakeHost()
        protocol = FrugalPubSub(CONFIG)
        protocol.attach(host)
        protocol.subscribe(".a")
        assert protocol.advertised_topics() is protocol.subscriptions
        assert protocol.subscriptions is protocol.subscriptions


class TestVerdictMemo:
    def test_hits_by_value_and_is_bounded(self):
        """``rt/`` decodes every heartbeat into fresh, equal frozensets:
        the memo must hit on those, not only on identical objects."""
        mine = frozenset({Topic(".memo.a"), Topic(".memo.b")})
        theirs = frozenset({Topic(".memo.a.deep")})
        assert _related(mine, theirs) is True
        hits = _related.cache_info().hits
        equal_mine, equal_theirs = frozenset(set(mine)), frozenset(set(theirs))
        assert equal_mine is not mine and equal_theirs is not theirs
        assert _related(equal_mine, equal_theirs) is True
        assert _related.cache_info().hits == hits + 1
        assert _related(theirs, frozenset({Topic(".memo.c")})) is False
        assert _related.cache_info().maxsize == VERDICT_MEMO_SIZE == 4096


class TestGenerationContracts:
    """Every path that adds or removes a row bumps the table's
    generation; a refresh that changes nothing does not."""

    def test_event_table_paths(self):
        table = EventTable(capacity=2)
        seen = [table.generation]

        def bumped() -> bool:
            seen.append(table.generation)
            return seen[-1] > seen[-2]

        a, b, c = (make_event(seq=i, validity=10.0 + i) for i in range(3))
        table.store(a, now=0.0)
        assert bumped()
        table.store(a, now=0.0)            # already held: no new row
        assert not bumped()
        table.store(b, now=0.0)
        assert bumped()
        table._evict_one(now=0.0)          # policy victim (Equation 1)
        assert bumped() and len(table) == 1
        table._evict_one(now=100.0)        # expired-first victim
        assert bumped() and len(table) == 0
        table.store(c, now=0.0)
        assert bumped()
        table.remove(c.event_id)
        assert bumped()
        table.remove(c.event_id)           # idempotent: nothing removed
        assert not bumped()
        table.store(c, now=0.0)
        assert bumped()
        assert table.purge_expired(now=0.0) == []
        assert not bumped()
        assert table.purge_expired(now=100.0) == [c.event_id]
        assert bumped()
        table.clear()
        assert bumped()

    def test_neighborhood_table_paths(self):
        table = NeighborhoodTable(capacity=2)
        seen = [table.speed_generation]

        def bumped() -> bool:
            seen.append(table.speed_generation)
            return seen[-1] > seen[-2]

        subs = frozenset({Topic(".a")})
        table.upsert(1, subs, 10.0, now=0.0)
        assert bumped()
        table.upsert(1, subs, 10.0, now=1.0)      # equal speed
        assert not bumped()
        table.upsert(1, frozenset(), 10.0, now=1.0)   # topics only
        assert not bumped()
        table.upsert(1, subs, None, now=1.0)      # 10.0 -> None
        assert bumped()
        table.upsert(1, subs, 0.0, now=1.0)       # None -> a true zero
        assert bumped()
        table.upsert(2, subs, 5.0, now=2.0)
        assert bumped()
        table._evict_stalest()
        assert bumped() and 1 not in table
        table.remove(2)
        assert bumped()
        table.remove(2)                           # idempotent
        assert not bumped()
        table.upsert(3, subs, 5.0, now=3.0)
        assert bumped()
        assert table.collect(now=4.0, ngc_delay=2.0) == []
        assert not bumped()
        assert table.collect(now=9.0, ngc_delay=2.0) == [3]
        assert bumped()
        table.clear()
        assert bumped()


class TestRebuildBudget:
    """Counts repeat exactly run to run, so this guards the optimisation
    without a stopwatch: in a cold-started world at the paper's density
    most receptions must find nothing to recompute."""

    def test_rebuilds_are_a_small_share_of_receptions(self, monkeypatch):
        calls = {"receptions": 0, "means": 0, "scans": 0}

        def count(cls, name, key):
            real = getattr(cls, name)

            def counted(self, *args, **kwargs):
                calls[key] += 1
                return real(self, *args, **kwargs)

            monkeypatch.setattr(cls, name, counted)

        count(HeartbeatMembership, "on_heartbeat", "receptions")
        count(NeighborhoodTable, "average_speed", "means")
        # The frugal stack iterates its store in one place only: the
        # full scan that rebuilds the advertised set.
        count(EventTable, "__iter__", "scans")
        side_m = math.sqrt(40 / 6.0) * 1000.0      # 6 processes per km^2
        run_scenario(ScenarioConfig(
            n_processes=40,
            mobility=RandomWaypointSpec(width=side_m, height=side_m,
                                        speed_min=10.0, speed_max=10.0),
            duration=10.0, seed=0, subscriber_fraction=0.8,
            publications=(Publication(at=1.0, validity=4.0),
                          Publication(at=2.0, validity=8.0, publisher=1))))
        assert calls["receptions"] > 500, calls
        assert 0 < calls["means"] <= 0.15 * calls["receptions"], calls
        assert 0 < calls["scans"] <= 0.15 * calls["receptions"], calls
