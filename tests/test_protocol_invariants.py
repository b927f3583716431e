"""Simulation-level protocol invariants under randomised worlds.

Hypothesis generates small random topologies, subscription assignments and
publication schedules; each world runs end to end and the invariants that
must hold for *any* execution of the protocol are checked:

* no process delivers the same event twice,
* no process delivers an event it is not entitled to,
* every delivery happens within the event's validity window,
* a process's forward counter never exceeds its batch transmissions,
* the publisher always delivers its own event,
* event tables never exceed their configured capacity.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import FrugalConfig, FrugalPubSub
from repro.core.events import EventFactory
from repro.core.topics import Topic, subscription_matches_event
from repro.mobility import RandomWaypoint, Stationary
from repro.net import Node, RadioConfig, WirelessMedium
from repro.sim import RngRegistry, Simulator
from repro.sim.space import Vec2

TOPIC_POOL = [".a", ".a.b", ".a.b.c", ".x", ".x.y"]

worlds = st.fixed_dictionaries({
    "seed": st.integers(0, 10_000),
    "n_nodes": st.integers(2, 8),
    "subscriptions": st.lists(st.sampled_from(TOPIC_POOL), min_size=2,
                              max_size=8),
    "moving": st.booleans(),
    "capacity": st.one_of(st.none(), st.integers(1, 4)),
    "publications": st.lists(
        st.fixed_dictionaries({
            "topic": st.sampled_from(TOPIC_POOL),
            "validity": st.floats(5.0, 60.0),
            "at": st.floats(1.0, 20.0),
        }), min_size=1, max_size=5),
})


def run_world(params) -> dict:
    """Build and run one randomised world; return everything checkable."""
    sim = Simulator()
    rngs = RngRegistry(params["seed"])
    medium = WirelessMedium(sim, RadioConfig(range_override_m=150.0),
                            rng=rngs.stream("medium"))
    n = params["n_nodes"]
    config = FrugalConfig(event_table_capacity=params["capacity"])
    nodes = []
    for i in range(n):
        if params["moving"]:
            mobility = RandomWaypoint(400.0, 400.0, 5.0, 15.0)
        else:
            mobility = Stationary(width=400.0, height=400.0)
        protocol = FrugalPubSub(config)
        node = Node(i, sim, medium, mobility, protocol,
                    rngs.stream("node", i))
        topic = params["subscriptions"][i % len(params["subscriptions"])]
        protocol.subscribe(topic)
        nodes.append(node)
    for node in nodes:
        node.start()

    published = []
    factory = EventFactory(0)

    def publish(spec):
        event = factory.create(spec["topic"], validity=spec["validity"],
                               now=sim.now, payload_bytes=64)
        published.append(event)
        nodes[0].protocol.publish(event)

    for spec in params["publications"]:
        sim.call_at(spec["at"], publish, spec)
    sim.run(until=90.0)
    return {"nodes": nodes, "published": published, "config": config}


@given(worlds)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_protocol_invariants(params):
    world = run_world(params)
    nodes = world["nodes"]
    capacity = world["config"].event_table_capacity

    for node in nodes:
        delivered_ids = [e.event_id for e in node.delivered_events]
        # No duplicate deliveries — unless the bounded event table evicted
        # a *still-valid* event: the table is the paper's only dedup state
        # (Fig. 9 line 21), so re-receiving an evicted event re-delivers.
        # That is the accepted cost of bounded memory (Section 4.4).
        if node.protocol.events.evictions_policy == 0:
            assert len(delivered_ids) == len(set(delivered_ids)), \
                f"node {node.id} delivered a duplicate"
        subs = node.protocol.subscriptions
        for event in node.delivered_events:
            if event.event_id.publisher == node.id:
                # The paper's publish() always delivers locally (Fig. 9
                # line 49), subscribed or not.
                continue
            # Entitlement: only subscribed(-ancestor) topics delivered.
            assert subscription_matches_event(subs, event.topic), \
                f"node {node.id} got a parasite {event.topic}"
        # Bounded memory.
        if capacity is not None:
            assert len(node.protocol.events) <= capacity
        # Forward accounting: transmissions happen one batch at a time.
        counters = node.protocol.counters
        assert counters.events_forwarded >= 0
        assert counters.batches_sent <= counters.events_forwarded or \
            counters.batches_sent == 0

    # The publisher (node 0) delivered every event it was entitled to.
    publisher = nodes[0]
    for event in world["published"]:
        if subscription_matches_event(publisher.protocol.subscriptions,
                                      event.topic):
            assert event in publisher.delivered_events


@given(worlds)
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_deliveries_within_validity(params):
    """Track delivery instants with a hook; none may exceed expiry.

    (A small slack covers the frame that was already in flight when the
    validity elapsed — airtime is ~4 ms.)
    """
    sim = Simulator()
    rngs = RngRegistry(params["seed"])
    medium = WirelessMedium(sim, RadioConfig(range_override_m=150.0),
                            rng=rngs.stream("medium"))
    late = []

    def check(node, event):
        if node.sim.now > event.expires_at + 0.01:
            late.append((node.id, event.event_id))

    nodes = []
    for i in range(params["n_nodes"]):
        protocol = FrugalPubSub(FrugalConfig())
        node = Node(i, sim, medium, Stationary(width=400.0, height=400.0),
                    protocol, rngs.stream("node", i))
        topic = params["subscriptions"][i % len(params["subscriptions"])]
        protocol.subscribe(topic)
        node.on_deliver = check
        nodes.append(node)
    for node in nodes:
        node.start()
    factory = EventFactory(0)
    for spec in params["publications"]:
        sim.call_at(spec["at"],
                    lambda s=spec: nodes[0].protocol.publish(
                        factory.create(s["topic"], validity=s["validity"],
                                       now=sim.now, payload_bytes=64)))
    sim.run(until=120.0)
    assert late == [], f"late deliveries: {late}"


@given(st.integers(0, 1000))
@settings(max_examples=10, deadline=None)
def test_whole_simulation_determinism(seed):
    """Identical seeds => bit-identical outcomes, any seed."""
    def fingerprint():
        params = {"seed": seed, "n_nodes": 5,
                  "subscriptions": [".a", ".a.b"], "moving": True,
                  "capacity": None,
                  "publications": [{"topic": ".a.b", "validity": 30.0,
                                    "at": 5.0}]}
        world = run_world(params)
        return tuple(
            (n.id, tuple(str(e.event_id) for e in n.delivered_events),
             n.protocol.counters.heartbeats_sent,
             n.protocol.counters.batches_sent)
            for n in world["nodes"])
    assert fingerprint() == fingerprint()
