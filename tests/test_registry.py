"""The protocol registry (repro.core.registry).

Registration semantics (duplicates, replace, unknown names) plus the
end-to-end property that makes the registry useful: a custom protocol
composed from the stack layers runs through the full scenario harness
by name.
"""

from __future__ import annotations

import pytest

from repro.core import registry
from repro.core.base import PubSubProtocol
from repro.core.stack import DeliveryLayer, EventStore, GossipForwarding
from repro.harness.scenario import (Publication, RandomWaypointSpec,
                                    ScenarioConfig, run_scenario)
from repro.net.messages import EventBatch


class _Noop(PubSubProtocol):
    """A do-nothing protocol for registration tests."""

    def subscribe(self, topic):
        pass

    def unsubscribe(self, topic):
        pass

    def publish(self, event):
        pass

    @property
    def subscriptions(self):
        return frozenset()

    def on_message(self, message):
        pass


@pytest.fixture
def noop_name():
    """A name the test may register; unregistered afterwards."""
    yield "test-noop"
    registry.REGISTRY.pop("test-noop", None)


class TestRegistrySemantics:
    def test_register_get_create(self, noop_name):
        factory = lambda c: _Noop()                     # noqa: E731
        registry.register(noop_name, factory)
        assert registry.get(noop_name) is factory
        assert isinstance(registry.create(noop_name, config=None), _Noop)
        assert noop_name in registry.names()

    def test_duplicate_requires_replace(self, noop_name):
        registry.register(noop_name, lambda c: _Noop())
        with pytest.raises(ValueError, match="already registered"):
            registry.register(noop_name, lambda c: _Noop())
        registry.register(noop_name, lambda c: _Noop(), replace=True)

    def test_unknown_name_lists_known(self, noop_name):
        registry.register(noop_name, lambda c: _Noop())
        with pytest.raises(ValueError, match=noop_name):
            registry.get("missing")

    def test_unregister(self, noop_name):
        registry.register(noop_name, lambda c: _Noop())
        registry.unregister(noop_name)
        assert noop_name not in registry.names()
        with pytest.raises(ValueError, match="not registered"):
            registry.unregister(noop_name)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            registry.register("", lambda c: _Noop())

    def test_builtins_are_registered(self):
        names = registry.names()
        for expected in ("frugal", "simple-flooding", "interest-flooding",
                         "neighbor-flooding", "gossip-flooding",
                         "counter-flooding", "gossip"):
            assert expected in names


class _BlindGossip(PubSubProtocol):
    """A minimal custom composition: delivery + FIFO buffer + gossip."""

    def __init__(self, probability: float):
        super().__init__()
        self.delivery = DeliveryLayer(self.counters)
        self.buffer = EventStore.bounded_fifo(16)
        self.forwarding = GossipForwarding(self.counters, period=1.0,
                                           jitter=0.05,
                                           forward_probability=probability,
                                           fanout=4)
        self._running = False

    def attach(self, host):
        super().attach(host)
        self.delivery.attach(host)
        self.forwarding.attach(host, self.buffer)

    def on_start(self):
        self._running = True
        self.forwarding.start()

    def on_stop(self):
        self._running = False
        self.forwarding.stop()
        self.buffer.clear()
        self.delivery.reset()

    @property
    def subscriptions(self):
        return self.delivery.subscriptions

    def subscribe(self, topic):
        self.delivery.subscribe(topic)

    def unsubscribe(self, topic):
        self.delivery.unsubscribe(topic)

    def publish(self, event):
        host = self._require_attached()
        self.buffer.store(event, host.now)
        self.delivery.deliver_once(event)
        self.forwarding.broadcast((event,))

    def on_message(self, message):
        if not self._running or not isinstance(message, EventBatch):
            return
        now = self.host.now
        for event in message.events:
            if event.event_id in self.buffer or not event.is_valid(now):
                continue
            self.buffer.store(event, now)
            self.delivery.deliver_once(event)


class TestCustomProtocolThroughHarness:
    def test_registered_composition_runs_by_name(self):
        registry.register("test-blind-gossip",
                          lambda c: _BlindGossip(0.9), replace=True)
        try:
            config = ScenarioConfig(
                n_processes=6,
                mobility=RandomWaypointSpec(width=700.0, height=700.0,
                                            speed_min=10.0, speed_max=10.0),
                duration=25.0, warmup=2.0,
                protocol="test-blind-gossip",
                subscriber_fraction=0.8,
                publications=(Publication(at=2.0, validity=20.0),))
            assert isinstance(registry.create(config.protocol, config),
                              _BlindGossip)
            result = run_scenario(config)
            assert result.reliability() > 0.0
            assert result.protocol_counters().batches_sent > 0
        finally:
            registry.unregister("test-blind-gossip")

    def test_unregistered_name_rejected_by_config(self):
        with pytest.raises(ValueError, match="protocol"):
            ScenarioConfig(
                n_processes=2,
                mobility=RandomWaypointSpec(width=100.0, height=100.0,
                                            speed_min=1.0, speed_max=1.0),
                duration=5.0, protocol="test-blind-gossip")
