"""One reception loop for every protocol stack.

:class:`StackProtocol` is the composition root every built-in protocol
declares itself over.  It takes its layers through the constructor — a
:class:`~repro.core.stack.delivery.DeliveryLayer`, a store, a forwarding
policy and an optional membership layer — and owns, once, what each
protocol class used to re-type:

* the lifecycle: attach/detach into every layer, start/stop, and the
  ``_running`` gate that makes a stopped stack ignore the air;
* the subscription surface, which the delivery layer holds and the
  membership layer is told about;
* :meth:`~StackProtocol.on_message`: one look-up in a table keyed by the
  exact message type, built once per class; a kind the class does not
  handle is ignored (the medium is shared with whatever other protocols
  a simulation mixes in);
* the :class:`~repro.net.messages.EventBatch` triage, the only place
  parasites, duplicates and in-flight expiries are counted.

A protocol then declares its layers plus a small hook: what
:meth:`~StackProtocol._accept` does with a fresh event, or a step around
the triage (override ``_on_event_batch`` and call ``super()``).  *Seen*
means held in the store, unless the stack passes an id set (``seen``)
for a store that forgets or no store at all; delivery is the accept
hook's choice (``deliver_once`` by default, the store row's
``delivered`` flag for the frugal protocol).
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Optional, Set

from repro.core.base import Host, ProtocolCounters, PubSubProtocol
from repro.core.events import Event, EventId
from repro.core.stack.delivery import DeliveryLayer
from repro.core.stack.store import EventStore
from repro.core.topics import Topic, entitled
from repro.net.messages import EventBatch, EventIdList, Heartbeat, Message

#: The frame kinds a stack can handle, and the method handling each.  A
#: class whose method is ``None`` leaves that kind out of its table.
_HANDLERS = ((Heartbeat, "_on_heartbeat"),
             (EventIdList, "_on_event_id_list"),
             (EventBatch, "_on_event_batch"))


class StackProtocol(PubSubProtocol):
    """A pub/sub protocol composed of stack layers around one reception
    loop.

    ``membership`` may be ``None`` (a stack that ignores heartbeats),
    as may ``store`` (a stack that holds nothing, whose ``seen`` set
    then does the dedup).  Subclasses implement :meth:`publish` and may
    override :meth:`_accept`, ``_on_event_id_list`` and
    ``_on_event_batch``.
    """

    #: Keep a fresh event of no subscribed topic (the default accept
    #: step)?  Routing-layer stacks re-forward what they do not want.
    stores_parasites = True

    #: Called with every duplicate, subscribed or not; ``None`` to skip.
    _on_duplicate: Optional[Callable[[Event], None]] = None
    _on_event_id_list: Optional[Callable[[EventIdList], None]] = None
    _handlers: Dict[type, Callable[["StackProtocol", Message], None]] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._handlers = {kind: getattr(cls, name) for kind, name in _HANDLERS
                         if getattr(cls, name) is not None}

    def __init__(self, counters: ProtocolCounters, delivery: DeliveryLayer,
                 store: Optional[EventStore], forwarding,
                 membership=None, seen: Optional[Set[EventId]] = None):
        super().__init__(counters)
        self.delivery = delivery
        self.store = store
        self.forwarding = forwarding
        self.membership = membership
        self.seen = seen
        self._running = False

    # -- lifecycle -----------------------------------------------------------------

    def attach(self, host: Host) -> None:
        """Bind to ``host`` and wire every layer to it."""
        super().attach(host)
        self.delivery.attach(host)
        if self.store is not None:
            self.store.attach(host)
        if self.membership is not None:
            self.membership.attach(host)
        self.forwarding.attach(host, self.store)

    def detach(self) -> None:
        """Sever the host binding on every layer (stop first)."""
        super().detach()
        self.delivery.detach()
        if self.membership is not None:
            self.membership.detach()
        self.forwarding.detach()

    def on_start(self) -> None:
        """Boot: arm the forwarding layer's task, then the membership's
        (each task draws its first jitter as it is armed)."""
        self._running = True
        self.forwarding.start()
        if self.membership is not None:
            self.membership.start()

    def on_stop(self) -> None:
        """Crash/shutdown: stop every task and lose all volatile state.

        A recovered process rebuilds its store, neighbour view, delivery
        history and seen ids from scratch (Section 2 allows crash/recover
        at any time); the lifetime counters survive.
        """
        self._running = False
        self.forwarding.stop()
        if self.membership is not None:
            self.membership.stop()
        if self.store is not None:
            self.store.clear()
        self.delivery.reset()
        if self.seen is not None:
            self.seen.clear()

    # -- application-facing API -------------------------------------------------------

    @property
    def subscriptions(self) -> FrozenSet[Topic]:
        """Current subscription set."""
        return self.delivery.subscriptions

    def subscribe(self, topic: Topic | str) -> None:
        """Register interest in ``topic`` and its subtopics."""
        self.delivery.subscribe(topic)
        if self.membership is not None:
            self.membership.update_tasks()

    def unsubscribe(self, topic: Topic | str) -> None:
        """Drop a subscription (unknown topics are ignored)."""
        self.delivery.unsubscribe(topic)
        if self.membership is not None:
            self.membership.update_tasks()

    @property
    def stored_event_ids(self) -> Set[EventId]:
        """Ids of every currently stored event."""
        return self.store.event_ids()

    # -- network-facing API --------------------------------------------------------------

    def on_message(self, message: Message) -> None:
        """Hand a received frame to this class's handler for its kind."""
        if self._running:
            handler = self._handlers.get(type(message))
            if handler is not None:
                handler(self, message)

    def _on_heartbeat(self, hb: Heartbeat) -> None:
        if self.membership is not None:
            self.membership.on_heartbeat(hb)

    def _on_event_batch(self, msg: EventBatch) -> bool:
        """The triage: count each carried event as a parasite (no
        subscribed topic), a duplicate (already seen: counted only if
        subscribed) or an in-flight expiry, and accept the rest.  The
        batch is matched against the subscriptions in force when it
        arrives.

        Returns whether an event of interest was accepted.
        """
        now = self.host.now
        counters = self.counters
        subscriptions = self.delivery.subscriptions
        seen = self.seen
        held = self.store.ids if seen is None else seen
        on_duplicate = self._on_duplicate
        interesting = False
        for event in msg.events:
            subscribed = entitled(subscriptions, event.topic)
            if not subscribed:
                counters.parasites_dropped += 1
            if event.event_id in held:
                if subscribed:
                    counters.duplicates_dropped += 1
                if on_duplicate is not None:
                    on_duplicate(event)
                continue
            if seen is not None:
                seen.add(event.event_id)
            if not event.is_valid(now):
                continue   # expired in flight; of no use to anyone
            interesting = interesting or subscribed
            self._accept(event, subscribed, now)
        return interesting

    def _accept(self, event: Event, subscribed: bool, now: float) -> None:
        """A fresh, valid event: keep it, deliver it if subscribed."""
        if self.store is not None and (subscribed or self.stores_parasites):
            self.store.store(event, now)
        if subscribed:
            self.delivery.deliver_once(event)

    def __repr__(self) -> str:   # pragma: no cover - debugging aid
        subs = ",".join(sorted(str(t) for t in self.subscriptions))
        held = len(self.store) if self.store is not None else len(self.seen)
        return f"<{type(self).__name__} subs=[{subs}] held={held}>"
