"""The node: one host lifecycle, two clocks and two airs.

:class:`HostNode` implements the :class:`repro.core.base.Host` interface
the protocols program against, once: crash/recover failure injection
(the paper's model allows processes to "crash (or recover) at any time",
Section 2), nested radio silence and crash-guarded timers on a clock.
:class:`Node` runs it on the simulator and the simulated medium (plus
mobility, duty cycling and batteries), :class:`repro.rt.host.AsyncioHost`
on an asyncio loop and UDP.
"""

from __future__ import annotations

import abc
from operator import attrgetter
from typing import Callable, List, Optional

from repro.core.base import HandleList, PubSubProtocol
from repro.core.events import Event
from repro.mobility.base import MobilityModel
from repro.net.medium import WirelessMedium
from repro.net.messages import Message
from repro.sim.kernel import PeriodicTask, Simulator, Timer
from repro.sim.space import Vec2


class HostNode(abc.ABC):
    """One process running a pub/sub protocol instance, radio aside.

    ``sim`` is the clock: anything with ``now`` and ``schedule(delay,
    callback, *args) -> Timer``.  ``asleep`` (duty cycle) and
    ``depleted`` (dead battery) stay ``False`` where radios do neither.
    """

    def __init__(self, node_id: int, sim, protocol: PubSubProtocol, rng):
        self.id = node_id
        self.sim = sim
        self.protocol = protocol
        self._rng = rng
        self.alive = False
        self.asleep = False
        self._silence_depth = 0
        self.depleted = False
        self._started = False
        self._timers = HandleList(attrgetter("active"))
        self._periodics = HandleList(attrgetter("running"))
        self._deferred_sends: List[Message] = []
        self.delivered_events: List[Event] = []
        self.on_deliver: Optional[Callable[["HostNode", Event], None]] = None
        # Radio state-transition hook ("sleep" / "wake" / "down"); the
        # energy accountant subscribes to charge SLEEP time and record
        # battery deaths.
        self.on_radio_state: Optional[
            Callable[["HostNode", str], None]] = None
        protocol.attach(self)

    @abc.abstractmethod
    def _transmit(self, message: Message) -> None:
        """Put one frame on the air now (the radio is up)."""

    def _boot_device(self) -> None:
        """Bring up what runs beneath the protocol (nothing, here)."""

    # -- lifecycle ------------------------------------------------------------------

    def start(self) -> None:
        """Boot the node: bring the device up and start the protocol."""
        if self._started:
            raise RuntimeError(f"node {self.id} already started")
        self._started = True
        self.alive = True
        self._boot_device()
        self.protocol.on_start()

    def crash(self) -> None:
        """Fail-stop: cancel all protocol timers, go deaf and mute."""
        if not self.alive:
            return
        self.alive = False
        self.protocol.on_stop()
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()
        for task in self._periodics:
            task.stop()
        self._periodics.clear()
        self._deferred_sends.clear()

    def recover(self) -> None:
        """Restart the protocol after a crash (volatile state was lost)."""
        if self.alive or self.depleted:
            return
        self.alive = True
        self.protocol.on_start()

    @property
    def listening(self) -> bool:
        """Radio able to receive: powered, booted, not duty-cycled off
        and not fault-silenced."""
        return self.alive and not self.asleep and not self._silence_depth

    def _flush_deferred(self) -> None:
        """Put queued frames on the air, if the radio is actually up
        (a waking node may still be fault-silenced, and vice versa)."""
        if self._deferred_sends and self.listening:
            pending, self._deferred_sends = self._deferred_sends, []
            for message in pending:
                self._transmit(message)

    # -- fault injection (radio silence) ----------------------------------------------

    @property
    def silenced(self) -> bool:
        """True while at least one fault-injected silence window is on.

        Silence nests: two overlapping regional outages each call
        :meth:`silence` / :meth:`unsilence` once, and the radio only
        comes back when the *last* window lifts.
        """
        return self._silence_depth > 0

    def silence(self) -> None:
        """Open a fault-injected radio-silence window (outage/jamming):
        deaf and mute like a sleeping radio, but orthogonal to duty
        cycling — protocol state and timers survive, outbound frames
        queue until the matching :meth:`unsilence`.  A no-op on a
        crashed node (nothing to jam)."""
        if not self.alive:
            return
        self._silence_depth += 1
        # Bill the radio as sleeping unless the duty cycler already does.
        if self._silence_depth == 1 and not self.asleep \
                and self.on_radio_state is not None:
            self.on_radio_state(self, "sleep")

    def unsilence(self) -> None:
        """Close one silence window; the radio returns (and queued
        frames flush) when the last overlapping window has lifted."""
        if self._silence_depth == 0:
            return
        self._silence_depth -= 1
        if self._silence_depth > 0 or not self.alive:
            return
        if not self.asleep and self.on_radio_state is not None:
            self.on_radio_state(self, "wake")
        self._flush_deferred()

    # -- Host interface ----------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current time on the host's clock, seconds."""
        return self.sim.now

    @property
    def rng(self):
        """This node's dedicated deterministic random stream."""
        return self._rng

    def send(self, message: Message) -> None:
        """Broadcast ``message`` one hop (queued while asleep or
        silenced, dropped while crashed)."""
        if not self.alive:
            return
        if self.asleep or self.silenced:
            self._deferred_sends.append(message)
            return
        self._transmit(message)

    def schedule(self, delay: float, callback: Callable[..., None],
                 *args) -> Timer:
        """Run ``callback(*args)`` in ``delay`` seconds unless this node
        crashes first; returns the cancellable :class:`Timer`."""
        timer = self.sim.schedule(delay, self._guarded, callback, args)
        self._timers.track(timer)
        return timer

    def _guarded(self, callback: Callable[..., None], args: tuple) -> None:
        if self.alive:
            callback(*args)

    def periodic(self, period: float, callback: Callable[[], None],
                 jitter: float = 0.0) -> PeriodicTask:
        """Start a repeating task every ``period`` seconds (plus
        ``U(0, jitter)`` per tick), stopped automatically on crash."""
        task = PeriodicTask(self.sim, period, callback, jitter=jitter,
                            rng=self._rng)
        self._periodics.track(task)
        return task

    def deliver(self, event: Event) -> None:
        """Hand an event to the application layer (records + notifies)."""
        self.delivered_events.append(event)
        if self.on_deliver is not None:
            self.on_deliver(self, event)

    def current_speed(self) -> Optional[float]:
        """``None``: this host has no tachometer."""
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.alive else "down"
        return (f"<{type(self).__name__} {self.id} {state} "
                f"{type(self.protocol).__name__}>")


class Node(HostNode):
    """One mobile device on the simulated radio medium."""

    def __init__(self, node_id: int, sim: Simulator, medium: WirelessMedium,
                 mobility: MobilityModel, protocol: PubSubProtocol,
                 rng, speed_sensor: bool = True):
        super().__init__(node_id, sim, protocol, rng)
        self.medium = medium
        self.mobility = mobility
        self.speed_sensor = speed_sensor
        medium.register(self)
        # Spatial-index wiring: the mobility model pushes position anchors
        # into the medium's grid (at leg boundaries and every slack-metres
        # of travel) instead of the medium polling position() per frame.
        mobility.anchor_interval_m = medium.position_slack_m
        self._wire_mobility()

    def _wire_mobility(self) -> None:
        """Subscribe the medium to this node's anchor and leg pushes."""
        mobility = self.mobility
        mobility.on_move = self._announce_position
        # Leg-state pushes let the medium's LegTable interpolate this
        # node's exact position without a per-frame position() call
        # (see repro.sim.batch).
        mobility.on_leg_change = self._announce_leg
        if mobility.started:
            # A model already mid-leg has no re-anchor timer armed and
            # has pushed no leg; resync both so the anchor stays
            # slack-bounded and the leg row is exact from here on.
            mobility.refresh_anchor()
            self._announce_leg()

    def _transmit(self, message: Message) -> None:
        self.medium.broadcast(self.id, message)

    def _boot_device(self) -> None:
        """Begin moving: mobility starts before the protocol.

        The mobility model keeps moving the device across crashes (a
        crashed process sits on a still-moving vehicle).
        """
        if not self.mobility.started:
            self.mobility.start(self.sim, self._rng)

    # -- battery ----------------------------------------------------------------------

    def power_down(self) -> None:
        """Battery exhausted: fail-stop *permanently* and leave the medium.

        Unlike :meth:`crash`, a drained node cannot :meth:`recover` and is
        unregistered from the medium — it transmits nothing, receives
        nothing and no longer counts as a potential relay.  This is what
        network-lifetime experiments measure.
        """
        if self.depleted:
            return
        self.crash()
        self.depleted = True
        self.asleep = False
        self.medium.unregister(self.id)
        # Stop the anchor-push chain: the medium would discard every
        # push for this id anyway, so the re-anchor timers a still-moving
        # dead device keeps arming would be pure kernel churn.
        if self.mobility.on_move is not None:
            self.mobility.on_move = None
            self.mobility.refresh_anchor()   # cancels the armed re-anchor
        self.mobility.on_leg_change = None   # medium dropped our leg row
        if self.on_radio_state is not None:
            self.on_radio_state(self, "down")

    def repower(self) -> None:
        """A fresh battery was installed in a drained device: rejoin the
        medium and restart the protocol (volatile state was lost, as
        after any crash).  Used at measurement-window start for nodes
        that ran dry during warm-up."""
        if not self.depleted:
            return
        self.depleted = False
        if self.id not in self.medium.nodes:
            self.medium.register(self)
        # Resume the pushes undone by power_down (register() already
        # indexed the exact current position).
        self._wire_mobility()
        self.recover()

    # -- duty cycling ---------------------------------------------------------------

    def sleep(self) -> None:
        """Switch the radio off (duty cycle): deaf until :meth:`wake`,
        outbound frames queue instead of transmitting."""
        if not self.alive or self.asleep:
            return
        self.asleep = True
        # A silenced radio is already billed as sleeping; duty edges
        # inside a silence window must not re-notify.
        if not self.silenced and self.on_radio_state is not None:
            self.on_radio_state(self, "sleep")

    def wake(self) -> None:
        """Switch the radio back on and flush frames queued while asleep
        (they contend on the channel in queueing order)."""
        if not self.alive or not self.asleep:
            return
        self.asleep = False
        if not self.silenced and self.on_radio_state is not None:
            self.on_radio_state(self, "wake")
        self._flush_deferred()

    # -- medium interface ---------------------------------------------------------------

    def current_speed(self) -> Optional[float]:
        """Own speed in m/s, or ``None`` without a tachometer.

        The paper treats speed as optional heartbeat payload; ``None``
        cleanly distinguishes "no sensor" from a true 0 m/s reading.
        """
        if not self.speed_sensor or not self.mobility.started:
            return None
        return self.mobility.current_speed()

    def position(self) -> Vec2:
        """Exact current position (metres) from the mobility model."""
        return self.mobility.position()

    def _announce_position(self, pos: Vec2) -> None:
        """Forward a mobility anchor push into the medium's spatial index."""
        self.medium.note_position(self.id, pos)

    def _announce_leg(self) -> None:
        """Forward a leg-state push into the medium's leg table."""
        self.medium.note_leg(self.id, self.mobility.leg_state())

    def receive(self, message: Message) -> None:
        """Frame arrival from the medium; ignored while crashed."""
        if self.alive:
            self.protocol.on_message(message)
