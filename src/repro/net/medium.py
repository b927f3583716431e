"""The shared broadcast wireless medium.

This is the substrate standing in for Qualnet's 802.11b PHY/MAC.  It models
exactly the phenomena the paper's results depend on:

* **broadcast locality** — a frame reaches every node within the sender's
  communication radius, and nobody else (one-hop sends only, Section 2);
* **finite airtime** — a frame occupies the channel for
  ``preamble + bits/rate`` seconds;
* **carrier sense** — a node that senses an audible ongoing transmission
  defers with a random back-off before retrying (CSMA), bounded by
  ``max_csma_retries`` after which the frame is sent anyway (matching
  802.11 behaviour of eventually seizing a busy channel);
* **collisions** — a reception fails when two transmissions audible at the
  *receiver* overlap in time (no capture effect), and while the receiver is
  itself transmitting (half-duplex).  Fig. 13's non-monotonic heartbeat
  result is explicitly attributed to collisions, so this is load-bearing;
* **optional uniform frame loss** — fading/interference hook for failure-
  injection tests.

Positions are sampled from each node's mobility model at transmission
start; at pedestrian/vehicular speeds and millisecond airtimes the
displacement within a frame is negligible.

Frame resolution
----------------
There is one frame engine, and each of its questions is one pass over
plain floats (:mod:`repro.sim.batch`):

* each node's mobility model *pushes* its leg state
  (:meth:`MobilityModel.leg_state`) into a
  :class:`~repro.sim.batch.LegTable` at every leg change.  The table
  anchors each node in its own :class:`~repro.sim.space.SpatialGrid`
  and re-anchors the moving ones lazily, when a query finds they could
  have drifted more than ``anchor slack`` metres since the last pass,
  so every anchor it reads is within the slack of the true position;
* "who can hear this frame?" is :meth:`LegTable.audible
  <repro.sim.batch.LegTable.audible>` — the one receiver-resolution
  routine, shared by :meth:`WirelessMedium._listeners`,
  :meth:`WirelessMedium.nodes_within` and the shard engine.  It walks
  the grid's cell block of reach ``range + slack`` (a superset of the
  true audible set), interpolates every member's exact position with the
  same float64 arithmetic as ``position()`` and confirms range with
  ``math.hypot`` — the grid is a pruning accelerator, never an
  approximation.  Survivors come back as ``(id, x, y)`` tuples in
  ascending-id order, which fixes the order of every delivery, energy
  charge and RNG draw;
* recent transmissions live in a start-ordered
  :class:`~repro.sim.batch.TxLog`, which serves carrier sense and
  per-receiver collision verdicts by reading back from its newest row
  and stopping one maximum airtime before the instant asked about;
* the K per-receiver deliveries of one frame are a *single* kernel
  event (:meth:`WirelessMedium._deliver_batch`), walked in ascending
  receiver id.  A frame's overlap set is final at its end time (the
  overlap predicate is strict, so a transmission *starting* at the
  delivery instant never overlaps), hence verdicts computed once up
  front equal verdicts computed between deliveries.

Sending ends in one overridable step, :meth:`WirelessMedium._put_on_air`
(log, ``_listeners``, arm ``_deliver_batch``); the sharded engine's
medium overrides it to queue the frame for its epoch-barrier exchange,
then runs the same two steps when the frame is delivered.

Exactness is held by the test suite, not by a second engine:
``tests/golden_digests.json`` pins digests taken from a naive O(N)
full-scan medium, and the brute-force oracles in ``tests/helpers.py``
re-derive every delivery/collision verdict from first principles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from repro.net.messages import Message, SizeModel
from repro.net.radio import MediumConfig, RadioConfig
from repro.sim import batch
from repro.sim.kernel import Simulator
from repro.sim.space import Vec2

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Node

#: Seconds a finished frame stays available for collision checks (far
#: above the longest airtime, milliseconds).
HISTORY_HORIZON_S = 1.0


def anchor_slack_m(range_m: float) -> float:
    """Re-anchor distance (metres) for a radio range: an eighth of it."""
    return range_m / 8.0


@dataclass
class Transmission:
    """One frame on the air."""

    sender: int
    sender_pos: Vec2
    range_m: float
    start: float
    end: float
    message: Message

    def overlaps(self, other: "Transmission") -> bool:
        """True when the two frames were on the air at the same time."""
        return self.start < other.end and other.start < self.end

    def audible_at(self, pos: Vec2) -> bool:
        """True when ``pos`` lies within this frame's communication range."""
        return self.sender_pos.distance_to(pos) <= self.range_m


class WirelessMedium:
    """Broadcast medium shared by all nodes of a simulation.

    Parameters
    ----------
    sim:
        The event kernel everything is scheduled on.
    radio:
        Physical-layer parameters; ``communication_range_m()`` sizes both
        the audible radius and the spatial-index cells.
    config:
        MAC behaviour knobs (defaults to :class:`MediumConfig`).
    sizes:
        Wire-size model used to derive frame airtimes.
    rng:
        Dedicated random stream for CSMA back-off and uniform loss draws.
    """

    def __init__(self, sim: Simulator, radio: RadioConfig,
                 config: MediumConfig | None = None,
                 sizes: SizeModel | None = None,
                 rng=None):
        self.sim = sim
        self.radio = radio
        self.config = config or MediumConfig()
        self.sizes = sizes or SizeModel()
        self._rng = rng
        self._nodes: Dict[int, "Node"] = {}
        # Exact legs (and their grid anchors) and recent transmissions.
        # The grid's cell size equals the inflated radio range, so
        # receiver resolution touches exactly a 3x3 block of cells.
        range_m = radio.communication_range_m()
        slack_m = anchor_slack_m(range_m)
        self._legs = batch.LegTable(range_m + slack_m, slack_m)
        self._txlog = batch.TxLog(HISTORY_HORIZON_S)
        # Observability hooks (metrics collector subscribes to these).
        self.on_transmit: Optional[Callable[[int, Message, int], None]] = None
        self.on_receive: Optional[Callable[[int, Message], None]] = None
        self.on_drop: Optional[Callable[[int, Message, str], None]] = None
        # Radio-occupancy hooks (energy accountant subscribes to these):
        # called with (node_id, airtime_s) whenever a node's radio is
        # busy transmitting its own frame / overlapped by an audible one.
        self.on_tx_window: Optional[Callable[[int, float], None]] = None
        self.on_rx_window: Optional[Callable[[int, float], None]] = None
        # Fault-injection loss hook: called (sender_id, receiver_id) at
        # delivery time; returning True drops the frame.  Installed by
        # the fault injector's link-loss model; None (the default) adds
        # zero work and zero RNG draws to the delivery path.
        self.extra_loss: Optional[Callable[[int, int], bool]] = None
        self.frames_sent = 0
        self.frames_delivered = 0
        self.frames_collided = 0
        self.frames_lost_random = 0
        self.frames_lost_fault = 0

    # -- membership ---------------------------------------------------------------

    def register(self, node: "Node") -> None:
        """Add a node to the medium (and, when possible, to the grid).

        A node whose position is already resolvable — a test stub, or a
        repowered node whose mobility model is running — is indexed
        immediately; a node registered before its mobility model started
        is indexed by the first leg its model pushes at start time.
        """
        if node.id in self._nodes:
            raise ValueError(f"duplicate node id {node.id}")
        self._nodes[node.id] = node
        mobility = getattr(node, "mobility", None)
        if mobility is None or mobility.started:
            try:
                pos = node.position()
            except RuntimeError:
                return
            # Seed a parked leg so the node resolves immediately; a node
            # with a live mobility model overwrites this with its true
            # leg when the leg-change wiring pushes (same call stack,
            # before any query).
            now = self.sim.now
            self._legs.note(node.id, batch.static_state(pos.x, pos.y, now),
                            now)

    def unregister(self, node_id: int) -> None:
        """Remove a node from the medium and from the spatial index.

        A drained (or otherwise departed) node stops being a potential
        receiver *and* disappears from the grid, though its device may
        still ride a moving vehicle.
        """
        self._nodes.pop(node_id, None)
        self._legs.remove(node_id)

    def note_leg(self, node_id: int, state: "batch.LegState") -> None:
        """Record a leg-state push from a node's mobility model.

        The exact-position source: one push per leg boundary keeps
        :class:`~repro.sim.batch.LegTable` able to reproduce
        ``position()`` bit for bit until the next boundary.  Pushes for
        unregistered ids are dropped.
        """
        if node_id in self._nodes:
            self._legs.note(node_id, state, self.sim.now)

    @property
    def nodes(self) -> Dict[int, "Node"]:
        """Registered nodes by id (insertion-ordered)."""
        return self._nodes

    def nodes_within(self, pos: Vec2, radius_m: float) -> List["Node"]:
        """Registered nodes whose *exact* position lies within
        ``radius_m`` of ``pos``, in ascending-id order.

        This *is* receiver resolution (:meth:`LegTable.audible
        <repro.sim.batch.LegTable.audible>`) with a caller-chosen centre
        and radius.  Used by the fault subsystem to resolve regional
        outage membership.
        """
        if radius_m < 0:
            raise ValueError(f"radius_m must be >= 0: {radius_m}")
        return [self._nodes[i] for i, _, _ in
                self._legs.audible(self.sim.now, pos.x, pos.y, radius_m)]

    # -- sending --------------------------------------------------------------------

    def broadcast(self, sender_id: int, message: Message) -> None:
        """Entry point used by nodes; applies carrier sense then transmits."""
        self._attempt_send(sender_id, message, attempt=0)

    def _attempt_send(self, sender_id: int, message: Message,
                      attempt: int) -> None:
        sender = self._nodes.get(sender_id)
        if sender is None or not sender.alive:
            return  # sender crashed while the frame was queued
        if sender.asleep or sender.silenced:
            sender.send(message)   # radio went down mid-backoff (duty
            return                 # cycle or fault silence): requeue
        pos = sender.position()
        if (self.config.csma_enabled
                and attempt < self.config.max_csma_retries
                and self._channel_busy(sender_id, pos)):
            delay = self._csma_delay(sender_id)
            self.sim.schedule(delay, self._attempt_send, sender_id,
                              message, attempt + 1)
            return
        self._transmit(sender, pos, message)

    def _csma_delay(self, sender_id: int) -> float:
        lo = self.config.csma_backoff_min_s
        hi = self.config.csma_backoff_max_s
        rng = self._mac_rng(sender_id)
        if rng is None or hi <= lo:
            return lo
        return rng.uniform(lo, hi)

    def _mac_rng(self, sender_id: int):
        """The stream a CSMA back-off draw for this sender uses."""
        return self._rng

    def _channel_busy(self, sender_id: int, pos: Vec2) -> bool:
        """Any audible transmission defers a sender — including its *own*
        in-flight frame, which is how a half-duplex MAC serialises a
        node's back-to-back sends instead of corrupting both."""
        return self._txlog.busy(pos.x, pos.y, self.sim.now)

    def _loss_rng(self, receiver_id: int):
        """The stream a uniform frame-loss draw for this receiver uses."""
        return self._rng

    def _transmit(self, sender: "Node", pos: Vec2, message: Message) -> None:
        """Assemble one frame, count it for its sender, put it on the air.

        Frame assembly, ``frames_sent`` and the TX hooks (metrics, TX
        energy) belong to the sender whatever happens to the frame next;
        :meth:`_put_on_air` is the one step a subclass replaces.
        """
        now = self.sim.now
        size = message.size_bytes(self.sizes)
        duration = self.radio.transmission_duration_s(size)
        tx = Transmission(sender=sender.id, sender_pos=pos,
                          range_m=self.radio.communication_range_m(),
                          start=now, end=now + duration, message=message)
        self.frames_sent += 1
        if self.on_transmit is not None:
            self.on_transmit(sender.id, message, size)
        if self.on_tx_window is not None:
            self.on_tx_window(sender.id, duration)
        self._put_on_air(tx, duration)

    def _put_on_air(self, tx: Transmission, duration: float) -> None:
        """Log the frame, resolve its listeners, arm its one delivery."""
        pos = tx.sender_pos
        tx_seq = self._txlog.add(tx.sender, pos.x, pos.y, tx.range_m,
                                 tx.start, duration)
        receivers = self._listeners(tx, tx.start, duration)
        if receivers:
            self.sim.schedule(duration, self._deliver_batch, tx, tx_seq,
                              receivers)

    def _listeners(self, tx: Transmission, at: float,
                   duration: float) -> List[batch.Hit]:
        """The nodes listening to ``tx`` at ``at``, RX windows charged.

        The audible set is resolved up front (exact interpolated
        positions from the :class:`LegTable`), then walked in
        ascending-id order: the listening filter and RX-energy charges
        happen per node, so a battery depleted mid-walk (which
        unregisters the node) only ever affects that node.  A sleeping
        radio is deaf *and* free: it neither receives the frame nor pays
        the RX energy for it.
        """
        pos = tx.sender_pos
        receivers: List[batch.Hit] = []
        for hit in self._legs.audible(at, pos.x, pos.y, tx.range_m,
                                      exclude=tx.sender):
            node_id = hit[0]
            node = self._nodes.get(node_id)
            if node is None or not node.listening:
                continue
            if self.on_rx_window is not None:
                self.on_rx_window(node_id, duration)
            receivers.append(hit)
        return receivers

    # -- receiving -------------------------------------------------------------------

    def _deliver_batch(self, tx: Transmission, tx_seq: int,
                       receivers: List[batch.Hit]) -> None:
        """Deliver one frame to its whole receiver set in one event.

        Collision verdicts are computed once for the batch — safe
        because a frame's overlap set is final at its end time (the
        overlap predicate is strict) and verdicts consume no RNG, so a
        verdict computed up front equals one computed between
        deliveries.  Receivers are then walked in ascending-id order,
        re-checking liveness per receiver, since an earlier delivery's
        protocol reaction can crash or silence a later receiver in the
        same instant.
        """
        corrupted = None
        if self.config.model_collisions:
            corrupted = self._corrupt_verdicts(tx, tx_seq, receivers)
        for k, hit in enumerate(receivers):
            receiver_id = hit[0]
            node = self._nodes.get(receiver_id)
            if node is None or not node.listening:
                continue  # crashed, drained or duty-cycled off mid-frame
            self._finish_delivery(tx, receiver_id, node,
                                  corrupted is not None and corrupted[k])

    def _corrupt_verdicts(self, tx: Transmission, tx_seq: int,
                          receivers: List[batch.Hit]):
        """Per-receiver collision verdicts, ``None`` if nothing clashed."""
        return self._txlog.corrupt_verdicts(tx_seq, tx.start, tx.end,
                                            receivers)

    def _finish_delivery(self, tx: Transmission, receiver_id: int,
                         node: "Node", corrupted: bool) -> None:
        """The delivery tail: collision/loss/fault gauntlet, then hand
        the frame to the receiver."""
        if corrupted:
            self.frames_collided += 1
            if self.on_drop is not None:
                self.on_drop(receiver_id, tx.message, "collision")
            return
        p = self.config.frame_loss_probability
        if p > 0.0:
            rng = self._loss_rng(receiver_id)
            if rng is not None and rng.random() < p:
                self.frames_lost_random += 1
                if self.on_drop is not None:
                    self.on_drop(receiver_id, tx.message, "loss")
                return
        if self.extra_loss is not None and \
                self.extra_loss(tx.sender, receiver_id):
            self.frames_lost_fault += 1
            if self.on_drop is not None:
                self.on_drop(receiver_id, tx.message, "fault-loss")
            return
        self.frames_delivered += 1
        if self.on_receive is not None:
            self.on_receive(receiver_id, tx.message)
        node.receive(tx.message)
