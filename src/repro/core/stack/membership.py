"""The stack's membership layer: who is around, and what do they want.

Two implementations share the heartbeat-beacon idea but differ in how
much machinery rides on it:

* :class:`HeartbeatMembership` — the frugal protocol's phase 1 (paper
  Figs. 6, 8 and 10): periodic heartbeats advertising a topic set, a
  *matching-neighbour* :class:`~repro.core.tables.NeighborhoodTable`,
  a periodic timeout GC, and the adaptive ``computeHBDelay`` /
  ``computeNGCDelay`` rules that speed the beacons up as the observed
  neighbourhood speeds up.
* :class:`TTLMembership` — the neighbours'-interests flooder's flat
  view: fixed-period heartbeats, a ``{id: (subscriptions, heard_at)}``
  dict, and lazy TTL pruning on use (no GC task, no adaptation).

Both are driven purely through the :class:`~repro.core.base.Host`
interface, so a scripted fake host can exercise them in isolation
(``tests/test_stack.py``).

Reception is change-driven
--------------------------
:meth:`HeartbeatMembership.on_heartbeat` runs once per *received*
heartbeat — five times as often as one is sent at the paper's density —
and every value it needs is a pure function of state that changes on a
small fraction of receptions.  Each is therefore kept beside the state
it derives from and invalidated by the mutation that can change it, so a
steady-state reception costs a few look-ups and comparisons:

* the advertised topic set (:meth:`FrugalPubSub.advertised_topics
  <repro.core.protocol.FrugalPubSub.advertised_topics>`) is reused while
  the delivery layer's frozen subscription view is the same object, the
  event store's ``generation`` (bumped by ``store``, eviction, ``remove``,
  ``clear``, ``purge_expired``) is unchanged, and ``now`` is before the
  earliest ``expires_at`` of the own valid publications it folded in —
  validity is ``now < expires_at``, so the set changes at that instant,
  not a tick later;
* the matching verdict is memoised per ``(mine, theirs)`` pair of frozen
  topic sets (``_related``, at most ``VERDICT_MEMO_SIZE`` pairs) and
  needs no invalidation;
* :meth:`HeartbeatMembership.recompute_delays` is still called on every
  reception but returns early unless the table's ``speed_generation``
  (a row added, removed, or refreshed with a *different* speed), the own
  speed, ``HBDelay`` or a task handle moved since its last pass.

There is one path and no switch, and no running sum of speeds: a pass
that does run scans the table in row order, because the order of the
float additions is part of the golden digests.  The recompute-everything
oracle ``naive_membership`` (``tests/helpers.py``) is checked against
this layer after every step of a hypothesis state machine
(``tests/test_membership_incremental.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, FrozenSet, Optional

from repro.core.base import Host, ProtocolCounters
from repro.core.config import (HB_JITTER_S, INITIAL_HB_DELAY_S,
                               FrugalConfig)
from repro.core.tables import NeighborhoodTable
from repro.core.topics import (VERDICT_MEMO_SIZE, Topic, entitled,
                               subscriptions_related)
from repro.net.messages import Heartbeat


@lru_cache(maxsize=VERDICT_MEMO_SIZE)
def _related(mine: FrozenSet[Topic], theirs: FrozenSet[Topic]) -> bool:
    """The heartbeat matching rule, memoised per pair of topic sets.

    A pure function of two immutable sets, so there is nothing to
    invalidate.  Topics are interned, so both runtimes hit by identity:
    the simulator passes the very sets the senders advertise, and the
    ``rt/`` codec decodes fresh sets of the same topic objects, which
    hash and compare without a Python call.
    """
    return subscriptions_related(mine, theirs)


class HeartbeatMembership:
    """Adaptive heartbeats + matching-neighbour table + timeout GC.

    The layer owns the neighbourhood table and the two periodic tasks
    (heartbeat, neighbourhood GC).  Tasks run while the layer is started
    *and* the stack advertises at least one topic — the ``advertised``
    callable crosses into the delivery/store layers (subscriptions plus
    own still-valid publications), and ``on_new_neighbor`` lets the
    stack react to a first detection (the frugal protocol announces its
    held event ids there, Fig. 6 lines 19-23).
    """

    def __init__(self, config: FrugalConfig, counters: ProtocolCounters,
                 advertised: Callable[[], FrozenSet[Topic]],
                 on_new_neighbor: Optional[
                     Callable[[int, FrozenSet[Topic]], None]] = None):
        self.config = config
        self.counters = counters
        self.table = NeighborhoodTable(
            capacity=config.neighborhood_capacity)
        self._advertised = advertised
        self._on_new_neighbor = on_new_neighbor
        self._host: Optional[Host] = None
        self._started = False
        self._hb_delay = INITIAL_HB_DELAY_S
        self._hb_task = None
        self._ngc_task = None
        self._delays_settled = None   # see recompute_delays

    # -- wiring ---------------------------------------------------------------

    def attach(self, host: Host) -> None:
        """Bind the layer to the hosting node."""
        self._host = host

    def detach(self) -> None:
        """Drop the host binding (stack detach; stop first)."""
        self._host = None

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> None:
        """Begin beaconing (Fig. 5): reset the period, arm the tasks."""
        self._started = True
        self._hb_delay = min(INITIAL_HB_DELAY_S,
                             self.config.hb_upper_bound)
        self.update_tasks()

    def stop(self) -> None:
        """Stop both periodic tasks and forget every neighbour."""
        self._started = False
        self._stop_tasks()
        self.reset()

    def reset(self) -> None:
        """Forget every neighbour (volatile state is lost on crash)."""
        self.table.clear()

    def update_tasks(self) -> None:
        """Start/stop the heartbeat and neighbourhood-GC tasks (Fig. 5).

        Tasks run while the layer is started and the stack advertises at
        least one topic (a subscription, or an own still-valid
        publication).  Every unsubscribe/resubscribe cycle stops both
        tasks and arms two fresh ones through ``host.periodic``; hosts
        prune the stopped ones.
        """
        if not self._started or self._host is None:
            return
        if self._advertised():
            if self._hb_task is None or not self._hb_task.running:
                self._hb_task = self._host.periodic(
                    self._hb_delay, self._heartbeat_tick,
                    jitter=HB_JITTER_S)
            if self._ngc_task is None or not self._ngc_task.running:
                self._ngc_task = self._host.periodic(
                    self.config.ngc_delay(self._hb_delay), self._ngc_tick)
        else:
            self._stop_tasks()

    def _stop_tasks(self) -> None:
        if self._hb_task is not None:
            self._hb_task.stop()
            self._hb_task = None
        if self._ngc_task is not None:
            self._ngc_task.stop()
            self._ngc_task = None

    # -- beaconing -------------------------------------------------------------------

    def _heartbeat_tick(self) -> None:
        topics = self._advertised()
        if not topics:
            return
        self._host.send(Heartbeat(sender=self._host.id,
                                  subscriptions=topics,
                                  speed=self._host.current_speed()))
        self.counters.heartbeats_sent += 1

    def _ngc_tick(self) -> None:
        """Fig. 10 lines 2-8: drop stale neighbourhood rows."""
        self.table.collect(self._host.now,
                           self.config.ngc_delay(self._hb_delay))

    # -- reception ------------------------------------------------------------------

    def on_heartbeat(self, hb: Heartbeat) -> None:
        """Store/refresh a *matching* sender; adapt the delays (Fig. 8).

        A first detection fires the ``on_new_neighbor`` callback after
        the row is stored, exactly as the monolithic protocol did.
        """
        mine = self._advertised()
        if mine and _related(mine, hb.subscriptions):
            is_new = hb.sender not in self.table
            self.table.upsert(hb.sender, hb.subscriptions,
                              hb.speed, self._host.now)
            if is_new and self._on_new_neighbor is not None:
                self._on_new_neighbor(hb.sender, hb.subscriptions)
        self.recompute_delays()

    def recompute_delays(self) -> None:
        """Fig. 8: adapt heartbeat and neighbourhood-GC periods.

        Runs on every reception but only does work when an input moved:
        the table's ``speed_generation`` (a row added, removed, or
        refreshed with a different speed), the own speed (a leg
        boundary), the current ``HBDelay`` (``start`` resets it) or
        either task handle (``update_tasks`` arms fresh ones).  With all
        five equal to what the last pass left behind, that pass would
        repeat itself exactly — ``adapted_hb_delay`` is idempotent on its
        own output and both periods already hold the values it would
        write — so it is skipped.  A pass that does run takes the mean
        by a full :meth:`~repro.core.tables.NeighborhoodTable.average_speed`
        scan in row order; there is no running sum, because the order of
        the float additions is part of the pinned golden digests.
        """
        own_speed = self._host.current_speed()
        generation = self.table.speed_generation
        if self._delays_settled == (generation, own_speed, self._hb_delay,
                                    self._hb_task, self._ngc_task):
            return
        avg = self.table.average_speed(own_speed=own_speed)
        new_hb = self.config.adapted_hb_delay(avg, self._hb_delay)
        if new_hb != self._hb_delay:
            self._hb_delay = new_hb
            if self._hb_task is not None:
                self._hb_task.set_period(new_hb)
        # NGCDelay follows HBDelay (Fig. 8 line 12).
        if self._ngc_task is not None:
            self._ngc_task.set_period(self.config.ngc_delay(self._hb_delay))
        self._delays_settled = (generation, own_speed, self._hb_delay,
                                self._hb_task, self._ngc_task)

    # -- introspection ---------------------------------------------------------------

    @property
    def hb_delay(self) -> float:
        """Current (possibly adapted) heartbeat period [s]."""
        return self._hb_delay

    def __repr__(self) -> str:   # pragma: no cover - debugging aid
        return (f"<HeartbeatMembership neighbors={len(self.table)} "
                f"hb={self._hb_delay:.3g}s>")


@dataclass
class _NeighborInterests:
    """One row of the flat TTL neighbour view."""

    subscriptions: FrozenSet[Topic]
    heard_at: float


class TTLMembership:
    """Fixed-period heartbeats + a lazily TTL-pruned neighbour view.

    The neighbours'-interests flooder's membership: beacons carry the
    stack's current subscription set (via the ``subscriptions``
    callable), receptions are stored unconditionally, and rows older
    than ``ttl`` are pruned whenever a query needs a fresh view — no GC
    task, no adaptation.
    """

    def __init__(self, counters: ProtocolCounters,
                 heartbeat_period: float, ttl: float,
                 subscriptions: Callable[[], FrozenSet[Topic]],
                 jitter: float = 0.0):
        if heartbeat_period <= 0:
            raise ValueError("heartbeat_period must be positive")
        if ttl <= 0:
            raise ValueError("neighbor_ttl must be positive")
        self.counters = counters
        self.heartbeat_period = float(heartbeat_period)
        self.ttl = float(ttl)
        self.jitter = float(jitter)
        self._subscriptions = subscriptions
        self._neighbors: Dict[int, _NeighborInterests] = {}
        self._host: Optional[Host] = None
        self._hb_task = None

    # -- wiring ---------------------------------------------------------------

    def attach(self, host: Host) -> None:
        """Bind the layer to the hosting node."""
        self._host = host

    def detach(self) -> None:
        """Drop the host binding (stack detach; stop first)."""
        self._host = None

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> None:
        """Arm the fixed-period heartbeat task."""
        self._hb_task = self._host.periodic(
            self.heartbeat_period, self._heartbeat_tick,
            jitter=self.jitter)

    def stop(self) -> None:
        """Stop beaconing and forget every neighbour."""
        if self._hb_task is not None:
            self._hb_task.stop()
            self._hb_task = None
        self._neighbors.clear()

    def update_tasks(self) -> None:
        """Nothing to re-arm: a beacon reads the subscriptions it sends."""

    # -- beaconing / reception -------------------------------------------------------

    def _heartbeat_tick(self) -> None:
        self._host.send(Heartbeat(sender=self._host.id,
                                  subscriptions=self._subscriptions(),
                                  speed=None))
        self.counters.heartbeats_sent += 1

    def on_heartbeat(self, hb: Heartbeat) -> None:
        """Store/refresh the sender's interests, unconditionally."""
        self._neighbors[hb.sender] = _NeighborInterests(
            subscriptions=hb.subscriptions, heard_at=self._host.now)

    # -- queries ---------------------------------------------------------------------

    def prune(self, now: float) -> None:
        """Drop rows not refreshed within the TTL."""
        horizon = now - self.ttl
        stale = [nid for nid, info in self._neighbors.items()
                 if info.heard_at < horizon]
        for nid in stale:
            del self._neighbors[nid]

    def any_interested(self, topic: Topic) -> bool:
        """Is at least one (unpruned) neighbour entitled to ``topic``?"""
        return any(
            entitled(info.subscriptions, topic)
            for info in self._neighbors.values())

    def __len__(self) -> int:
        return len(self._neighbors)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._neighbors

    def __repr__(self) -> str:   # pragma: no cover - debugging aid
        return f"<TTLMembership neighbors={len(self._neighbors)}>"
