"""Shared test utilities.

:class:`FakeHost` drives a protocol instance without any radio, mobility
or medium: sent messages accumulate in ``sent``, timers run on a private
simulator kernel, and the test advances time explicitly.  This is what
lets the protocol unit tests exercise the paper's pseudocode line by line;
``FakeHost(exact=True)`` holds an :class:`EarliestRandom`, so heartbeat
and back-off jitter add nothing and timers fire at the paper's instants.

:class:`MediumStub` is the opposite double — a parked node for driving
the wireless medium without a protocol — and :func:`oracle_outcomes` is
the brute-force statement of the medium's physics those tests compare
the production engine against; :func:`full_scan_busy` and
:func:`full_scan_verdicts` state the transmission log's two questions
over *every* row ever written, with no ordering assumption and no
bound.  :func:`naive_membership` plays the same
role for the change-driven membership layer: everything it caches,
recomputed from raw state; :func:`naive_energy` for the energy meter:
power integrated over a script by walking its sorted window edges.

:class:`ScriptedProtocol` and :class:`FakeTransport` are the doubles
for driving a real host: a protocol that only records its lifecycle and
messages, and a UDP transport that only records ``sendto`` calls.
:class:`SelfKillingSpec` is a world whose construction kills the worker
process building it.  :func:`run_subscription_dynamics` is a world
whose processes subscribe, unsubscribe and publish throughout the run.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pathlib
import random
import signal
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.base import PubSubProtocol
from repro.core.config import FrugalConfig
from repro.core.events import Event, EventFactory
from repro.energy import (DutyCycleConfig, EnergyConfig, PowerProfile,
                          RadioState)
from repro.faults import (ChurnConfig, FaultConfig, FaultEvent, FaultPlan,
                          LinkLossConfig, RegionalOutage)
from repro.harness.experiments import rwp_scenario
from repro.harness.presets import QUICK
from repro.harness.scenario import (MobilitySpec, Publication,
                                    RandomWaypointSpec, ScenarioConfig,
                                    build_world)
from repro.mobility import Stationary
from repro.net import RadioConfig
from repro.net.messages import Message
from repro.sim.kernel import PeriodicTask, Simulator


class EarliestRandom(random.Random):
    """A seeded rng whose ``uniform(a, b)`` always returns ``a``.

    Heartbeat and back-off jitter are ``uniform`` draws, so a host
    holding one fires every jittered timer at its earliest instant.
    """

    def uniform(self, a: float, b: float) -> float:
        return a


class FakeHost:
    """A scripted :class:`repro.core.base.Host` implementation.

    ``exact=True`` swaps the seeded rng for an :class:`EarliestRandom`,
    for tests that assert exact timer instants.
    """

    def __init__(self, host_id: int = 0, seed: int = 0,
                 speed: Optional[float] = None, exact: bool = False):
        self.id = host_id
        self.sim = Simulator()
        self._rng = (EarliestRandom if exact else random.Random)(seed)
        self.speed: Optional[float] = speed
        self.sent: List[Message] = []
        self.delivered: List[Event] = []

    # -- Host interface --------------------------------------------------------

    @property
    def now(self) -> float:
        return self.sim.now

    @property
    def rng(self) -> random.Random:
        return self._rng

    def send(self, message: Message) -> None:
        self.sent.append(message)

    def schedule(self, delay: float, callback, *args):
        return self.sim.schedule(delay, callback, *args)

    def periodic(self, period: float, callback, jitter: float = 0.0):
        return PeriodicTask(self.sim, period, callback, jitter=jitter,
                            rng=self._rng)

    def deliver(self, event: Event) -> None:
        self.delivered.append(event)

    def current_speed(self) -> Optional[float]:
        return self.speed

    # -- test conveniences ----------------------------------------------------------

    def advance(self, seconds: float) -> None:
        """Run the private kernel forward by ``seconds``."""
        self.sim.run(until=self.sim.now + seconds)

    def sent_of_kind(self, kind: type) -> List[Message]:
        return [m for m in self.sent if isinstance(m, kind)]

    def clear(self) -> None:
        self.sent.clear()
        self.delivered.clear()


class ScriptedProtocol(PubSubProtocol):
    """Minimal concrete protocol recording its lifecycle and messages."""

    def __init__(self):
        super().__init__()
        self.started = 0
        self.stopped = 0
        self.messages = []

    def on_start(self):
        self.started += 1

    def on_stop(self):
        self.stopped += 1

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
        self.messages.append(message)


class FakeTransport:
    """Collects sendto calls instead of hitting a socket."""

    def __init__(self):
        self.sent = []

    def sendto(self, data, addr):
        self.sent.append((data, addr))


@dataclass(frozen=True)
class SelfKillingSpec(MobilitySpec):
    """Stationary nodes whose ``build()`` SIGKILLs the process running
    it — but only in a child process, and only once ``cache_dir`` holds
    ``after_entries`` cached results (so the jobs queued ahead of it
    have provably arrived)."""

    cache_dir: str
    after_entries: int = 0
    width: float = 500.0
    height: float = 500.0

    def build(self, index: int):
        if multiprocessing.parent_process() is not None:
            deadline = time.monotonic() + 30.0
            while (len(list(pathlib.Path(self.cache_dir).glob("*.pkl")))
                   < self.after_entries and time.monotonic() < deadline):
                time.sleep(0.05)
            os.kill(os.getpid(), signal.SIGKILL)
        return Stationary(width=self.width, height=self.height)


def make_event(publisher: int = 99, seq: int = 0, topic: str = ".t",
               validity: float = 60.0, now: float = 0.0,
               payload_bytes: int = 400) -> Event:
    """One-liner event construction for tests."""
    factory = EventFactory(publisher)
    factory._next_seq = seq
    return factory.create(topic, validity=validity, now=now,
                          payload_bytes=payload_bytes)


def small_rwp() -> ScenarioConfig:
    """Ten random-waypoint processes, one publication, 44 simulated s."""
    return ScenarioConfig(
        n_processes=10,
        mobility=RandomWaypointSpec(width=1000.0, height=1000.0,
                                    speed_min=5.0, speed_max=15.0),
        duration=40.0, warmup=4.0,
        subscriber_fraction=0.75,
        publications=(Publication(at=2.0, validity=30.0),))


def dense_rwp(protocol: str = "frugal") -> ScenarioConfig:
    """Eight processes at 10 m/s on a 900 m field, two publishers: the
    base world of the ``stack-*`` golden families."""
    return ScenarioConfig(
        n_processes=8,
        mobility=RandomWaypointSpec(width=900.0, height=900.0,
                                    speed_min=10.0, speed_max=10.0),
        duration=35.0, warmup=4.0,
        protocol=protocol,
        subscriber_fraction=0.75,
        publications=(Publication(at=2.0, validity=28.0),
                      Publication(at=5.0, validity=28.0, publisher=1)))


DYNAMICS_TOPICS = (".paper.events.demo", ".paper.events", ".paper.other",
                   ".paper.other.deep")


def run_subscription_dynamics(protocol: str, seed: int) -> dict:
    """The subscription-dynamics world: ``ScenarioConfig`` has no field
    for subscription changes, so the world is built by the harness and
    scripted here — sixty seeded subscribe / unsubscribe / publish steps
    spread over the run, publications short enough to expire inside it,
    among processes whose speeds keep changing.  Returns everything
    observable about the outcome.
    """
    # Legs of 4-40 m/s on a small field under a 4 s heartbeat bound:
    # speeds differ per process and per leg, and the adapted period is
    # not pinned to the bound, so Fig. 8 has something to follow.
    config = dense_rwp(protocol).with_changes(
        seed=seed, publications=(),
        mobility=RandomWaypointSpec(width=600.0, height=600.0,
                                    speed_min=4.0, speed_max=40.0,
                                    pause_time=0.5),
        frugal=FrugalConfig(hb_upper_bound=4.0))
    world = build_world(config)
    sim, nodes = world.sim, world.nodes
    script = random.Random(seed)
    factories = {node.id: EventFactory(node.id) for node in nodes}

    def publish(node, topic, validity):
        node.protocol.publish(factories[node.id].create(
            topic, validity=validity, now=sim.now, payload_bytes=64))

    for step in range(60):
        at = 1.0 + step * 0.6 + script.random() * 0.5
        node = script.choice(nodes)
        topic = script.choice(DYNAMICS_TOPICS)
        action = script.choice(("subscribe", "unsubscribe", "publish"))
        if action == "publish":
            sim.call_at(at, publish, node, topic,
                        script.choice((2.0, 7.5, 30.0)))
        else:
            sim.call_at(at, getattr(node.protocol, action), topic)
    for node in nodes:
        node.start()
    sim.run(until=45.0)
    return {
        "events": sim.events_processed,
        "frames": (world.medium.frames_sent, world.medium.frames_delivered,
                   world.medium.frames_collided),
        "nodes": [(node.protocol.counters.as_dict(),
                   node.protocol.hb_delay,
                   [str(t) for t in sorted(node.protocol.subscriptions)],
                   [e.event_id for e in node.delivered_events])
                  for node in nodes],
    }


def cap_warmup(cfg: ScenarioConfig) -> ScenarioConfig:
    """Cap the warm-up so quick-scale configs stay test-suite fast."""
    return cfg.with_changes(warmup=min(cfg.warmup, 15.0))


def quick_rwp() -> ScenarioConfig:
    """The quick-scale fig11 config with a capped warm-up."""
    return cap_warmup(rwp_scenario(QUICK, 10.0, 10.0, validity=60.0,
                                   interest=0.8))


def shard_rwp_frugal() -> ScenarioConfig:
    """Fig. 11 family, shrunk: frugal over random waypoint, sized so a
    shard partition is non-trivial (1300 m side, 150 m range: 8 grid
    columns)."""
    return ScenarioConfig(
        n_processes=20,
        mobility=RandomWaypointSpec(width=1300.0, height=1300.0,
                                    speed_min=10.0, speed_max=10.0),
        duration=30.0, warmup=4.0,
        radio=RadioConfig(range_override_m=150.0),
        subscriber_fraction=0.75,
        publications=(Publication(at=2.0, validity=25.0),))


def shard_rwp_flooding() -> ScenarioConfig:
    """Fig. 17 family: simple flooding, same world."""
    return shard_rwp_frugal().with_changes(protocol="simple-flooding")


def shard_rwp_energy() -> ScenarioConfig:
    """Energy-lifetime family: finite batteries, duty cycling, deaths."""
    return shard_rwp_frugal().with_changes(energy=EnergyConfig(
        profile=PowerProfile.power_save(),
        battery_capacity_j=8.0,
        duty_cycle=DutyCycleConfig.heartbeat_aligned(1.0, 0.5)))


def shard_rwp_faults() -> ScenarioConfig:
    """All four fault mechanisms at once: plan + churn + outage + loss."""
    return shard_rwp_frugal().with_changes(faults=FaultConfig(
        plan=FaultPlan((FaultEvent(at=5.0, kind="crash", fraction=0.25,
                                   duration=10.0),)),
        churn=ChurnConfig(mean_session_s=15.0, mean_rest_s=5.0,
                          fraction=0.5),
        outages=(RegionalOutage(at=8.0, duration=6.0,
                                center=(650.0, 650.0), radius_m=300.0),),
        loss=LinkLossConfig(link_loss_min=0.05, link_loss_max=0.15,
                            burst_rate_per_s=0.05,
                            burst_mean_duration_s=2.0,
                            burst_loss_probability=0.8)))


#: The sharded-engine scenario matrix: one config per family the
#: engine-equality suites test (figure, flooding, energy, faults).
SHARD_MATRIX = {
    "rwp-frugal": shard_rwp_frugal,
    "rwp-flooding": shard_rwp_flooding,
    "rwp-energy-dutycycle": shard_rwp_energy,
    "rwp-churn-faults": shard_rwp_faults,
}


class MediumStub:
    """A parked medium-side node: fixed position, radio flags a test can
    flip, and a log of every received message."""

    def __init__(self, node_id: int, pos):
        self.id = node_id
        self.pos = pos
        self.alive = True
        self.asleep = False
        self.silenced = False
        self.received: List[Message] = []

    @property
    def listening(self) -> bool:
        return self.alive and not self.asleep and not self.silenced

    def position(self):
        return self.pos

    def receive(self, message: Message) -> None:
        self.received.append(message)


def oracle_outcomes(positions: Dict[int, Tuple[float, float]],
                    range_m: float,
                    frames: Sequence[Tuple[int, float, float]]
                    ) -> Dict[Tuple[int, int], str]:
    """Brute-force broadcast physics for parked nodes with CSMA off.

    ``frames`` are ``(sender, start, end)`` airtimes.  Returns the fate
    of frame ``i`` at every node in range of its sender, keyed ``(i,
    receiver)``: ``"collision"`` iff another frame strictly overlaps it
    in time and was sent by the receiver itself (half duplex) or by a
    node the receiver can hear; ``"delivered"`` otherwise.  Shares no
    code with the production medium — every pair is tested, every
    distance is one ``math.hypot``.
    """
    def hears(a: int, b: int) -> bool:
        (ax, ay), (bx, by) = positions[a], positions[b]
        return math.hypot(ax - bx, ay - by) <= range_m

    fates: Dict[Tuple[int, int], str] = {}
    for i, (sender, start, end) in enumerate(frames):
        for rx in positions:
            if rx == sender or not hears(sender, rx):
                continue
            clash = any(
                j != i and o_start < end and start < o_end
                and (o_sender == rx or hears(o_sender, rx))
                for j, (o_sender, o_start, o_end) in enumerate(frames))
            fates[i, rx] = "collision" if clash else "delivered"
    return fates


#: One transmission-log row as the full-scan oracles read it:
#: ``(seq, sender, x, y, range_m, start, end)``.
LogRow = Tuple[int, int, float, float, float, float, float]


def full_scan_busy(rows: Sequence[LogRow], px: float, py: float,
                   now: float) -> bool:
    """Carrier sense by scanning every row: is some frame still on the
    air (``end > now``) and audible at ``(px, py)``?"""
    return any(end > now and math.hypot(x - px, y - py) <= range_m
               for _, _, x, y, range_m, _, end in rows)


def full_scan_verdicts(rows: Sequence[LogRow], tx_seq: int,
                       tx_start: float, tx_end: float,
                       receivers: Sequence[Tuple[int, float, float]]
                       ) -> List[bool]:
    """Collision verdict per ``(id, x, y)`` receiver by scanning every
    row: corrupted iff another frame strictly overlaps ``[tx_start,
    tx_end)`` and was sent by the receiver (half duplex) or is audible
    at its position."""
    return [any(seq != tx_seq and start < tx_end and end > tx_start
                and (sender == rx_id
                     or math.hypot(x - rx_x, y - rx_y) <= range_m)
                for seq, sender, x, y, range_m, start, end in rows)
            for rx_id, rx_x, rx_y in receivers]


def naive_membership(protocol, subscribed, theirs, hb_delay: float):
    """What a recompute-everything membership layer derives right now.

    The from-scratch oracle for the change-driven stack: it reads only
    raw state (the test's own model of the subscription set, the event
    rows, the neighbour rows, the host) and shares no code with the
    caches it checks.  Returns ``(advertised, verdict, hb_delay)``: the
    advertised set by a full scan of the store, the heartbeat matching
    verdict against ``theirs`` by a double loop over topic paths, and
    the Fig. 8 period that follows ``hb_delay`` given the mean of every
    known speed.
    """
    host = protocol.host
    advertised = set(subscribed)
    for row in protocol.events:
        event = row.event
        if (event.event_id.publisher == host.id
                and host.now < event.published_at + event.validity):
            advertised.add(event.topic)
    verdict = False
    for mine in advertised:
        for other in theirs:
            shared = min(len(mine.parts), len(other.parts))
            if mine.parts[:shared] == other.parts[:shared]:
                verdict = True
    speeds = [row.speed for row in protocol.neighborhood
              if row.speed is not None]
    if host.current_speed() is not None:
        speeds.append(host.current_speed())
    mean = sum(speeds) / len(speeds) if speeds else None
    return (frozenset(advertised), verdict,
            protocol.config.adapted_hb_delay(mean, hb_delay))


def naive_energy(script, profile: PowerProfile, capacity_j: Optional[float],
                 until: float):
    """``(joules by state, depleted_at, transitions)`` of a radio that
    followed ``script`` — ``(time, "tx" | "rx" | "sleep" | "wake",
    duration)`` rows — up to ``until``: power integrated between
    consecutive window edges, TX over RX over SLEEP over IDLE, a deaf
    radio hearing nothing and a dead one doing nothing."""
    joules = dict.fromkeys(RadioState, 0.0)
    left = math.inf if capacity_j is None else capacity_j
    tx_until = rx_until = -math.inf
    asleep, dead_at, transitions, now = False, None, 0, 0.0
    edges = {until} | {t for t, _, _ in script} | {t + d for t, _, d in script}
    for edge in sorted(e for e in edges if e <= until):
        state = (RadioState.OFF if dead_at is not None else
                 RadioState.TX if now < tx_until else
                 RadioState.RX if now < rx_until else
                 RadioState.SLEEP if asleep else RadioState.IDLE)
        cost = profile.draw_w(state) * (edge - now)
        if dead_at is None and cost >= left:
            dead_at, cost = now + left / profile.draw_w(state), left
            transitions += 1
        joules[state] += cost
        left -= cost
        now = edge
        for _, op, duration in (row for row in script if row[0] == edge):
            if dead_at is not None or (op == "rx" and asleep):
                continue
            if op == "tx" and edge + duration > tx_until:
                tx_until, transitions = edge + duration, transitions + 1
            elif op == "rx" and edge + duration > rx_until:
                rx_until, transitions = edge + duration, transitions + 1
            elif op in ("sleep", "wake") and asleep != (op == "sleep"):
                asleep, transitions = op == "sleep", transitions + 1
    return joules, dead_at, transitions
