"""The loopback-bridge experiment: sim-predicted vs UDP-measured.

For each protocol the bridge runs the *same* scenario twice — once
through the discrete-event kernel (on a
:class:`~repro.harness.parallel.ParallelRunner`) and once on a
:class:`~repro.rt.cluster.LoopbackCluster` of real UDP sockets — and
reports predicted-vs-measured reliability and per-node
message overhead side by side.

The scenario is a stationary full-mesh grid (every node within radio
range of every other), because that is the *shared* topology: the
cluster's static peer table is a single-hop mesh, and a grid whose
diameter fits inside the sim radio's communication range makes the sim
see the same connectivity.  What differs is everything a real network
adds — wall-clock timer scheduling and preemption, OS socket queues,
non-zero and variable datagram latency, no globally ordered event list —
so measured results are *statistical*, not bit-identical: a run passes
when ``|sim - rt|`` reliability stays within the documented per-scale
tolerance band (``RELIABILITY_TOLERANCE``).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

from repro.core import registry
from repro.harness.experiments import ExperimentResult
from repro.harness.parallel import ParallelRunner
from repro.harness.presets import Scale, get_scale
from repro.harness.scenario import (FixedPositionsSpec, Publication,
                                    ScenarioConfig)
from repro.rt.cluster import LoopbackCluster

#: The default protocol trio the acceptance criteria name: the paper's
#: protocol, the epidemic baseline, and a flooder.
BRIDGE_PROTOCOLS: Tuple[str, ...] = ("frugal", "gossip", "simple-flooding")

#: Documented per-scale |sim - rt| reliability tolerance.  Smoke runs a
#: short window at high time compression on shared CI machines, so its
#: band is generous; quick/paper average more seeds over longer windows.
RELIABILITY_TOLERANCE = {"smoke": 0.25, "quick": 0.15, "paper": 0.15}

#: Default wall-clock compression: 1 wall second = 10 virtual seconds.
DEFAULT_TIME_SCALE = 10.0

#: Cluster runs are wall-clock bound (they cannot be parallelised away
#: like sim seeds), so cap how many seeds the rt half re-measures.
RT_MAX_SEEDS = 5

#: Cluster population per scale — ≥ 20 everywhere so even smoke runs
#: exercise a real 20-socket mesh.
_POPULATION = {"smoke": 20, "quick": 24, "paper": 40}


def grid_positions(n: int,
                   spacing: float = 20.0) -> Tuple[Tuple[float, float], ...]:
    """A compact √N x √N grid of node positions (metres).

    With the default spacing the whole grid sits far inside the paper
    radio's communication range, so the sim medium sees the same
    single-hop full mesh the UDP peer table provides.
    """
    if n < 1:
        raise ValueError(f"need at least one node: {n=}")
    side = math.ceil(math.sqrt(n))
    return tuple((spacing * (i % side), spacing * (i // side))
                 for i in range(n))


def bridge_scenario(protocol: str, scale: Scale,
                    seed: int = 0) -> ScenarioConfig:
    """The shared sim/rt scenario for one protocol at one scale.

    Stationary full-mesh grid, no speed sensor (the rt host has no
    tachometer either, so both halves run the same un-adapted heartbeat
    configuration), three publications inside a short measurement
    window whose validity comfortably outlives the window.
    """
    n = _POPULATION.get(scale.name, 20)
    return ScenarioConfig(
        n_processes=n,
        mobility=FixedPositionsSpec(grid_positions(n)),
        duration=28.0, warmup=6.0, seed=seed,
        protocol=protocol,
        subscriber_fraction=0.8,
        speed_sensor=False,
        publications=(Publication(at=1.0, validity=20.0),
                      Publication(at=3.0, validity=20.0, publisher=1),
                      Publication(at=5.0, validity=20.0, publisher=2)))


def loopback_bridge(scale: Optional[Scale] = None,
                    protocols: Sequence[str] = BRIDGE_PROTOCOLS,
                    time_scale: float = DEFAULT_TIME_SCALE,
                    runner: Optional[ParallelRunner] = None
                    ) -> ExperimentResult:
    """Run the bridge: every protocol in-sim and on the UDP cluster.

    Returns one row per protocol with ``sim_reliability`` /
    ``rt_reliability`` (means across seeds), their delta, both sides'
    per-node message overhead and a ``within_band`` flag against the
    scale's documented tolerance; any row outside the band is named in
    one warning note.  The sim seeds run on ``runner`` (``None``:
    serial, uncached).
    """
    scale = scale or get_scale()
    runner = runner or ParallelRunner()
    # Fail fast on unknown names, with the registry's known-name list.
    for protocol in protocols:
        registry.get(protocol)
    tolerance = RELIABILITY_TOLERANCE.get(scale.name, 0.25)
    rt_seeds = scale.seed_list()[:RT_MAX_SEEDS]
    rows = []
    for protocol in protocols:
        cfg = bridge_scenario(protocol, scale)
        sim = runner.run_seeds(cfg, scale.seed_list())
        sim_rel = sim.metric(lambda r: r.reliability()).mean
        sim_msgs = _sim_messages_per_node(sim, cfg.n_processes)
        rt_rels = []
        rt_msgs = []
        for seed in rt_seeds:
            cluster = LoopbackCluster(cfg.with_changes(seed=seed),
                                      time_scale=time_scale)
            result = cluster.run()
            rt_rels.append(result.reliability())
            rt_msgs.append(result.messages_per_node())
        rt_rel = sum(rt_rels) / len(rt_rels)
        delta = rt_rel - sim_rel
        rows.append({
            "protocol": protocol,
            "n": cfg.n_processes,
            "sim_reliability": sim_rel,
            "rt_reliability": rt_rel,
            "delta": delta,
            "tolerance": tolerance,
            "within_band": abs(delta) <= tolerance,
            "sim_msgs_per_node": sim_msgs,
            "rt_msgs_per_node": sum(rt_msgs) / len(rt_msgs),
        })
    outside = [row["protocol"] for row in rows if not row["within_band"]]
    notes = [f"WARNING: measured reliability outside the ±{tolerance:g} "
             f"band for: {', '.join(outside)}"] if outside else []
    return ExperimentResult(
        experiment_id="loopback-bridge",
        title="Sim-predicted vs UDP-measured (loopback bridge)",
        parameters={"scale": scale.name, "protocols": tuple(protocols),
                    "time_scale": time_scale,
                    "rt_seeds": len(rt_seeds), "tolerance": tolerance},
        rows=rows, notes=notes)


def _sim_messages_per_node(sim_result, n: int) -> float:
    """Mean per-node protocol frames across the sim seeds."""
    def frames(r) -> float:
        c = r.protocol_counters()
        return (c.heartbeats_sent + c.id_lists_sent + c.batches_sent) / n
    return sim_result.metric(frames).mean
