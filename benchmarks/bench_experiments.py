"""bench_experiments — every registered declaration, regenerated, timed
and checked against the paper's qualitative claims.

One parametrised bench over the declaration registry
(``test_experiment[fig11]`` ... ``test_experiment[study-frontier]``;
``loopback-bridge`` opens real sockets and is smoke-tested by the rt
CLI instead).  Each case regenerates its figure at the scale selected
by ``REPRO_SCALE``, publishes the table (``benchmarks/results/<id>.csv``
plus the end-of-session replay) and — at any scale but ``smoke``, whose
populations are too small for the paper's shapes to emerge — runs the
figure's entry in :data:`SHAPE_CHECKS`.

The two subsystem hot-path micro-benches that lived beside the energy
and churn figures (``bench_energy.py`` / ``bench_churn.py``) ride along
at the bottom.

Figs. 17-20 are four views of one simulation campaign and Figs. 14/15
two reductions of one rotation sweep: every such figure declares the
whole sweep, so with the result cache on (``REPRO_CACHE=1``) the shared
cells are simulated once; with it off (the timing default) each figure
is timed honestly on its own.
"""

from __future__ import annotations

import pytest

from common import ENGINE, publish, publish_text, scale
from repro.energy import Battery, EnergyModel, PowerProfile
from repro.faults import ChurnConfig, FaultConfig
from repro.harness.reporting import reliability_grid
from repro.harness.scenario import (FixedPositionsSpec, ScenarioConfig,
                                    run_scenario)
from repro.sim.kernel import Simulator
from repro.study import STUDIES, run_study

#: The paper's printed data points, shown beside ours as a ``paper``
#: column: experiment id -> (row key, {key value: paper reliability}).
PAPER_ROWS = {
    "fig13": ("hb_upper", {1.0: 0.769, 2.0: 0.751, 3.0: 0.655,
                           4.0: 0.699, 5.0: 0.540}),
    "fig14": ("interest", {0.2: 0.581, 0.4: 0.597, 0.6: 0.625,
                           0.8: 0.686, 1.0: 0.769}),
    "fig15": ("interest", {0.2: 0.409, 0.4: 0.447, 0.6: 0.479,
                           0.8: 0.539, 1.0: 0.600}),
    "fig16": ("validity", {25.0: 0.11, 50.0: 0.27, 75.0: 0.44,
                           100.0: 0.52, 125.0: 0.69, 150.0: 0.77}),
}


#: The paper's 3-D surface plots as text matrices: experiment id ->
#: one ``reliability_grid`` call per published surface.
GRIDS = {
    "fig11": [dict(row_key="speed", col_key="validity", interest=0.2),
              dict(row_key="speed", col_key="validity", interest=0.8)],
    "fig12": [dict(row_key="interest", col_key="validity")],
}


def _fig11(result):
    high = [r["reliability"] for r in result.filter(interest=0.8)]
    low = [r["reliability"] for r in result.filter(interest=0.2)]
    assert sum(high) / len(high) >= sum(low) / len(low), \
        "80% interest should dominate 20% (sparse-network effect)"


def _fig12(result):
    # Longest validity x highest interest must be the best cell.
    best_cell = max(result.rows, key=lambda r: r["reliability"])
    top = [r for r in result.rows
           if r["validity"] == max(result.column("validity"))
           and r["interest"] == max(result.column("interest"))][0]
    assert top["reliability"] >= best_cell["reliability"] - 0.15


def _fig13(result):
    # The fastest beacons must not be the worst configuration.
    by_bound = {r["hb_upper"]: r["reliability"] for r in result.rows}
    fastest = by_bound[min(by_bound)]
    slowest = by_bound[max(by_bound)]
    assert fastest >= slowest - 0.10, \
        "1 s heartbeats should beat (or match) 5 s heartbeats"


def _fig14(result):
    by_interest = {r["interest"]: r["reliability"] for r in result.rows}
    assert by_interest[max(by_interest)] >= \
        by_interest[min(by_interest)] - 0.05, \
        "more subscribers should not hurt reliability"


def _fig15(result):
    # Publisher identity must matter (non-trivial spread somewhere).
    assert max(result.column("spread")) > 0.0, \
        "city-section publishers should differ in achieved reliability"


def _fig16(result):
    by_validity = {r["validity"]: r["reliability"] for r in result.rows}
    assert by_validity[max(by_validity)] >= by_validity[min(by_validity)], \
        "longer validity must not reduce reliability"


def _corner(result, flooder, interest=1.0):
    """The (frugal, flooder) rows at the largest workload."""
    events = max(result.column("events"))
    return (result.filter(protocol="frugal", events=events,
                          interest=interest)[0],
            result.filter(protocol=flooder, events=events,
                          interest=interest)[0])


def _fig17(result):
    frugal, flood = _corner(result, "simple-flooding")
    assert frugal["bandwidth_bytes"] < flood["bandwidth_bytes"] / 3, \
        "paper reports a 300-450% bandwidth saving"


def _fig18(result):
    frugal, flood = _corner(result, "simple-flooding")
    assert frugal["events_sent"] * 10 < flood["events_sent"], \
        "paper reports 50-100x fewer event transmissions"


def _fig19(result):
    frugal, flood = _corner(result, "interest-flooding")
    assert frugal["duplicates"] * 5 < flood["duplicates"], \
        "paper reports a 50-80x duplicate reduction vs the best flooder"


def _fig20(result):
    interest = sorted(result.column("interest"))[1]   # a middle fraction
    frugal, flood = _corner(result, "interest-flooding", interest)
    assert frugal["parasites"] * 5 < flood["parasites"], \
        "paper reports a 20-50x parasite reduction"


def _abl_gc(result):
    assert {r["policy"] for r in result.rows} == {
        "validity-forward", "remaining-validity", "fifo", "random"}
    for row in result.rows:
        assert 0.0 <= row["reliability"] <= 1.0


def _abl_backoff(result):
    rows = {r["variant"]: r for r in result.rows}
    full = rows["backoff+suppression"]
    none = rows["no-backoff"]
    assert full["duplicates"] <= none["duplicates"] * 1.25, \
        "removing the back-off should not reduce duplicates"


def _abl_adaptive_hb(result):
    fast = max(result.column("speed"))
    adaptive = result.filter(adaptive=True, speed=fast)[0]
    static = result.filter(adaptive=False, speed=fast)[0]
    assert adaptive["reliability"] >= static["reliability"] - 0.10, \
        "adaptive beacons should help (or at least not hurt) at speed"


def _abl_ids(result):
    with_ids = result.filter(id_exchange=True)[0]
    blind = result.filter(id_exchange=False)[0]
    assert with_ids["duplicates"] <= blind["duplicates"] * 1.25, \
        "dropping the id exchange should not reduce duplicates"


def _abl_dutycycle(result):
    for protocol in ("frugal", "neighbor-flooding"):
        rows = [r for r in result.rows if r["protocol"] == protocol]
        full = [r for r in rows if r["awake_fraction"] == 1.0][0]
        least = min(rows, key=lambda r: r["awake_fraction"])
        assert least["joules_per_node"] < full["joules_per_node"], \
            "sleeping must save energy"


def _related_work(result):
    rows = {r["protocol"]: r for r in result.rows}
    # Storm schemes must not beat the frugal protocol on reliability...
    assert rows["frugal"]["reliability"] >= \
        rows["gossip-flooding"]["reliability"] - 0.05
    assert rows["frugal"]["reliability"] >= \
        rows["counter-flooding"]["reliability"] - 0.05
    # ... and the frugal protocol stays far below simple flooding's cost.
    assert rows["frugal"]["bandwidth_bytes"] < \
        rows["simple-flooding"]["bandwidth_bytes"] / 3


def _energy_lifetime(result):
    frugal = [r for r in result.rows if r["protocol"] == "frugal"]
    flood = [r for r in result.rows
             if r["protocol"] == "neighbor-flooding"]
    # The headline: frugal is cheaper per delivered event on mains power.
    assert frugal[0]["joules_per_delivery"] < flood[0]["joules_per_delivery"]


def _churn_resilience(result):
    for row in result.rows:
        # Churn-aware denominators only ever *remove* subscribers that
        # could not possibly have been served, so the churn-aware view
        # is never below the plain one.
        assert row["churn_reliability"] >= row["reliability"] - 1e-12
    churned = [r for r in result.rows if r["churn_per_min"] > 0]
    baseline = [r for r in result.rows if r["churn_per_min"] == 0]
    assert all(r["availability"] < 1.0 for r in churned)
    assert all(r["availability"] == 1.0 for r in baseline)
    # The frugality headline survives churn: frugal spends a fraction of
    # the flooders' bytes at every churn rate.
    for rate in sorted({r["churn_per_min"] for r in result.rows}):
        by_proto = {r["protocol"]: r for r in result.rows
                    if r["churn_per_min"] == rate}
        assert by_proto["frugal"]["bandwidth_bytes"] < \
            by_proto["simple-flooding"]["bandwidth_bytes"]


def _abl_outage(result):
    outaged = [r for r in result.rows if r["outage"] != "none"]
    assert all(r["availability"] < 1.0 for r in outaged)


#: experiment id -> the paper-shape assertions its deleted
#: ``bench_<figure>.py`` carried, verbatim.
SHAPE_CHECKS = {
    "fig11": _fig11, "fig12": _fig12, "fig13": _fig13, "fig14": _fig14,
    "fig15": _fig15, "fig16": _fig16, "fig17": _fig17, "fig18": _fig18,
    "fig19": _fig19, "fig20": _fig20,
    "abl-gc": _abl_gc, "abl-backoff": _abl_backoff,
    "abl-adaptive-hb": _abl_adaptive_hb, "abl-ids": _abl_ids,
    "abl-dutycycle": _abl_dutycycle, "related-work": _related_work,
    "energy-lifetime": _energy_lifetime,
    "churn-resilience": _churn_resilience, "abl-outage": _abl_outage,
}


@pytest.mark.parametrize("experiment_id", STUDIES)
def test_experiment(benchmark, experiment_id):
    s = scale()
    spec = STUDIES[experiment_id].build(s)
    result = benchmark.pedantic(run_study, args=(spec, ENGINE),
                                rounds=1, iterations=1).experiment
    key, anchors = PAPER_ROWS.get(experiment_id, (None, {}))
    for row in result.rows if key else ():
        row["paper"] = anchors.get(row[key], float("nan"))
    publish(result)
    for note in result.notes:
        publish_text(note)
    for grid in GRIDS.get(experiment_id, ()):
        publish_text(f"{experiment_id} reliability grid {grid}:\n"
                     f"{reliability_grid(result, **grid)}")
    if s.name != "smoke" and experiment_id in SHAPE_CHECKS:
        SHAPE_CHECKS[experiment_id](result)


def test_energy_model_transition_hot_path(benchmark):
    """1000 alternating TX/RX windows on one metered, battery-backed
    radio — the accounting work a busy medium generates per node."""

    def churn() -> float:
        sim = Simulator()
        model = EnergyModel(0, sim, PowerProfile.wifi_80211b(),
                            battery=Battery(capacity_j=10_000.0))
        airtime = 3.4e-3
        for i in range(1000):
            if i % 2 == 0:
                model.note_tx(airtime)
            else:
                model.note_rx(airtime)
            sim.run(until=(i + 1) * 5e-3)
        model.finalize()
        return model.total_joules

    joules = benchmark(churn)
    assert joules > 0.0


def test_injector_transition_hot_path(benchmark):
    """A clockwork-churned 32-node line: every node flaps every 4 s for
    120 s — ~960 availability transitions of injector bookkeeping plus
    the protocol's re-sync traffic they trigger."""

    def churned_run() -> float:
        config = ScenarioConfig(
            n_processes=32,
            mobility=FixedPositionsSpec(
                positions=tuple((i * 40.0, 0.0) for i in range(32))),
            duration=120.0, warmup=0.0, seed=5,
            faults=FaultConfig(churn=ChurnConfig(
                mean_session_s=3.0, mean_rest_s=1.0,
                distribution="fixed")))
        result = run_scenario(config)
        return result.availability()

    availability = benchmark(churned_run)
    assert 0.0 < availability < 1.0
