"""The paper's qualitative claims, executed on the declared studies.

Each test regenerates one declaration from :data:`repro.study.STUDIES`
at ``quick`` scale and asserts the shape the paper reports for it: the
direction of a trend, or an order-of-magnitude gap between protocols.
Exact values are not asserted (``tests/golden_experiments.json`` pins
the CSV bytes instead); ``quick`` populations are large enough for the
shapes to emerge, where ``smoke`` ones are not (Figs. 14 and 15 fail
there).

All declarations run on one two-worker runner whose result cache lives
in a temporary directory, so the cells Figs. 14/15 and Figs. 17-20
share are simulated once per session.
"""

from __future__ import annotations

import pytest

from repro.harness.cache import ResultCache
from repro.harness.parallel import ParallelRunner
from repro.harness.presets import PAPER, QUICK
from repro.study import STUDIES, Axis, run_study

#: The paper's printed data points: experiment id -> (row key,
#: {key value: paper reliability}).
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


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """``run(experiment_id)`` -> that declaration's quick-scale result."""
    cache = ResultCache(tmp_path_factory.mktemp("paper-claims") / "cache")
    with ParallelRunner(jobs=2, cache=cache) as runner:
        yield lambda experiment_id: run_study(
            STUDIES[experiment_id].build(QUICK), runner).experiment


def test_paper_scale_sweeps_the_printed_points():
    """Figs. 13-16 at ``paper`` scale sweep exactly the x-values the
    paper printed, so every printed point has a row to compare with."""
    for experiment_id, (key, anchors) in PAPER_ROWS.items():
        spec = STUDIES[experiment_id].build(PAPER)
        axes = {dim.name: dim.values for dim in spec.grid
                if isinstance(dim, Axis)}
        assert list(axes[key]) == sorted(anchors), experiment_id


# --------------------------------------------------------------------------
# Reliability (Figs. 11-16)
# --------------------------------------------------------------------------

def test_fig11_80pct_interest_not_worse_than_20pct(run):
    result = run("fig11")
    high = [r["reliability"] for r in result.filter(interest=0.8)]
    low = [r["reliability"] for r in result.filter(interest=0.2)]
    assert sum(high) / len(high) >= sum(low) / len(low), \
        "80% interest should dominate 20% (sparse-network effect)"


def test_fig12_longest_validity_full_interest_near_best_cell(run):
    result = run("fig12")
    # Longest validity x highest interest must be the best cell.
    best_cell = max(result.rows, key=lambda r: r["reliability"])
    top = [r for r in result.rows
           if r["validity"] == max(result.column("validity"))
           and r["interest"] == max(result.column("interest"))][0]
    assert top["reliability"] >= best_cell["reliability"] - 0.15


def test_fig13_1s_beacons_not_worse_than_5s(run):
    result = run("fig13")
    # The fastest beacons must not be the worst configuration.
    by_bound = {r["hb_upper"]: r["reliability"] for r in result.rows}
    fastest = by_bound[min(by_bound)]
    slowest = by_bound[max(by_bound)]
    assert fastest >= slowest - 0.10, \
        "1 s heartbeats should beat (or match) 5 s heartbeats"


def test_fig14_more_subscribers_do_not_hurt_reliability(run):
    result = run("fig14")
    by_interest = {r["interest"]: r["reliability"] for r in result.rows}
    assert by_interest[max(by_interest)] >= \
        by_interest[min(by_interest)] - 0.05, \
        "more subscribers should not hurt reliability"


def test_fig15_publishers_differ_in_reliability(run):
    result = run("fig15")
    # Publisher identity must matter (non-trivial spread somewhere).
    assert max(result.column("spread")) > 0.0, \
        "city-section publishers should differ in achieved reliability"


def test_fig16_longer_validity_does_not_reduce_reliability(run):
    result = run("fig16")
    by_validity = {r["validity"]: r["reliability"] for r in result.rows}
    assert by_validity[max(by_validity)] >= by_validity[min(by_validity)], \
        "longer validity must not reduce reliability"


# --------------------------------------------------------------------------
# Frugality (Figs. 17-20): four views of one sweep
# --------------------------------------------------------------------------

def _corner(result, flooder, interest=1.0):
    """The (frugal, flooder) rows at the largest workload."""
    events = max(result.column("events"))
    return (result.filter(protocol="frugal", events=events,
                          interest=interest)[0],
            result.filter(protocol=flooder, events=events,
                          interest=interest)[0])


def test_fig17_frugal_uses_under_a_third_of_simple_flooding_bandwidth(run):
    frugal, flood = _corner(run("fig17"), "simple-flooding")
    assert frugal["bandwidth_bytes"] < flood["bandwidth_bytes"] / 3, \
        "paper reports a 300-450% bandwidth saving"


def test_fig18_frugal_sends_10x_fewer_events_than_simple_flooding(run):
    frugal, flood = _corner(run("fig18"), "simple-flooding")
    assert frugal["events_sent"] * 10 < flood["events_sent"], \
        "paper reports 50-100x fewer event transmissions"


def test_fig19_frugal_receives_5x_fewer_duplicates_than_interest_flooding(
        run):
    frugal, flood = _corner(run("fig19"), "interest-flooding")
    assert frugal["duplicates"] * 5 < flood["duplicates"], \
        "paper reports a 50-80x duplicate reduction vs the best flooder"


def test_fig20_frugal_receives_5x_fewer_parasites_than_interest_flooding(
        run):
    result = run("fig20")
    interest = sorted(result.column("interest"))[1]   # a middle fraction
    frugal, flood = _corner(result, "interest-flooding", interest)
    assert frugal["parasites"] * 5 < flood["parasites"], \
        "paper reports a 20-50x parasite reduction"


def test_related_work_frugal_matches_storms_at_a_third_of_flooding_bytes(run):
    rows = {r["protocol"]: r for r in run("related-work").rows}
    # Storm schemes must not beat the frugal protocol on reliability...
    assert rows["frugal"]["reliability"] >= \
        rows["gossip-flooding"]["reliability"] - 0.05
    assert rows["frugal"]["reliability"] >= \
        rows["counter-flooding"]["reliability"] - 0.05
    # ... and the frugal protocol stays far below simple flooding's cost.
    assert rows["frugal"]["bandwidth_bytes"] < \
        rows["simple-flooding"]["bandwidth_bytes"] / 3


# --------------------------------------------------------------------------
# Ablations of the design choices
# --------------------------------------------------------------------------

def test_abl_gc_every_eviction_policy_yields_a_valid_reliability(run):
    result = run("abl-gc")
    assert {r["policy"] for r in result.rows} == {
        "validity-forward", "remaining-validity", "fifo", "random"}
    for row in result.rows:
        assert 0.0 <= row["reliability"] <= 1.0


def test_abl_backoff_removing_backoff_does_not_reduce_duplicates(run):
    rows = {r["variant"]: r for r in run("abl-backoff").rows}
    full = rows["backoff+suppression"]
    none = rows["no-backoff"]
    assert full["duplicates"] <= none["duplicates"] * 1.25, \
        "removing the back-off should not reduce duplicates"


def test_abl_adaptive_hb_adaptive_beacons_not_worse_at_top_speed(run):
    result = run("abl-adaptive-hb")
    fast = max(result.column("speed"))
    adaptive = result.filter(adaptive=True, speed=fast)[0]
    static = result.filter(adaptive=False, speed=fast)[0]
    assert adaptive["reliability"] >= static["reliability"] - 0.10, \
        "adaptive beacons should help (or at least not hurt) at speed"


def test_abl_ids_dropping_id_exchange_does_not_reduce_duplicates(run):
    result = run("abl-ids")
    with_ids = result.filter(id_exchange=True)[0]
    blind = result.filter(id_exchange=False)[0]
    assert with_ids["duplicates"] <= blind["duplicates"] * 1.25, \
        "dropping the id exchange should not reduce duplicates"


def test_abl_dutycycle_sleeping_saves_energy(run):
    result = run("abl-dutycycle")
    for protocol in ("frugal", "neighbor-flooding"):
        rows = [r for r in result.rows if r["protocol"] == protocol]
        full = [r for r in rows if r["awake_fraction"] == 1.0][0]
        least = min(rows, key=lambda r: r["awake_fraction"])
        assert least["joules_per_node"] < full["joules_per_node"], \
            "sleeping must save energy"


def test_abl_outage_outaged_rows_lose_availability(run):
    outaged = [r for r in run("abl-outage").rows if r["outage"] != "none"]
    assert all(r["availability"] < 1.0 for r in outaged)


# --------------------------------------------------------------------------
# Energy and churn
# --------------------------------------------------------------------------

def test_energy_lifetime_frugal_cheaper_per_delivery_than_flooding(run):
    result = run("energy-lifetime")
    frugal = [r for r in result.rows if r["protocol"] == "frugal"]
    flood = [r for r in result.rows
             if r["protocol"] == "neighbor-flooding"]
    # The headline: frugal is cheaper per delivered event on mains power.
    assert frugal[0]["joules_per_delivery"] < flood[0]["joules_per_delivery"]


def test_churn_resilience_frugal_stays_cheaper_than_flooding_under_churn(
        run):
    result = run("churn-resilience")
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
