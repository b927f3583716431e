#!/usr/bin/env python
"""Reproduce the paper's frugality argument on one shared scenario.

Runs the frugal protocol and the three flooding baselines (Section 5.2)
over the *same* mobility traces and subscriber draw (paired seeds), then
prints the four measurements of Figs. 17-20 side by side: bandwidth,
events sent, duplicates and parasites — plus the reliability every
approach achieved.

Run::

    python examples/protocol_comparison.py [n_events] [interest%]
"""

from __future__ import annotations

import sys

from repro.harness import QUICK, ParallelRunner, rwp_scenario
from repro.harness.reporting import format_table

PROTOCOLS = ["frugal", "interest-flooding", "neighbor-flooding",
             "simple-flooding"]


def main(n_events: int = 5, interest: float = 0.6) -> None:
    scale = QUICK
    seeds = scale.seed_list()
    print(f"Comparing {len(PROTOCOLS)} protocols: {n_events} events, "
          f"{interest:.0%} subscribers, {len(seeds)} seeds "
          f"({scale.rwp_processes} processes, 10 m/s random waypoint)\n")

    configs = {
        proto: rwp_scenario(scale, 10.0, 10.0, validity=180.0,
                            interest=interest, n_events=n_events,
                            protocol=proto, duration=180.0)
        for proto in PROTOCOLS
    }
    outcomes = ParallelRunner().run_matrix(configs, seeds)

    rows = []
    for proto in PROTOCOLS:
        summary = outcomes[proto].summary()
        rows.append({
            "protocol": proto,
            "reliability": round(summary["reliability"].mean, 3),
            "bandwidth [kB]": round(
                summary["bandwidth_bytes"].mean / 1000.0, 2),
            "events sent": round(summary["events_sent"].mean, 1),
            "duplicates": round(summary["duplicates"].mean, 1),
            "parasites": round(summary["parasites"].mean, 1),
        })
    print(format_table(rows))

    frugal = rows[0]
    flood = rows[-1]
    if frugal["bandwidth [kB]"] > 0:
        factor = flood["bandwidth [kB]"] / frugal["bandwidth [kB]"]
        print(f"\nSimple flooding spends {factor:.1f}x the bandwidth of "
              f"the frugal protocol for the same scenario.")


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    pct = float(sys.argv[2]) / 100.0 if len(sys.argv) > 2 else 0.6
    main(n, pct)
