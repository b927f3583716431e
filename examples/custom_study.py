#!/usr/bin/env python
"""Declaring a custom study: popularity x id-exchange, Pareto-priced.

What does the event-id exchange buy once announcements get popular?
Instead of writing nested sweep loops, declare the question: one
`Toggles` dimension flips the id-exchange component (blind push vs
announce-first), one `Axis` sweeps how many devices care
(`subscriber_fraction`), and the declared objectives extract the
reliability-vs-duplicates Pareto frontier automatically.  The engine
expands the cross product, batches every (cell, seed) job through one
`ParallelRunner` (serial and uncached here; hand `run_study` a runner
with a `ResultCache` and a re-run executes zero scenarios), and
attaches the pivot / component-delta / frontier tables to the result.

Run::

    python examples/custom_study.py [seed]
"""

from __future__ import annotations

import sys

from repro.harness import format_table
from repro.harness.experiments import rwp_scenario
from repro.harness.presets import SMOKE
from repro.study import (Axis, Component, Metric, Objective, PivotSpec,
                         StudySpec, Toggles, run_study)


def build_spec(seed: int) -> StudySpec:
    """Popularity x id-exchange over a small random-waypoint world."""
    base = rwp_scenario(SMOKE, 10.0, 10.0, validity=60.0, interest=0.5,
                        n_events=4, duration=60.0)
    return StudySpec(
        study_id="popularity-x-ids",
        title="Does the id exchange still pay when everyone subscribes?",
        base=base,
        grid=(
            Toggles(components=(Component(
                "id-exchange",
                off={"frugal.announce_on_new_neighbor": False}),)),
            Axis(name="interest", path="subscriber_fraction",
                 values=(0.3, 0.9)),
        ),
        seeds=(seed, seed + 1),
        metrics=(Metric("reliability"), Metric("bandwidth_bytes"),
                 Metric("duplicates")),
        objectives=(Objective("reliability", "max"),
                    Objective("duplicates", "min")),
        pivot=PivotSpec(rows="variant", cols="interest",
                        value="reliability"))


def main(seed: int = 7) -> None:
    """Expand, run and analyse the study; print every attached note."""
    spec = build_spec(seed)
    result = run_study(spec)
    print(f"Study {spec.study_id!r}: {spec.title}")
    print(f"{len(result.cells)} cells x {len(spec.seeds)} seeds\n")
    print(format_table(result.experiment.rows))
    for note in result.experiment.notes:
        print("\n" + note)

    front = result.frontier()
    label = ", ".join(
        f"({r['variant']}, interest={r['interest']})"
        for r in front.frontier)
    print(f"\n{len(front.frontier)} of {len(result.experiment.rows)} "
          f"settings are Pareto-optimal: {label}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 7)
