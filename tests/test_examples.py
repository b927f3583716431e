"""Smoke tests: every example script runs end to end and prints sane
output.  Examples are the library's public face; a broken example is a
broken deliverable."""

from __future__ import annotations

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"


def load_example(name: str):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestExamplesRun:
    def test_quickstart(self, capsys):
        load_example("quickstart").main(seed=1)
        out = capsys.readouterr().out
        assert "Reliability:" in out
        assert "bandwidth" in out

    def test_car_park(self, capsys):
        load_example("car_park").main(seed=3)
        out = capsys.readouterr().out
        assert "publishes a free spot" in out
        assert "Total bytes on air" in out

    def test_campus_conference(self, capsys):
        load_example("campus_conference").main(seed=5)
        out = capsys.readouterr().out
        assert "Announcements published:" in out
        # The cafeteria-only attendee must never see conference events.
        gus_line = [l for l in out.splitlines() if l.strip().
                    startswith("gus")][0]
        assert "." not in gus_line.split(".epfl.cafeteria")[1].split(
            "parasites")[0].replace("-", "").strip()

    def test_trace_dissemination(self, capsys):
        load_example("trace_dissemination").main(seed=2)
        out = capsys.readouterr().out
        assert "6/6 nodes delivered" in out
        assert "deliver node=5" in out

    def test_energy_budget(self, capsys):
        load_example("energy_budget").main(seed=2)
        out = capsys.readouterr().out
        assert "Campus on batteries" in out
        assert "Survivors over time — frugal" in out
        assert "J per delivered event" in out
        # The story the example exists to tell: the frugal campus keeps
        # more devices alive than the flooding one on equal batteries.
        tail = out.rsplit("keeps", 1)[1]
        frugal_alive = int(tail.split("of")[0].strip())
        flood_alive = int(tail.split("flooding:")[1].split(")")[0].strip())
        assert frugal_alive > flood_alive

    def test_custom_study(self, capsys):
        load_example("custom_study").main(seed=7)
        out = capsys.readouterr().out
        assert "Study 'popularity-x-ids'" in out
        # Every declared analysis note must have been attached/printed.
        assert "-- reliability by variant over interest --" in out
        assert "component deltas vs baseline" in out
        assert "-- Pareto frontier (reliability max, duplicates min) --" \
            in out
        # The closing claim parses back against the frontier accounting.
        tail = out.rsplit("settings are Pareto-optimal", 1)[0]
        frontier_n = int(tail.rsplit("\n", 1)[1].split("of")[0].strip())
        assert 1 <= frontier_n <= 4

    @pytest.mark.slow
    def test_custom_protocol(self, capsys):
        load_example("custom_protocol").main(seed=1)
        out = capsys.readouterr().out
        assert "selective-gossip" in out
        assert "Membership gating" in out
        # The gate must genuinely cut airtime on the low-interest
        # scenario the example constructs.
        factor = float(out.rsplit("by", 1)[1].split("x")[0].strip())
        assert factor > 1.0
        # The custom stack must have been unregistered on exit.
        from repro.core import registry
        assert "selective-gossip" not in registry.names()

    @pytest.mark.slow
    def test_protocol_comparison(self, capsys):
        load_example("protocol_comparison").main(n_events=2, interest=0.6)
        out = capsys.readouterr().out
        assert "frugal" in out and "simple-flooding" in out
        # Parse the table (the separator row contains no pipes) and check
        # the frugality ordering.
        lines = [l for l in out.splitlines() if "|" in l]
        header = [c.strip() for c in lines[0].split("|")]
        bw_col = header.index("bandwidth [kB]")
        rows = {l.split("|")[0].strip():
                float(l.split("|")[bw_col]) for l in lines[1:]}
        assert rows["frugal"] < rows["simple-flooding"]
