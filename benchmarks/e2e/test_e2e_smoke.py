"""Smoke test of the end-to-end benchmark: ``run.py --smoke`` must emit
every metric ``BENCHMARK.json`` declares, for every workload."""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import run                                         # noqa: E402
import tracer                                      # noqa: E402
import workloads                                   # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
LINE = re.compile(r"^(\S+) (\S+) = (\S+) (\S+)")


def test_smoke_emits_every_declared_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload_names = [w["name"] for w in spec["workloads"]]
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert 2 <= len(workload_names) <= 8
    assert 1 <= len(end_to_end) <= 16 and "setup_s" in end_to_end
    assert 1 <= len(per_layer) <= 128
    # The declaration and the code that measures it say the same thing.
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        workloads.WORKLOADS
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == list(run.E2E_METRICS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(tracer.LAYER_METRICS)
    assert spec["run_seconds"] == run.DEFAULT_SECONDS
    names = workload_names + end_to_end + per_layer
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)

    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"], cwd=ROOT,
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    emitted = {}
    for line in done.stdout.splitlines():
        match = LINE.match(line)
        if match:
            workload, metric, value, _unit = match.groups()
            emitted[workload, metric] = value
    for workload in workload_names:
        for metric in end_to_end:
            # End-to-end values are never null and never zero.
            assert float(emitted[workload, metric]) > 0, (workload, metric)
        for metric in per_layer:
            value = emitted[workload, metric]     # null is allowed here
            assert value == "null" or float(value) >= 0, (workload, metric)
