"""Pinned experiment CSVs: the reference the hand-written sweep loops and
``harness/frozen.py`` used to provide by living next to the declarations.

``tests/golden_experiments.json`` holds one sha256 of the ``to_csv``
bytes per experiment id, generated once **at the parent commit**
(44782ae) from the fifteen hand-written loop functions of
``harness/experiments.py``, the six frozen ``abl-*`` originals of
``harness/frozen.py`` and the ``study-frontier`` declaration — before
the loops and the frozen copies were deleted.  Every registered
declaration must keep reproducing its pin byte for byte; a change that
moves one is a behaviour change, not a refactor, and has to say so by
regenerating the file in its own commit
(``PYTHONPATH=src python -m tests.test_golden_experiments``).

How the file was produced, in a scratch clone of the parent commit with
this module copied in (there ``ALL_EXPERIMENTS`` still lived in
``repro.harness.experiments``, so the import below read accordingly)::

    PYTHONPATH=src python -c "
    from repro.harness import experiments, frozen
    for name, suffix in [('abl-gc', 'gc'), ('abl-backoff', 'backoff'),
                         ('abl-adaptive-hb', 'heartbeat'),
                         ('abl-ids', 'ids'), ('abl-dutycycle', 'dutycycle'),
                         ('abl-outage', 'outage')]:
        experiments.ALL_EXPERIMENTS[name] = getattr(
            frozen, 'frozen_ablation_' + suffix)
    from tests import test_golden_experiments as g; g.write_pins()"

Every id but ``loopback-bridge`` (real sockets, wall-clock) is pinned
at the ``smoke`` scale (2 seeds).  Figs. 13-16 fold a publisher
rotation, which is 1 at ``smoke`` and makes the fold degenerate, so
they carry a second pin with ``city_publisher_rotations=3``.
``city-scale`` is hashed without its ``wallclock_s`` column, which is
a timing.  One module-scoped result cache lets Figs. 17-20 and
Figs. 14/15 simulate their shared cells once.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import tempfile

import pytest

from repro.harness import parallel
from repro.harness.cache import ResultCache
from repro.harness.presets import SMOKE
from repro.harness.reporting import to_csv
from repro.study import ALL_EXPERIMENTS

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_experiments.json")

ROTATED = dataclasses.replace(SMOKE, city_publisher_rotations=3)

#: pin name -> (experiment id, scale).
CASES = {name: (name, SMOKE) for name in ALL_EXPERIMENTS
         if name != "loopback-bridge"}
CASES.update({f"{name}@rot3": (name, ROTATED)
              for name in ("fig13", "fig14", "fig15", "fig16")})


def csv_digest(case: str, scratch: pathlib.Path) -> str:
    """sha256 of the CSV bytes of one pinned case."""
    experiment_id, scale = CASES[case]
    result = ALL_EXPERIMENTS[experiment_id](scale)
    for row in result.rows:
        row.pop("wallclock_s", None)
    path = scratch / f"{case}.csv"
    to_csv(result, str(path))
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    """A scratch directory with the process-wide engine caching into it."""
    root = tmp_path_factory.mktemp("golden-experiments")
    parallel.configure(jobs=1, cache=ResultCache(root / "cache"))
    yield root
    parallel.configure(jobs=1, cache=None)


@pytest.mark.parametrize("case", CASES)
def test_csv_matches_pin(case, scratch):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert csv_digest(case, scratch) == golden[case], \
        f"{case}: CSV bytes drifted from the pinned reference"


def test_every_pin_has_a_case():
    assert sorted(json.loads(GOLDEN_PATH.read_text())) == sorted(CASES)


def write_pins() -> None:
    """Regenerate ``golden_experiments.json`` from the current code."""
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        parallel.configure(jobs=1, cache=ResultCache(root / "cache"))
        try:
            pins = {case: csv_digest(case, root) for case in CASES}
        finally:
            parallel.configure(jobs=1, cache=None)
    GOLDEN_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    write_pins()
