"""No result depends on a topic's hash.

Topics are interned and hash by identity (their address), and string
hashes change with ``PYTHONHASHSEED``, so the iteration order of a set of
topics differs between runs and between interpreters.  A result that
started to depend on that order would still pass in one process; these
tests run worlds that carry several related topics twice in one
interpreter and once in each of two fresh interpreters under different
hash seeds, and require one digest throughout — the pinned one.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.core.stack.membership import _related
from repro.core.topics import entitled
from tests.test_golden import GOLDEN_PATH, case_digest

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: The scripted subscription-dynamics world (subscribe/unsubscribe mid
#: run) and multi-topic stack worlds: a fig14 city cell, a subtopic
#: publisher over a two-row table, and publications on two branches.
CASES = ("scripted-subscription-dynamics/s0",
         "scripted-subscription-dynamics/s1",
         "stack-fig14-city-frugal/s0",
         "stack-tiny-event-table-frugal/s0",
         "stack-pure-publisher-expiry-frugal/s0")


def _pins() -> dict:
    golden = json.loads(GOLDEN_PATH.read_text())
    return {case: golden[case] for case in CASES}


def _digests() -> dict:
    return {case: case_digest(case) for case in CASES}


def test_twice_in_one_interpreter():
    first = _digests()
    # Drop the verdict memos, the last holders of the first run's topic
    # sets, so the second run interns its topics afresh.
    entitled.cache_clear()
    _related.cache_clear()
    assert _digests() == first == _pins()


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_fresh_interpreter_under_a_pinned_hash_seed(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
               REPRO_SHARD_BACKEND="inproc")
    script = ("import json; from tests.test_determinism import _digests; "
              "print(json.dumps(_digests()))")
    out = subprocess.run([sys.executable, "-c", script], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120,
                         check=True).stdout
    assert json.loads(out.splitlines()[-1]) == _pins()
