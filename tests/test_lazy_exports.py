"""Each lazy package declares its exports once: the ``lazy_exports`` table.

``__all__`` is derived from that table (plus the few names a package
binds itself), so these tests read the table straight from the
package's source and hold ``__all__`` to it.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import subprocess
import sys

import pytest

import repro
from tests.test_packaging import LAZY_PACKAGES

#: Names a package binds itself rather than through its table.
BOUND_HERE = {"repro": ["__version__"]}


def _declaration(package) -> ast.Call:
    """The package's one ``lazy_exports(...)`` call."""
    [call] = [node for node in ast.walk(ast.parse(inspect.getsource(package)))
              if isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "lazy_exports"]
    return call


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_all_is_the_table_plus_the_names_bound_here(name):
    package = importlib.import_module(name)
    table = ast.literal_eval(_declaration(package).args[1])
    declared = [export for names in table.values() for export in names]
    assert len(set(package.__all__)) == len(package.__all__)
    assert sorted(package.__all__) == sorted(BOUND_HERE.get(name, [])
                                             + declared)


def test_eager_modules_are_bound_at_import():
    """A fresh ``import repro.harness`` binds every name of its eager
    module and loads none of the lazy ones."""
    call = _declaration(importlib.import_module("repro.harness"))
    table = ast.literal_eval(call.args[1])
    [keyword] = call.keywords
    eager = ast.literal_eval(keyword.value)
    assert (keyword.arg, eager) == ("eager", ("repro.harness.scenario",))
    probe = (
        "import sys, repro.harness as h\n"
        f"assert all(n in vars(h) for n in {table[eager[0]]!r})\n"
        f"lazy = {sorted(set(table) - set(eager))!r}\n"
        "assert not [m for m in lazy if m in sys.modules], sys.modules\n")
    src = os.path.dirname(os.path.dirname(repro.__file__))
    done = subprocess.run([sys.executable, "-c", probe],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
