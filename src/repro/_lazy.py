"""Lazy package surfaces (PEP 562).

A package ``__init__`` lists what it re-exports as a table of
``{defining module: (names, ...)}`` — its one export list — and
installs the triple this module returns as its ``__getattr__``,
``__dir__`` and ``__all__``::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "repro.sim.kernel": ("Simulator", "Timer"),
    })

A name's defining module is imported on first touch of that name, and
the value is then bound on the package, so later lookups are plain
attribute reads.  Importing a package (or any module inside it) thus
loads only the modules actually used — a warm-cache CLI run never loads
the simulation engine.  Modules named in ``eager`` are imported at once
and their names bound immediately, for packages whose every user needs
them anyway.  Submodules still import the usual way
(``from repro.core import registry``): a name missing from the table
raises :class:`AttributeError`, which is what lets the import system
fall back to loading the submodule.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, List, Mapping, Sequence, Tuple


def lazy_exports(package: str, table: Mapping[str, Sequence[str]],
                 eager: Sequence[str] = ()
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]],
                            List[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package`` re-exporting
    ``table``; the modules in ``eager`` are bound now."""
    exports = [name for names in table.values() for name in names]
    where = {name: module for module, names in table.items()
             for name in names}

    def __getattr__(name: str) -> object:
        module = where.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    for module in eager:
        for name in table[module]:
            __getattr__(name)
    return __getattr__, __dir__, exports
