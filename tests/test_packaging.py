"""Package metadata and the lazy package surfaces.

Every package re-exports its public names through one PEP 562 table
(:mod:`repro._lazy`); these tests hold each ``__all__`` to that table,
so an export cannot silently stop resolving.
"""

from __future__ import annotations

import importlib
import pathlib
import tomllib

import pytest

import repro

ROOT = pathlib.Path(__file__).resolve().parent.parent

LAZY_PACKAGES = ("repro", "repro.core", "repro.core.stack", "repro.net",
                 "repro.sim", "repro.sim.shard", "repro.energy",
                 "repro.faults", "repro.metrics", "repro.mobility",
                 "repro.harness", "repro.study")


def test_version_matches_pyproject():
    meta = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert repro.__version__ == meta["project"]["version"]


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_every_export_resolves_and_is_listed(name):
    package = importlib.import_module(name)
    for export in package.__all__:
        assert hasattr(package, export), f"{name}.{export}"
    assert set(package.__all__) <= set(dir(package))


def test_export_is_the_defining_modules_object():
    from repro.sim import kernel
    assert repro.sim.Simulator is kernel.Simulator
    assert repro.Simulator is kernel.Simulator


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.core.no_such_name   # noqa: B018


def test_submodules_still_import_through_the_package():
    from repro.core import registry
    assert registry.__name__ == "repro.core.registry"
