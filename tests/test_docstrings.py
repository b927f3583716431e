"""Docstring coverage enforcement for the public API surface.

Mirrors the CI ``ruff check`` (pydocstyle rules D101/D102/D103) over
exactly the files ``[tool.ruff] include`` in ``pyproject.toml`` lists,
so the docs contract is enforced even where ruff is not installed:
every public class, function, method and property in those trees must
carry a docstring.  Private names (leading underscore) and dunders are
exempt, matching the pydocstyle visibility rules.
"""

from __future__ import annotations

import importlib
import inspect
import pathlib
import pkgutil
import tomllib
from typing import Iterator, List, Tuple

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(ROOT / "src").with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


#: One entry per package a ruff glob reaches (its modules are walked
#: below) and per module file ruff names outright.
DOCUMENTED_PACKAGES = tuple(
    _module_name(path)
    for pattern in tomllib.loads((ROOT / "pyproject.toml").read_text())
    ["tool"]["ruff"]["include"]
    for path in sorted(ROOT.glob(pattern))
    if path.name == "__init__.py" or "*" not in pattern)


def _iter_modules(package_name: str) -> Iterator[object]:
    package = importlib.import_module(package_name)
    yield package
    # Plain modules (e.g. repro.core.registry) have no __path__.
    for info in pkgutil.iter_modules(getattr(package, "__path__", [])):
        if info.name.startswith("_"):
            continue
        yield importlib.import_module(f"{package_name}.{info.name}")


def _class_members(cls: type) -> Iterator[Tuple[str, object]]:
    for name, member in vars(cls).items():
        if name.startswith("_"):
            continue
        if isinstance(member, property):
            yield f"{cls.__qualname__}.{name} (property)", member.fget
        elif isinstance(member, (classmethod, staticmethod)):
            yield f"{cls.__qualname__}.{name}", member.__func__
        elif inspect.isfunction(member):
            yield f"{cls.__qualname__}.{name}", member


def _undocumented(package_name: str) -> List[str]:
    missing: List[str] = []
    for module in _iter_modules(package_name):
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) \
                    != module.__name__:
                continue
            if inspect.isclass(obj):
                if not obj.__doc__:
                    missing.append(f"{module.__name__}.{name}")
                for label, func in _class_members(obj):
                    # Deliberately *not* inspect.getdoc: an override must
                    # carry its own docstring (as pydocstyle requires),
                    # not inherit its parent's.
                    if func is not None and not func.__doc__:
                        missing.append(f"{module.__name__}.{label}")
            elif inspect.isfunction(obj):
                if not obj.__doc__:
                    missing.append(f"{module.__name__}.{name}")
    return missing


@pytest.mark.parametrize("package_name", DOCUMENTED_PACKAGES)
def test_every_public_api_has_a_docstring(package_name):
    missing = _undocumented(package_name)
    assert not missing, (
        f"{len(missing)} public APIs in {package_name} lack docstrings "
        f"(args/returns/units belong there):\n  " + "\n  ".join(missing))
