"""String-keyed protocol registry: one place to plug in a dissemination
strategy.

The experiment harness historically dispatched on a hard-coded
``if config.protocol == ...`` chain; every new protocol meant editing the
harness.  The registry inverts that: a protocol module registers a
factory under a name, and :class:`~repro.harness.scenario.ScenarioConfig`
validation, ``make_protocol``, the CLI ``--protocol`` surface and the
``protocol-matrix`` experiment all consult the same table.

A factory receives the *full* scenario config (duck-typed — the registry
lives below the harness and never imports it) and returns a fresh
:class:`~repro.core.base.PubSubProtocol`.  Every registered name is both
valid in configs and part of "every protocol" sweeps.

The built-in protocols are data: :data:`BUILTINS` names each one's
factory as ``"module:function"``, and :data:`REGISTRY` starts out
holding one ordinary :class:`ProtocolEntry` per row, whose factory
imports that module on its first call.  Validating a config or listing
names therefore loads no protocol code.

Worker processes of the parallel engine resolve names against *their
own* import of the registry, so custom protocols must be registered at
import time of a module the harness pulls in (see
``examples/custom_protocol.py`` for the single-process pattern).
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Tuple

from repro.core.base import PubSubProtocol

#: A protocol factory: receives the full scenario config (duck-typed),
#: returns a fresh protocol instance.
ProtocolFactory = Callable[[object], PubSubProtocol]

#: The built-in protocols: ``(name, "module:factory", description)``.
#: Each factory reads only the config fields its protocol needs, so
#: paired sweeps can vary one protocol's knobs without perturbing the
#: others.
BUILTINS: Tuple[Tuple[str, str, str], ...] = (
    ("frugal", "repro.core.protocol:make_frugal",
     "the paper's frugal store-and-forward protocol"),
    ("simple-flooding", "repro.baselines.simple_flooding:make_simple_flooding",
     "flood everything every second, interests ignored"),
    ("interest-flooding",
     "repro.baselines.interest_flooding:make_interest_flooding",
     "flood only events the process subscribed to"),
    ("neighbor-flooding",
     "repro.baselines.neighbor_flooding:make_neighbor_flooding",
     "flood subscribed events while an interested neighbour exists"),
    ("gossip-flooding", "repro.baselines.storm:make_gossip_flooding",
     "one-shot probabilistic broadcast-storm scheme"),
    ("counter-flooding", "repro.baselines.storm:make_counter_flooding",
     "one-shot counter-based broadcast-storm scheme"),
    ("gossip", "repro.baselines.gossip:make_gossip",
     "lpbcast-style periodic gossip over a bounded digest buffer"),
)


def imported_factory(target: str) -> ProtocolFactory:
    """A factory that imports ``"module:function"`` on its first call
    and delegates to that function from then on."""
    module, _, name = target.partition(":")
    function = None

    def factory(config) -> PubSubProtocol:
        nonlocal function
        if function is None:
            function = getattr(importlib.import_module(module), name)
        return function(config)

    return factory


@dataclass(frozen=True)
class ProtocolEntry:
    """One registered dissemination strategy."""

    name: str
    factory: ProtocolFactory
    description: str = ""

    def create(self, config) -> PubSubProtocol:
        """Instantiate the protocol for one scenario config."""
        return self.factory(config)


class ProtocolRegistry:
    """A mutable name -> :class:`ProtocolEntry` table."""

    def __init__(self) -> None:
        self._entries: Dict[str, ProtocolEntry] = {}

    # -- mutation ---------------------------------------------------------------

    def register(self, name: str, factory: ProtocolFactory, *,
                 description: str = "",
                 replace: bool = False) -> ProtocolEntry:
        """Add a protocol under ``name``; duplicate names raise unless
        ``replace`` is set (re-imports of the same module are
        idempotent either way)."""
        if not name:
            raise ValueError("protocol name must be non-empty")
        if name in self._entries and not replace:
            raise ValueError(f"protocol {name!r} is already registered; "
                             f"pass replace=True to override")
        entry = ProtocolEntry(name=name, factory=factory,
                              description=description)
        self._entries[name] = entry
        return entry

    def unregister(self, name: str) -> None:
        """Remove an entry (unknown names raise)."""
        if name not in self._entries:
            raise ValueError(f"protocol {name!r} is not registered")
        del self._entries[name]

    # -- lookup -----------------------------------------------------------------

    def get(self, name: str) -> ProtocolEntry:
        """The entry for ``name``, or a ValueError naming the known set."""
        try:
            return self._entries[name]
        except KeyError:
            raise ValueError(
                f"unknown protocol {name!r}; known: "
                f"{self.names()}") from None

    def create(self, name: str, config) -> PubSubProtocol:
        """Instantiate the protocol registered under ``name``."""
        return self.get(name).create(config)

    def names(self) -> List[str]:
        """Registered names, sorted."""
        return sorted(self._entries)

    def entries(self) -> List[ProtocolEntry]:
        """Registered entries in name order."""
        return [self._entries[n] for n in self.names()]

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __repr__(self) -> str:   # pragma: no cover - debugging aid
        return f"<ProtocolRegistry {self.names()}>"


def _with_builtins() -> ProtocolRegistry:
    registry = ProtocolRegistry()
    for name, target, description in BUILTINS:
        registry.register(name, imported_factory(target),
                          description=description)
    return registry


#: The process-wide default registry every harness surface consults,
#: pre-loaded with :data:`BUILTINS`.
REGISTRY = _with_builtins()


def register(name: str, factory: ProtocolFactory, *, description: str = "",
             replace: bool = False) -> ProtocolEntry:
    """Register into the default registry (module-level convenience)."""
    return REGISTRY.register(name, factory, description=description,
                             replace=replace)


def unregister(name: str) -> None:
    """Remove from the default registry (module-level convenience)."""
    REGISTRY.unregister(name)


def get(name: str) -> ProtocolEntry:
    """Look up in the default registry (module-level convenience)."""
    return REGISTRY.get(name)


def create(name: str, config) -> PubSubProtocol:
    """Instantiate from the default registry (module-level convenience)."""
    return REGISTRY.create(name, config)


def names() -> List[str]:
    """Names in the default registry (module-level convenience)."""
    return REGISTRY.names()


def entries() -> List[ProtocolEntry]:
    """Entries in the default registry (module-level convenience)."""
    return REGISTRY.entries()
