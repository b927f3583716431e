"""String-keyed protocol registry: one place to plug in a dissemination
strategy.

A protocol module registers a factory under a name, and
:class:`~repro.harness.scenario.ScenarioConfig` validation, world
construction, the loopback cluster and the ``protocol-matrix``
experiment all consult the same table, :data:`REGISTRY`.

A factory receives the *full* scenario config (duck-typed — the registry
lives below the harness and never imports it) and returns a fresh
:class:`~repro.core.base.PubSubProtocol`.  Every registered name is both
valid in configs and part of "every protocol" sweeps.  A variant of a
built-in (say, gossip that always forwards) is a composition registered
under a name of its own, not a config knob.

The built-in protocols are data: :data:`BUILTINS` names each one's
factory as ``"module:function"``, and :data:`REGISTRY` starts out
holding, per row, a factory that imports that module on its first call.
Validating a config or listing names therefore loads no protocol code.

Worker processes of the parallel engine resolve names against *their
own* import of the registry, so custom protocols must be registered at
import time of a module the harness pulls in (see
``examples/custom_protocol.py`` for the single-process pattern).
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List

from repro.core.base import PubSubProtocol

#: A protocol factory: receives the full scenario config (duck-typed),
#: returns a fresh protocol instance.
ProtocolFactory = Callable[[object], PubSubProtocol]

#: The built-in protocols: name -> ``"module:factory"``.
BUILTINS: Dict[str, str] = {
    # the paper's frugal store-and-forward protocol
    "frugal": "repro.core.protocol:make_frugal",
    # the Section 5.2 flooders, rebroadcasting every second
    "simple-flooding": "repro.baselines.simple_flooding:make_simple_flooding",
    "interest-flooding":
        "repro.baselines.interest_flooding:make_interest_flooding",
    "neighbor-flooding":
        "repro.baselines.neighbor_flooding:make_neighbor_flooding",
    # the one-shot broadcast-storm schemes of Section 6
    "gossip-flooding": "repro.baselines.storm:make_gossip_flooding",
    "counter-flooding": "repro.baselines.storm:make_counter_flooding",
    # lpbcast-style periodic gossip over a bounded digest buffer
    "gossip": "repro.baselines.gossip:make_gossip",
}


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


#: The process-wide name -> factory table every harness surface
#: consults, pre-loaded with :data:`BUILTINS`.
REGISTRY: Dict[str, ProtocolFactory] = {
    name: imported_factory(target) for name, target in BUILTINS.items()}


def register(name: str, factory: ProtocolFactory, *,
             replace: bool = False) -> None:
    """Add a protocol under ``name``; a taken name raises unless
    ``replace`` is set."""
    if not name:
        raise ValueError("protocol name must be non-empty")
    if name in REGISTRY and not replace:
        raise ValueError(f"protocol {name!r} is already registered; "
                         f"pass replace=True to override")
    REGISTRY[name] = factory


def unregister(name: str) -> None:
    """Remove a protocol (unknown names raise)."""
    if REGISTRY.pop(name, None) is None:
        raise ValueError(f"protocol {name!r} is not registered")


def get(name: str) -> ProtocolFactory:
    """The factory for ``name``, or a ValueError naming the known set."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown protocol {name!r}; "
                         f"known: {names()}") from None


def create(name: str, config) -> PubSubProtocol:
    """Instantiate the protocol registered under ``name``."""
    return get(name)(config)


def names() -> List[str]:
    """Registered names, sorted."""
    return sorted(REGISTRY)
