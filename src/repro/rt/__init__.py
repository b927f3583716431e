"""Real-network asyncio runtime for the protocol stack.

Everything under :mod:`repro.core.stack` is written against the minimal
:class:`~repro.core.base.Host` interface, implemented once by
:class:`~repro.net.node.HostNode`; this package runs that host on a
second clock and a second air — the asyncio loop's clock and real UDP
datagrams instead of the discrete-event kernel and the simulated radio:

* :mod:`repro.rt.codec` — a versioned binary wire codec for the three
  :mod:`repro.net.messages` frame types (round-trip exact, garbage and
  unknown-version datagrams rejected cleanly);
* :mod:`repro.rt.host` — :class:`AsyncioHost`, the ``HostNode`` over
  ``asyncio``: a :class:`~repro.rt.host.LoopClock` firing the kernel's
  own timers from ``call_later``, datagram ``send()`` fanned out over a
  static peer table, and per-node seeded rng streams so protocol
  coin-flips stay reproducible;
* :mod:`repro.rt.cluster` — :class:`LoopbackCluster`, N in-process
  nodes on ``127.0.0.1`` UDP sockets running any registered protocol
  composition *unchanged*, with crash/silence injection mirroring the
  fault subsystem's vocabulary;
* :mod:`repro.rt.bridge` — the ``loopback-bridge`` experiment comparing
  sim-predicted against UDP-measured reliability and per-node overhead,
  run like every other experiment:
  ``python -m repro.harness.cli loopback-bridge``.

The runtime executes protocols over a *single-hop* network (every node
hears every other, no radio model), so measured results are statistical,
not bit-identical to the sim — see docs/EXPERIMENTS.md for the
documented tolerance bands.
"""

from repro.rt.codec import (CodecError, UnsupportedVersion, WIRE_VERSION,
                            decode, encode)
from repro.rt.host import AsyncioHost, LoopClock
from repro.rt.cluster import (LoopbackCluster, RT_FAULT_KINDS, RtFault,
                              RtResult)

__all__ = [
    "AsyncioHost", "CodecError", "LoopClock", "LoopbackCluster",
    "RT_FAULT_KINDS", "RtFault", "RtResult", "UnsupportedVersion",
    "WIRE_VERSION", "decode", "encode",
]
