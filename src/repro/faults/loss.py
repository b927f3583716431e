"""Message-loss models layered on the wireless medium.

The medium's own ``frame_loss_probability`` is a single uniform knob.
Real degraded channels are lumpier, in two ways this module models:

* **per-link loss** — every directed ``(sender, receiver)`` link gets its
  own loss probability, drawn once per run from
  ``U(link_loss_min, link_loss_max)`` with a seed derived from the link's
  endpoints (``derive_seed``), so the draw is stable across processes and
  independent of reception order;
* **loss bursts** — network-wide interference bursts arrive as a Poisson
  process (``burst_rate_per_s``) with exponential durations; while a
  burst is active every reception is additionally dropped with
  ``burst_loss_probability``.

The model is installed as the medium's ``extra_loss`` hook by the
:class:`~repro.faults.injector.FaultInjector`; with no fault config the
hook stays ``None`` and the delivery path is byte-identical to before.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from repro.sim.rng import derive_seed

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


@dataclass(frozen=True)
class LinkLossConfig:
    """Per-link and burst loss knobs (all off by default)."""

    link_loss_min: float = 0.0
    link_loss_max: float = 0.0
    burst_rate_per_s: float = 0.0
    burst_mean_duration_s: float = 0.0
    burst_loss_probability: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.link_loss_min <= self.link_loss_max <= 1.0:
            raise ValueError("need 0 <= link_loss_min <= link_loss_max "
                             "<= 1")
        if self.burst_rate_per_s < 0:
            raise ValueError("burst_rate_per_s must be >= 0")
        if self.burst_rate_per_s > 0 and self.burst_mean_duration_s <= 0:
            raise ValueError("bursts need a positive "
                             "burst_mean_duration_s")
        if not 0.0 <= self.burst_loss_probability <= 1.0:
            raise ValueError("burst_loss_probability must be in [0, 1]")

    @property
    def enabled(self) -> bool:
        """True when any loss mechanism is configured."""
        return self.link_loss_max > 0.0 or self.burst_rate_per_s > 0.0


class LinkLossProcess:
    """Runtime state of a :class:`LinkLossConfig` on one simulation.

    Callable as ``process(sender_id, receiver_id) -> bool`` (True =
    drop), which is exactly the medium's ``extra_loss`` hook signature.
    Reception-time Bernoulli draws come from the dedicated
    ``("faults", "loss")`` stream; burst arrivals from
    ``("faults", "burst")``; per-link probabilities from per-link derived
    seeds — three independent streams, so none perturbs the others.

    ``per_receiver_rng`` (optional) replaces the single shared reception
    stream with one stream *per receiver*: each draw then depends only on
    that receiver's own reception history, never on interleaving with
    other receivers' draws.  The sharded-execution engine needs this —
    reception order across shards is a merge artefact, so a shared
    stream would make verdicts depend on the shard count.
    """

    def __init__(self, sim: Simulator, config: LinkLossConfig,
                 reception_rng, burst_rng, root_seed: int,
                 per_receiver_rng: Optional[
                     Callable[[int], random.Random]] = None):
        self.sim = sim
        self.config = config
        self._rng = reception_rng
        self._burst_rng = burst_rng
        self._per_receiver = per_receiver_rng
        self._root_seed = root_seed
        self._link_p: Dict[Tuple[int, int], float] = {}
        self._burst_until = -math.inf
        self.bursts_started = 0

    def arm(self, start: float, horizon: float) -> None:
        """Schedule the burst arrival process over ``[start, horizon]``."""
        self._horizon = horizon
        if self.config.burst_rate_per_s > 0.0:
            first = start + self._burst_rng.expovariate(
                self.config.burst_rate_per_s)
            if first <= horizon:
                self.sim.call_at(first, self._begin_burst)

    def _begin_burst(self) -> None:
        now = self.sim.now
        length = self._burst_rng.expovariate(
            1.0 / self.config.burst_mean_duration_s)
        self._burst_until = max(self._burst_until, now + length)
        self.bursts_started += 1
        nxt = now + self._burst_rng.expovariate(
            self.config.burst_rate_per_s)
        if nxt <= self._horizon:
            self.sim.call_at(nxt, self._begin_burst)

    def link_probability(self, sender_id: int, receiver_id: int) -> float:
        """This directed link's per-reception loss probability."""
        lo, hi = self.config.link_loss_min, self.config.link_loss_max
        if lo == hi:
            return lo
        key = (sender_id, receiver_id)
        p = self._link_p.get(key)
        if p is None:
            p = random.Random(derive_seed(
                self._root_seed, "faults", "link",
                sender_id, receiver_id)).uniform(lo, hi)
            self._link_p[key] = p
        return p

    @property
    def in_burst(self) -> bool:
        """True while an interference burst is active."""
        return self.sim.now < self._burst_until

    def __call__(self, sender_id: int, receiver_id: int) -> bool:
        """Decide one reception: True drops the frame."""
        rng = (self._rng if self._per_receiver is None
               else self._per_receiver(receiver_id))
        p = self.link_probability(sender_id, receiver_id)
        if p > 0.0 and rng.random() < p:
            return True
        if self.in_burst and \
                rng.random() < self.config.burst_loss_probability:
            return True
        return False
