"""Event-table eviction policies (paper Section 4.4, Equation 1).

When the bounded event table is full and a new event must be stored, the
paper first collects any event whose validity period has expired; when all
stored events are still valid it applies Equation 1 and evicts the event
minimising::

    gc(e) = val(e) / (fwd(e) + val(e))

where ``val(e)`` is the validity *period* (seconds) and ``fwd(e)`` the
number of times this process forwarded the event.  The score decreases with
forwards and increases with validity, so long-lived events that have
already been propagated several times are collected before short-lived
events that were never forwarded — exactly the worked example in the paper
(a 2-minute event forwarded once outlives a 5-minute event forwarded five
times).

Three alternative policies are provided for the `abl-gc` ablation study:

* :class:`RemainingValidityPolicy` — Equation 1 computed on the *remaining*
  validity instead of the full period (a plausible alternative reading of
  the paper's ``val``),
* :class:`FifoPolicy` — evict the oldest-stored event,
* :class:`RandomPolicy` — evict a uniformly random event.
"""

from __future__ import annotations

import abc
from typing import Iterable, List, Optional

from repro.core.events import StoredEvent


def gc_score(validity: float, forward_count: int) -> float:
    """Equation 1: ``val / (fwd + val)``; smaller means evict sooner."""
    if validity <= 0:
        raise ValueError(f"validity must be positive: {validity}")
    if forward_count < 0:
        raise ValueError(f"forward_count must be >= 0: {forward_count}")
    return validity / (forward_count + validity)


class EvictionPolicy(abc.ABC):
    """Strategy object choosing the victim of a full event table.

    Policies never pick the victim among expired events themselves — the
    table always tries expired events first (the cheap, paper-prescribed
    fast path) and only consults the policy when everything is still valid.
    """

    name: str = "abstract"

    @abc.abstractmethod
    def select_victim(self, stored: Iterable[StoredEvent], now: float,
                      rng=None) -> Optional[StoredEvent]:
        """Return the entry to evict, or ``None`` when ``stored`` is empty."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


class ValidityForwardPolicy(EvictionPolicy):
    """The paper's Equation 1 applied to the full validity period."""

    name = "validity-forward"

    def select_victim(self, stored: Iterable[StoredEvent], now: float,
                      rng=None) -> Optional[StoredEvent]:
        victim: Optional[StoredEvent] = None
        victim_score = float("inf")
        for entry in stored:
            score = gc_score(entry.event.validity, entry.forward_count)
            if score <= victim_score:
                victim = entry
                victim_score = score
        return victim


class RemainingValidityPolicy(EvictionPolicy):
    """Equation 1 on the validity still *remaining* at eviction time.

    Differs from the paper's policy in that a nearly expired event becomes
    a preferred victim even if it was never forwarded.
    """

    name = "remaining-validity"

    def select_victim(self, stored: Iterable[StoredEvent], now: float,
                      rng=None) -> Optional[StoredEvent]:
        victim: Optional[StoredEvent] = None
        victim_score = float("inf")
        for entry in stored:
            remaining = max(entry.event.remaining_validity(now), 1e-9)
            score = gc_score(remaining, entry.forward_count)
            if score <= victim_score:
                victim = entry
                victim_score = score
        return victim


class FifoPolicy(EvictionPolicy):
    """Evict the entry stored the longest ago."""

    name = "fifo"

    def select_victim(self, stored: Iterable[StoredEvent], now: float,
                      rng=None) -> Optional[StoredEvent]:
        victim: Optional[StoredEvent] = None
        for entry in stored:
            if victim is None or entry.stored_at < victim.stored_at:
                victim = entry
        return victim


class RandomPolicy(EvictionPolicy):
    """Evict a uniformly random entry (requires an rng)."""

    name = "random"

    def select_victim(self, stored: Iterable[StoredEvent], now: float,
                      rng=None) -> Optional[StoredEvent]:
        entries: List[StoredEvent] = list(stored)
        if not entries:
            return None
        if rng is None:
            raise ValueError("RandomPolicy requires an rng")
        return entries[rng.randrange(len(entries))]


_POLICIES = {
    ValidityForwardPolicy.name: ValidityForwardPolicy,
    RemainingValidityPolicy.name: RemainingValidityPolicy,
    FifoPolicy.name: FifoPolicy,
    RandomPolicy.name: RandomPolicy,
}


def make_policy(name: str) -> EvictionPolicy:
    """Instantiate an eviction policy by its configuration name."""
    try:
        return _POLICIES[name]()
    except KeyError:
        raise ValueError(f"unknown eviction policy {name!r}; "
                         f"known: {sorted(_POLICIES)}") from None
