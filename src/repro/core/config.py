"""Protocol tunables (paper Figures 4 and 8, Section 5.1).

All durations are in **seconds** (the paper's Fig. 4 gives the default
heartbeat delay in milliseconds — 15000 ms — which we convert).

The adaptive heartbeat machinery works as follows (Fig. 8):

* ``HBDelay`` starts at :attr:`FrugalConfig.hb_delay`,
* whenever a heartbeat is received, the process recomputes
  ``HBDelay = x / averageSpeed`` from the average speed of its (matching)
  neighbourhood plus itself, clamped to
  ``[hb_lower_bound, hb_upper_bound]``,
* the neighbourhood-GC period follows as ``NGCDelay = HBDelay * HB2NGC``,
* the back-off delay is ``HBDelay / (HB2BO * len(eventsToSend))`` — the
  more events a process has to offer, the *shorter* its back-off, so the
  best-provisioned neighbour wins the contention and the others suppress
  their (now redundant) transmissions.

Section 5.1 fixes ``x = 40``, ``HB2BO = 2`` and ``HB2NGC = 2.5`` for every
experiment, an explicit "trade-off between the overall number of messages
sent and the reliability of the dissemination".
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional


@dataclass(frozen=True)
class FrugalConfig:
    """All knobs of the frugal dissemination protocol.

    Instances are immutable; use :meth:`with_changes` (a thin
    :func:`dataclasses.replace` wrapper) to derive variants in ablations.
    """

    # -- heartbeat (phase 1) -------------------------------------------------
    hb_delay: float = 15.0
    """Initial heartbeat period [s] before any adaptation (paper: 15000 ms)."""

    x: float = 40.0
    """Numerator of the adaptive heartbeat rule ``HBDelay = x / avgSpeed``.

    The paper suggests the radio propagation radius as a natural choice;
    its experiments use 40."""

    hb_upper_bound: float = 1.0
    """Maximum heartbeat period [s] (the paper's "heartbeat upper bound",
    swept 1-5 s in Fig. 13; 1 s in every random-waypoint experiment)."""

    hb_lower_bound: float = 0.1
    """Minimum heartbeat period [s]; prevents a fast neighbourhood from
    demanding an unbounded beacon rate."""

    adaptive_heartbeat: bool = True
    """When False (ablation), the heartbeat period stays pinned to
    ``hb_upper_bound`` regardless of observed speeds."""

    hb_jitter: float = 0.05
    """Uniform per-tick jitter [s] added to heartbeats so co-located nodes
    do not beacon in lock-step (a real MAC would desynchronise them)."""

    # -- derived-delay factors (Fig. 4 / Fig. 8) ------------------------------
    hb2ngc: float = 2.5
    """``NGCDelay = HBDelay * HB2NGC`` — neighbourhood entries older than
    this are garbage collected."""

    hb2bo: float = 2.0
    """``BODelay = HBDelay / (HB2BO * len(eventsToSend))``."""

    # -- dissemination (phase 2) ----------------------------------------------
    announce_on_new_neighbor: bool = True
    """Exchange event-id lists when a matching neighbour appears (Fig. 6
    line 19-23).  Disabling this is the `abl-ids` ablation: events are then
    offered blindly, as a flooding protocol would."""

    use_backoff: bool = True
    """Apply the contention back-off before sending events.  Disabling it
    (ablation) sends immediately and loses duplicate suppression."""

    backoff_suppression: bool = True
    """Stop a pending back-off when an event of interest arrives, then
    recompute what is still missing (Fig. 9 line 22)."""

    backoff_jitter_frac: float = 0.5
    """Multiplicative back-off randomisation: the armed delay is
    ``BODelay * (1 + U(0, backoff_jitter_frac))``.  The paper's formula is
    deterministic, but competing forwarders are triggered by the *same*
    broadcast and would otherwise expire at the same instant, defeating
    the overhearing-based suppression that real 802.11 contention would
    provide.  Keeps the paper's ordering (more events => earlier send)."""

    # -- memory (phase 3) ------------------------------------------------------
    event_table_capacity: Optional[int] = 256
    """Maximum number of stored events; ``None`` means unbounded (useful in
    unit tests).  When full, the eviction policy picks a victim."""

    eviction_policy: str = "validity-forward"
    """Victim selection when the event table is full.  One of
    ``validity-forward`` (the paper's Equation 1), ``remaining-validity``,
    ``fifo``, ``random`` (the latter three are ablation baselines)."""

    neighborhood_capacity: Optional[int] = None
    """Hard bound on neighbourhood-table rows (paper footnote 5: "the
    maximum number of neighbors a process can handle").  ``None`` leaves
    the table bounded only by radio density; when set, a new neighbour
    arriving at a full table evicts the stalest row."""

    # -- misc -------------------------------------------------------------------
    speed_in_heartbeats: bool = True
    """Include the optional speed field in heartbeats (Section 3 calls it an
    optimisation; disabling it forces the static heartbeat period)."""

    def __post_init__(self) -> None:
        if self.hb_delay <= 0:
            raise ValueError(f"hb_delay must be positive: {self.hb_delay}")
        if self.x <= 0:
            raise ValueError(f"x must be positive: {self.x}")
        if self.hb_lower_bound <= 0:
            raise ValueError("hb_lower_bound must be positive")
        if self.hb_upper_bound < self.hb_lower_bound:
            raise ValueError(
                f"hb_upper_bound ({self.hb_upper_bound}) must be >= "
                f"hb_lower_bound ({self.hb_lower_bound})")
        if self.hb2ngc <= 0:
            raise ValueError(f"hb2ngc must be positive: {self.hb2ngc}")
        if self.hb2bo <= 0:
            raise ValueError(f"hb2bo must be positive: {self.hb2bo}")
        if self.hb_jitter < 0:
            raise ValueError(f"hb_jitter must be >= 0: {self.hb_jitter}")
        if self.backoff_jitter_frac < 0:
            raise ValueError(f"backoff_jitter_frac must be >= 0: "
                             f"{self.backoff_jitter_frac}")
        if (self.event_table_capacity is not None
                and self.event_table_capacity < 1):
            raise ValueError("event_table_capacity must be >= 1 or None")
        if (self.neighborhood_capacity is not None
                and self.neighborhood_capacity < 1):
            raise ValueError("neighborhood_capacity must be >= 1 or None")
        valid_policies = {"validity-forward", "remaining-validity",
                          "fifo", "random"}
        if self.eviction_policy not in valid_policies:
            raise ValueError(
                f"eviction_policy must be one of {sorted(valid_policies)}: "
                f"{self.eviction_policy!r}")

    # -- derived quantities -----------------------------------------------------

    def ngc_delay(self, hb_delay: float) -> float:
        """Neighbourhood-GC period for the current heartbeat period."""
        return hb_delay * self.hb2ngc

    def backoff_delay(self, hb_delay: float, n_events_to_send: int) -> float:
        """Back-off before sending ``n_events_to_send`` events (Fig. 8)."""
        if n_events_to_send <= 0:
            raise ValueError("back-off is only defined when there is "
                             "something to send")
        return hb_delay / (self.hb2bo * n_events_to_send)

    def adapted_hb_delay(self, average_speed: Optional[float],
                         current: float) -> float:
        """The Fig. 8 ``computeHBDelay`` rule.

        ``average_speed`` is the mean speed of the process and its matching
        neighbours, or ``None`` when no speed information is available.
        The clamp to ``[hb_lower_bound, hb_upper_bound]`` applies in every
        case (Fig. 8 lines 7-8 sit outside the conditional), so even a
        fully static network converges to the upper bound.
        """
        if not self.adaptive_heartbeat:
            return self.hb_upper_bound
        hb = current
        if average_speed is not None and average_speed > 0.0:
            hb = self.x / average_speed
        hb = min(hb, self.hb_upper_bound)
        hb = max(hb, self.hb_lower_bound)
        return hb

    def with_changes(self, **changes) -> "FrugalConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    @classmethod
    def paper_random_waypoint(cls) -> "FrugalConfig":
        """Section 5.1 settings for the random-waypoint experiments."""
        return cls(x=40.0, hb2bo=2.0, hb2ngc=2.5, hb_upper_bound=1.0)

    @classmethod
    def paper_city_section(cls, hb_upper_bound: float = 1.0) -> "FrugalConfig":
        """Section 5.1 city settings; Fig. 13 sweeps ``hb_upper_bound``."""
        return cls(x=40.0, hb2bo=2.0, hb2ngc=2.5,
                   hb_upper_bound=hb_upper_bound)

