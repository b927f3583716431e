"""Protocol tunables (paper Figures 4 and 8, Section 5.1).

All durations are in **seconds** (the paper's Fig. 4 gives the default
heartbeat delay in milliseconds — 15000 ms — which we convert).

The values the paper fixes for every experiment are module constants;
:class:`FrugalConfig` holds only what the studies vary (plus the
neighbourhood bound a golden family pins).  The adaptive heartbeat
machinery works as follows (Fig. 8):

* ``HBDelay`` starts at :data:`INITIAL_HB_DELAY_S`,
* whenever a heartbeat is received, the process recomputes
  ``HBDelay = x / averageSpeed`` (``x`` is :data:`X_M`) from the average
  speed of its (matching) neighbourhood plus itself, clamped to
  ``[HB_LOWER_BOUND_S, hb_upper_bound]``,
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

from dataclasses import dataclass
from typing import Optional

#: Initial heartbeat period [s] before any adaptation (Fig. 4: 15000 ms).
INITIAL_HB_DELAY_S = 15.0

#: Numerator of the adaptive heartbeat rule ``HBDelay = x / avgSpeed``
#: [m].  The paper suggests the radio propagation radius as a natural
#: choice; its experiments use 40.
X_M = 40.0

#: Minimum heartbeat period [s]; prevents a fast neighbourhood from
#: demanding an unbounded beacon rate.
HB_LOWER_BOUND_S = 0.1

#: Uniform per-tick jitter [s] added to heartbeats so co-located nodes
#: do not beacon in lock-step (a real MAC would desynchronise them).
HB_JITTER_S = 0.05

#: ``NGCDelay = HBDelay * HB2NGC`` — neighbourhood entries older than
#: this are garbage collected.
HB2NGC = 2.5

#: ``BODelay = HBDelay / (HB2BO * len(eventsToSend))``.
HB2BO = 2.0

#: Multiplicative back-off randomisation: the armed delay is
#: ``BODelay * (1 + U(0, BACKOFF_JITTER_FRAC))``.  The paper's formula is
#: deterministic, but competing forwarders are triggered by the *same*
#: broadcast and would otherwise expire at the same instant, defeating
#: the overhearing-based suppression that real 802.11 contention would
#: provide.  Keeps the paper's ordering (more events => earlier send).
BACKOFF_JITTER_FRAC = 0.5


@dataclass(frozen=True)
class FrugalConfig:
    """The knobs of the frugal dissemination protocol that studies vary.

    Instances are immutable; derive variants with
    :func:`dataclasses.replace` or by constructing a new one.
    """

    # -- heartbeat (phase 1) -------------------------------------------------
    hb_upper_bound: float = 1.0
    """Maximum heartbeat period [s] (the paper's "heartbeat upper bound",
    swept 1-5 s in Fig. 13; 1 s in every random-waypoint experiment)."""

    adaptive_heartbeat: bool = True
    """When False (ablation), the heartbeat period stays pinned to
    ``hb_upper_bound`` regardless of observed speeds."""

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

    def __post_init__(self) -> None:
        if self.hb_upper_bound < HB_LOWER_BOUND_S:
            raise ValueError(
                f"hb_upper_bound ({self.hb_upper_bound}) must be >= "
                f"HB_LOWER_BOUND_S ({HB_LOWER_BOUND_S})")
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
        return hb_delay * HB2NGC

    def backoff_delay(self, hb_delay: float, n_events_to_send: int) -> float:
        """Back-off before sending ``n_events_to_send`` events (Fig. 8)."""
        if n_events_to_send <= 0:
            raise ValueError("back-off is only defined when there is "
                             "something to send")
        return hb_delay / (HB2BO * n_events_to_send)

    def adapted_hb_delay(self, average_speed: Optional[float],
                         current: float) -> float:
        """The Fig. 8 ``computeHBDelay`` rule.

        ``average_speed`` is the mean speed of the process and its matching
        neighbours, or ``None`` when no speed information is available.
        The clamp to ``[HB_LOWER_BOUND_S, hb_upper_bound]`` applies in
        every case (Fig. 8 lines 7-8 sit outside the conditional), so even
        a fully static network converges to the upper bound.
        """
        if not self.adaptive_heartbeat:
            return self.hb_upper_bound
        hb = current
        if average_speed is not None and average_speed > 0.0:
            hb = X_M / average_speed
        hb = min(hb, self.hb_upper_bound)
        hb = max(hb, HB_LOWER_BOUND_S)
        return hb

    @classmethod
    def paper_city_section(cls, hb_upper_bound: float = 1.0) -> "FrugalConfig":
        """Section 5.1 city settings; Fig. 13 sweeps ``hb_upper_bound``."""
        return cls(hb_upper_bound=hb_upper_bound)
