"""Population churn: processes leave and rejoin the network stochastically.

Each churned node runs an alternating renewal process on the simulation
clock: up for a *session*, fail-stopped for a *rest*, repeating until the
measurement window ends.  Every node draws its session/rest lengths from
its **own** named RNG stream (``("faults", "churn", node_id)``), so

* the same seed reproduces the same join/leave trace bit-for-bit,
* adding or removing one churned node never shifts another node's draws,
  and
* serial and parallel sweeps agree exactly (the draws are independent of
  kernel event interleaving).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Supported session/rest length distributions.
CHURN_DISTRIBUTIONS = ("exponential", "fixed")


@dataclass(frozen=True)
class ChurnConfig:
    """Stochastic join/leave behaviour for (a fraction of) the population.

    With the default ``exponential`` distribution, leaves form a Poisson
    process of rate ``1 / mean_session_s`` per up node, and rejoins one of
    rate ``1 / mean_rest_s`` per down node — the classic churn model.
    ``fixed`` substitutes deterministic session/rest lengths (useful for
    reproducible unit tests and worst-case synchronised churn).
    """

    mean_session_s: float
    mean_rest_s: float
    fraction: float = 1.0
    start_at: float = 0.0
    distribution: str = "exponential"

    def __post_init__(self) -> None:
        if self.mean_session_s <= 0:
            raise ValueError("mean_session_s must be positive")
        if self.mean_rest_s <= 0:
            raise ValueError("mean_rest_s must be positive")
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1]: {self.fraction}")
        if self.start_at < 0:
            raise ValueError("start_at must be >= 0")
        if self.distribution not in CHURN_DISTRIBUTIONS:
            raise ValueError(f"distribution must be one of "
                             f"{CHURN_DISTRIBUTIONS}: {self.distribution!r}")

    def draw(self, rng, mean_s: float) -> float:
        """One session or rest length in seconds from ``rng``."""
        if self.distribution == "exponential":
            return rng.expovariate(1.0 / mean_s)
        return mean_s                       # "fixed"
