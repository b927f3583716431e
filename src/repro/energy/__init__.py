"""Energy accounting: radio power states, batteries and duty cycling.

The paper's pitch is *frugal* dissemination on resource-poor mobile
devices, but its evaluation counts only bytes.  This subpackage prices
those bytes in joules so the frugality claim becomes quantitative:

* :mod:`repro.energy.model` — a per-node TX/RX/IDLE/SLEEP radio state
  machine charged on the simulation clock, with per-state power draws
  (measured 802.11 presets, or derived from a :class:`RadioConfig`),
* :mod:`repro.energy.battery` — finite energy stores with exact,
  timer-scheduled depletion,
* :mod:`repro.energy.dutycycle` — synchronised sleep schedules the frugal
  protocol can exploit and flooders cannot,
* :mod:`repro.energy.collector` — the per-world accountant that meters
  every node and powers down the drained ones mid-run, and the record it
  hands over at close, which aggregates the joules-per-node /
  joules-per-delivery / network-lifetime metrics.

None of these modules imports the kernel or the medium at load time (they
receive them from the world that wires them), and names resolve lazily
(:mod:`repro._lazy`), so a cached energy result reads without the engine.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Battery",
    "EnergyAccountant",
    "EnergyConfig",
    "EnergyReading",
    "EnergyRecord",
    "DutyCycleConfig",
    "DutyCycler",
    "EnergyModel",
    "PowerProfile",
    "RadioState",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.energy.battery": ("Battery",),
    "repro.energy.collector": ("EnergyAccountant", "EnergyConfig",
                               "EnergyReading", "EnergyRecord"),
    "repro.energy.dutycycle": ("DutyCycleConfig", "DutyCycler"),
    "repro.energy.model": ("EnergyModel", "PowerProfile", "RadioState"),
})
