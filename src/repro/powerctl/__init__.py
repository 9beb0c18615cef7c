"""Closed-loop GPU power management (DVFS governors, power capping).

The subsystem has two layers:

- :mod:`repro.powerctl.config` — :class:`PowerControlConfig`, the frozen
  knob bundle that travels inside ``SimSettings`` (and ``FleetConfig``).
- :mod:`repro.powerctl.governor` — the in-simulation runtimes
  (``static``/``thermal``/``straggler``) the engine ticks every control
  interval, plus the :class:`PowerControlTrace` decision log.

The outer-loop ``energy_optimal`` setpoint search lives in
:mod:`repro.optimize.setpoint` (``optimize_setpoint``,
``evaluate_setpoints``).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.powerctl.config": (
        "GOVERNORS", "NO_POWER_CONTROL", "SEARCH_GOVERNORS",
        "PowerControlConfig", "freq_for_power_limit", "static_setpoint",
    ),
    "repro.powerctl.governor": (
        "GovernorRuntime", "PowerControlTrace", "PowerCtlObservation",
        "StaticGovernor", "StragglerGovernor", "ThermalGovernor",
        "build_runtime",
    ),
})

__all__ = [
    "GOVERNORS",
    "NO_POWER_CONTROL",
    "SEARCH_GOVERNORS",
    "PowerControlConfig",
    "freq_for_power_limit",
    "static_setpoint",
    "GovernorRuntime",
    "PowerControlTrace",
    "PowerCtlObservation",
    "StaticGovernor",
    "StragglerGovernor",
    "ThermalGovernor",
    "build_runtime",
]
