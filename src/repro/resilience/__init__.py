"""Fault timelines, mid-run fault injection, and recovery policies.

Two halves:

* :mod:`repro.resilience.runtime` — the engine-side fault runtime that
  applies a :class:`~repro.core.faults.FaultTimeline` to one simulated
  run (physics effects, compute/link penalties, hang detection).
* :mod:`repro.resilience.recovery` — the job-level layer above it:
  checkpoint write costs, and the fail-stop / hot-spare / elastic
  DP-shrink restart strategies whose goodput and energy the
  ``python -m repro resilience`` CLI compares.

``recovery`` imports the run layer (and therefore the engine), while the
engine imports ``runtime`` — so, like every facade's exports, both
halves load on first access, which keeps the import graph acyclic.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.resilience.runtime": (
        "FaultRuntime", "FaultTrace", "FaultTraceEntry", "build_fault_runtime",
    ),
    "repro.resilience.recovery": (
        "POLICIES", "InterruptPlan", "RecoveryConfig", "ResilienceRun",
        "compare_policies", "plan_interrupt", "simulate_recovery",
        "sweep_mtbf",
    ),
})

__all__ = [
    "FaultRuntime",
    "FaultTrace",
    "FaultTraceEntry",
    "build_fault_runtime",
    "POLICIES",
    "InterruptPlan",
    "RecoveryConfig",
    "ResilienceRun",
    "compare_policies",
    "plan_interrupt",
    "simulate_recovery",
    "sweep_mtbf",
]
