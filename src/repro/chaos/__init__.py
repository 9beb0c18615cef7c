"""Fault injection + self-healing proof harness for the serving stack.

``repro.chaos`` is two halves:

- **Injection** — :mod:`~repro.chaos.hooks` hook points compiled into
  the production store / supervisor / worker pool / broker (a no-op
  unless a handler is installed), a seeded
  :class:`~repro.chaos.injection.FaultInjector` that drives them from a
  declarative :class:`~repro.chaos.injection.FaultPlan`, and the named
  :data:`~repro.chaos.scenarios.SCENARIOS` registry (worker crashes,
  stragglers, TCP drops, torn cache writes, queue storms, the pinned
  acceptance soak).
- **Self-healing policy** — :class:`~repro.chaos.policies.RetryPolicy`
  (full-jitter backoff under a retry budget), which paces the worker
  pool's crash redispatch and a remote worker's reconnects in
  :mod:`repro.serve`.

:func:`~repro.chaos.harness.run_scenario` runs a scenario against a
live broker + worker pool and returns a
:class:`~repro.chaos.harness.SurvivalReport`; ``python -m repro chaos``
is the CLI wrapper. See docs/chaos.md.

``repro.core.store`` imports the hook registry at module load; like
every facade in the package, this one loads each export on first
access, so that import does not pull in the harness (which imports the
API and serve tiers).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.chaos.hooks": ("hooks",),
    "repro.chaos.injection": ("FaultInjector", "FaultPlan", "torn_write"),
    "repro.chaos.policies": ("RetryPolicy",),
    "repro.chaos.scenarios": ("SCENARIOS", "Scenario", "get_scenario"),
    "repro.chaos.harness": ("SurvivalReport", "run_scenario"),
})

__all__ = [
    "FaultInjector",
    "FaultPlan",
    "RetryPolicy",
    "SCENARIOS",
    "Scenario",
    "SurvivalReport",
    "get_scenario",
    "hooks",
    "run_scenario",
    "torn_write",
]
