"""`repro.optimize`: joint configuration auto-search.

One subsystem answers "what is the best way to run this workload":
parallelism plan × microbatch × pipeline schedule × DVFS setpoint for
training (× replica count for serving), minimising a configurable
``energy·delayⁿ`` objective under MaxSlowdown, memory-fit, and
facility-power constraints. See docs/optimize.md.

Layering:

* :mod:`~repro.optimize.objective` — the objective grammar;
* :mod:`~repro.optimize.space` — grid enumeration, analytic pruning,
  roofline ranking (no simulation);
* :mod:`~repro.optimize.setpoint` / :mod:`~repro.optimize.serving` —
  per-plan golden-section setpoint refinement;
* :mod:`~repro.optimize.request` — the frozen
  :class:`OptimizeRequest` / :class:`OptimizeResult` envelope
  (re-exported by :mod:`repro.api`);
* :mod:`~repro.optimize.search` — the optimizer itself
  (:func:`run_optimize`), which pulls in the engine's run machinery.

Like every facade in the package, each name loads its module on first
access (:mod:`repro._lazy`).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.optimize.objective": (
        "OBJECTIVES", "Objective", "objective_names", "parse_objective",
    ),
    "repro.optimize.request": (
        "OPTIMIZE_KINDS", "CandidateOutcome", "OptimizeRequest",
        "OptimizeResult", "PruneStats",
    ),
    "repro.optimize.serving": (
        "ServingSearchOutcome", "ServingSearchSettings",
        "ServingSetpointProbe", "optimize_serving_setpoint",
    ),
    "repro.optimize.setpoint": (
        "SearchOutcome", "SearchSettings", "SetpointProbe",
        "evaluate_setpoints", "optimize_setpoint", "settings_for_setpoint",
    ),
    "repro.optimize.space": (
        "AnalyticEstimate", "PlanCandidate", "PruneVerdict",
        "analytic_plan_estimate", "enumerate_candidates", "prune_candidates",
    ),
    "repro.optimize.search": ("run_optimize", "run_optimize_payload"),
})

__all__ = [
    "OBJECTIVES",
    "OPTIMIZE_KINDS",
    "AnalyticEstimate",
    "CandidateOutcome",
    "Objective",
    "OptimizeRequest",
    "OptimizeResult",
    "PlanCandidate",
    "PruneStats",
    "PruneVerdict",
    "SearchOutcome",
    "SearchSettings",
    "ServingSearchOutcome",
    "ServingSearchSettings",
    "ServingSetpointProbe",
    "SetpointProbe",
    "analytic_plan_estimate",
    "enumerate_candidates",
    "evaluate_setpoints",
    "objective_names",
    "optimize_serving_setpoint",
    "optimize_setpoint",
    "parse_objective",
    "prune_candidates",
    "run_optimize",
    "run_optimize_payload",
    "settings_for_setpoint",
]
