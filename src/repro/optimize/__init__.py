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
  (:func:`run_optimize`), loaded lazily below since everything else
  here is importable without touching the engine's run machinery.
"""

from repro.optimize.objective import (
    OBJECTIVES,
    Objective,
    objective_names,
    parse_objective,
)
from repro.optimize.request import (
    OPTIMIZE_KINDS,
    CandidateOutcome,
    OptimizeRequest,
    OptimizeResult,
    PruneStats,
)
from repro.optimize.serving import (
    ServingSearchOutcome,
    ServingSearchSettings,
    ServingSetpointProbe,
    optimize_serving_setpoint,
)
from repro.optimize.setpoint import (
    SearchOutcome,
    SearchSettings,
    SetpointProbe,
    evaluate_setpoints,
    optimize_setpoint,
    settings_for_setpoint,
)
from repro.optimize.space import (
    AnalyticEstimate,
    PlanCandidate,
    PruneVerdict,
    analytic_plan_estimate,
    enumerate_candidates,
    prune_candidates,
)

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

_LAZY = ("run_optimize", "run_optimize_payload")


def __getattr__(name: str):
    # The search engine pulls in the run/cache machinery; loading it on
    # first use keeps `import repro.optimize` light and cycle-free for
    # consumers that only need the schema or the analytic space.
    if name in _LAZY:
        from repro.optimize import search

        return getattr(search, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )
