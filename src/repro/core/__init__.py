"""Experiment orchestration: runs, results, sweeps.

:func:`execute_training` / :func:`execute_inference` / :func:`cached_run`
are the execution paths under :mod:`repro.api`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.core.artifact": (
        "read_run_summary", "run_summary", "write_run_artifact",
    ),
    "repro.core.campaign": (
        "CampaignResult", "ExperimentSpec", "paper_campaign", "run_campaign",
    ),
    "repro.core.experiment": (
        "DEFAULT_GLOBAL_BATCH", "execute_inference", "execute_training",
    ),
    "repro.core.faults": ("HEALTHY", "FaultSpec", "power_failure"),
    "repro.core.results": ("RunResult",),
    "repro.core.sweep": (
        "SweepPoint", "cached_run", "clear_cache", "normalize_by_best",
        "run_sweep",
    ),
})

__all__ = [
    "CampaignResult",
    "DEFAULT_GLOBAL_BATCH",
    "ExperimentSpec",
    "paper_campaign",
    "run_campaign",
    "HEALTHY",
    "FaultSpec",
    "power_failure",
    "read_run_summary",
    "run_summary",
    "write_run_artifact",
    "RunResult",
    "SweepPoint",
    "cached_run",
    "clear_cache",
    "execute_inference",
    "execute_training",
    "normalize_by_best",
    "run_sweep",
]
