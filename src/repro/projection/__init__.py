"""Datacenter-scale performance projection (paper Section 7.1)."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.projection.scaling": (
        "COMM_CATEGORIES", "ProjectionPoint", "dp_allreduce_seconds",
        "project_scaling", "scaling_gain",
    ),
    "repro.projection.validate": (
        "ValidationPoint", "scaled_cluster", "validate_projection",
        "worst_error",
    ),
})

__all__ = [
    "COMM_CATEGORIES",
    "ProjectionPoint",
    "dp_allreduce_seconds",
    "project_scaling",
    "scaling_gain",
    "ValidationPoint",
    "scaled_cluster",
    "validate_projection",
    "worst_error",
]
