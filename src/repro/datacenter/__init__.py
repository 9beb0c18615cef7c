"""Fleet-scale multi-job simulation with thermal/power-aware placement.

The layer above a single run: a pool of clusters, stochastic job
arrivals, placement policies (``packed`` / ``spread`` /
``thermal-aware``), a facility power-cap admission controller, and node
faults with checkpoint/restart recovery. See ``docs/datacenter.md``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.datacenter.arrivals": (
        "DEFAULT_TEMPLATES", "ArrivalConfig", "JobArrival", "JobTemplate",
        "generate_arrivals",
    ),
    "repro.datacenter.fleet": (
        "FleetConfig", "FleetFault", "FleetOutcome", "FleetSim",
        "simulate_fleet",
    ),
    "repro.datacenter.jobs": (
        "JobKind", "JobProfile", "JobRecord", "JobSpec", "JobState",
        "PlacementInterval", "clear_profile_cache", "preprofile_jobs",
        "profile_job", "sub_cluster",
    ),
    "repro.datacenter.metrics": (
        "FleetMetrics", "FleetSample", "fleet_metrics", "format_fleet_summary",
    ),
    "repro.datacenter.placement": (
        "POLICIES", "NodeState", "Placement", "select_nodes", "thermal_derate",
    ),
    "repro.datacenter.powercap": (
        "CAP_MODES", "Admission", "AdmissionController", "PowerCapConfig",
    ),
})

__all__ = [
    "Admission",
    "AdmissionController",
    "ArrivalConfig",
    "CAP_MODES",
    "DEFAULT_TEMPLATES",
    "FleetConfig",
    "FleetFault",
    "FleetMetrics",
    "FleetOutcome",
    "FleetSample",
    "FleetSim",
    "JobArrival",
    "JobKind",
    "JobProfile",
    "JobRecord",
    "JobSpec",
    "JobState",
    "JobTemplate",
    "NodeState",
    "POLICIES",
    "Placement",
    "PlacementInterval",
    "PowerCapConfig",
    "clear_profile_cache",
    "fleet_metrics",
    "format_fleet_summary",
    "generate_arrivals",
    "preprofile_jobs",
    "profile_job",
    "select_nodes",
    "simulate_fleet",
    "sub_cluster",
    "thermal_derate",
]
