"""CharLLM-PPT reproduction: power/performance/thermal characterization of
distributed LLM training (Go et al., MICRO 2025) on a simulated testbed.

The stable public API is :mod:`repro.api` — one typed request schema
covering training, inference, serving, and fleet simulation::

    from repro import SimRequest, submit, OptimizationConfig

    result = submit(SimRequest(
        model="gpt3-175b",
        cluster="h200x32",
        parallelism="TP2-PP16",
        optimizations=OptimizationConfig(activation_recompute=True),
        microbatch_size=1,
    ))
    print(result.efficiency().tokens_per_s)
    print(result.stats().peak_temp_c)
    print(result.kernel_breakdown().seconds)

The same requests drive the ``repro.serve`` broker (``python -m repro
serve``) over HTTP, and :class:`OptimizeRequest` asks the joint
auto-search (:mod:`repro.optimize`, docs/optimize.md) for the best
configuration instead of one configuration. See DESIGN.md for the
system inventory and EXPERIMENTS.md for the per-figure reproduction
index.

Every export here, and in each subpackage, loads its defining module on
first access (PEP 562, :mod:`repro._lazy`), so ``import repro`` costs
almost nothing and a request imports only the modules it runs.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.api": ("KINDS", "SimRequest", "submit", "submit_many"),
    "repro.optimize.request": ("OptimizeRequest", "OptimizeResult"),
    "repro.datacenter.arrivals": ("ArrivalConfig",),
    "repro.datacenter.fleet": (
        "FleetConfig", "FleetOutcome", "simulate_fleet",
    ),
    "repro.datacenter.metrics": ("FleetMetrics",),
    "repro.datacenter.placement": ("POLICIES",),
    "repro.datacenter.powercap": ("PowerCapConfig",),
    "repro.core.faults": ("FaultSpec", "power_failure"),
    "repro.core.results": ("RunResult",),
    "repro.core.sweep": ("SweepPoint", "normalize_by_best", "run_sweep"),
    "repro.hardware.cluster": (
        "H100_X64", "H200_X32", "MI250_X32", "ClusterSpec", "cluster_names",
        "get_cluster", "one_gpu_per_node",
    ),
    "repro.inferserve.config": ("ServingConfig",),
    "repro.inferserve.engine": ("execute_serving",),
    "repro.inferserve.outcome": ("ServingOutcome",),
    "repro.inferserve.traces": ("TraceConfig",),
    "repro.models.catalog": ("TABLE1_MODELS", "get_model", "model_names"),
    "repro.models.config": ("ModelConfig", "MoEConfig"),
    "repro.parallelism.enumerate": (
        "ConfigSearchSpace", "minimal_model_parallel", "valid_configs",
    ),
    "repro.parallelism.strategy": (
        "OptimizationConfig", "ParallelismConfig", "parse_strategy",
    ),
})

__version__ = "1.0.0"

__all__ = [
    "H100_X64",
    "H200_X32",
    "MI250_X32",
    "TABLE1_MODELS",
    "ArrivalConfig",
    "ClusterSpec",
    "ConfigSearchSpace",
    "FaultSpec",
    "FleetConfig",
    "FleetMetrics",
    "FleetOutcome",
    "KINDS",
    "POLICIES",
    "PowerCapConfig",
    "simulate_fleet",
    "power_failure",
    "ModelConfig",
    "MoEConfig",
    "OptimizationConfig",
    "OptimizeRequest",
    "OptimizeResult",
    "ParallelismConfig",
    "RunResult",
    "ServingConfig",
    "ServingOutcome",
    "SimRequest",
    "SweepPoint",
    "TraceConfig",
    "cluster_names",
    "execute_serving",
    "get_cluster",
    "get_model",
    "minimal_model_parallel",
    "model_names",
    "normalize_by_best",
    "one_gpu_per_node",
    "parse_strategy",
    "run_sweep",
    "submit",
    "submit_many",
    "valid_configs",
    "__version__",
]
