"""Inference: serving as a first-class workload, and the Section 7.2
characterization (the prefill/decode latency model and the Figure 23
inference sweep).

Continuous batching with KV-cache pressure, prefill/decode
disaggregation, diurnal request traces, SLO goodput, reactive
autoscaling, and energy-per-token under DVFS — the serving-side
counterpart of the training simulator, sharing the same hardware,
power, and thermal models. See docs/inferserve.md.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.inferserve.autoscale": ("Autoscaler", "ScaleEvent"),
    "repro.inferserve.batcher": (
        "serving_capacity_replicas", "simulate_serving_deployment",
    ),
    "repro.inferserve.config": (
        "SCHEDULERS", "AutoscaleConfig", "BatcherConfig", "ServingConfig",
        "SloConfig",
    ),
    "repro.inferserve.engine": (
        "InferencePoint", "execute_serving", "sweep_inference",
    ),
    "repro.inferserve.latency": (
        "InferenceLatency", "decode_bound_batch_size",
        "decode_seconds_per_token", "prefill_seconds", "request_latency",
    ),
    "repro.inferserve.outcome": (
        "EnergyReport", "ReplicaStats", "RequestRecord", "ServingMetrics",
        "ServingOutcome", "ServingSample",
    ),
    "repro.inferserve.slo": (
        "LatencyStats", "SloReport", "build_slo_report", "percentile",
    ),
    "repro.inferserve.static_router": (
        "ROUTERS", "RouterOutcome", "StaticRouterConfig", "compare_routers",
        "simulate_static_routing",
    ),
    "repro.inferserve.traces": (
        "TRACE_KINDS", "Request", "RequestTrace", "TraceConfig",
        "generate_trace", "rate_from_daily_users",
    ),
    "repro.optimize.serving": (
        "ServingSearchOutcome", "ServingSearchSettings",
        "ServingSetpointProbe",
    ),
})

__all__ = [
    "ROUTERS",
    "SCHEDULERS",
    "TRACE_KINDS",
    "Autoscaler",
    "AutoscaleConfig",
    "BatcherConfig",
    "EnergyReport",
    "InferenceLatency",
    "InferencePoint",
    "LatencyStats",
    "ReplicaStats",
    "Request",
    "RequestRecord",
    "RequestTrace",
    "RouterOutcome",
    "ScaleEvent",
    "ServingConfig",
    "ServingMetrics",
    "ServingOutcome",
    "ServingSample",
    "ServingSearchOutcome",
    "ServingSearchSettings",
    "ServingSetpointProbe",
    "SloConfig",
    "SloReport",
    "StaticRouterConfig",
    "TraceConfig",
    "build_slo_report",
    "compare_routers",
    "decode_bound_batch_size",
    "decode_seconds_per_token",
    "execute_serving",
    "generate_trace",
    "percentile",
    "prefill_seconds",
    "rate_from_daily_users",
    "request_latency",
    "serving_capacity_replicas",
    "simulate_serving_deployment",
    "simulate_static_routing",
    "sweep_inference",
]
