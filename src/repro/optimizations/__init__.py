"""Training-time optimization models: recomputation, overlap, LoRA."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.optimizations.lora": (
        "lora_fraction", "lora_params", "lora_params_per_layer",
    ),
    "repro.optimizations.overlap": (
        "OVERLAP_COMM_SLOWDOWN", "OVERLAP_COMPUTE_SLOWDOWN", "OverlapEstimate",
        "fused_duration", "overlap_estimate",
    ),
    "repro.optimizations.recompute": (
        "RecomputeTradeoff", "enables_configuration", "recompute_tradeoff",
    ),
})

__all__ = [
    "OVERLAP_COMM_SLOWDOWN",
    "OVERLAP_COMPUTE_SLOWDOWN",
    "OverlapEstimate",
    "RecomputeTradeoff",
    "enables_configuration",
    "fused_duration",
    "lora_fraction",
    "lora_params",
    "lora_params_per_layer",
    "overlap_estimate",
    "recompute_tradeoff",
]
