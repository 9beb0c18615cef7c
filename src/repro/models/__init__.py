"""Workload (LLM architecture) models: configs, catalog, FLOPs, memory."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.models.catalog": (
        "GPT3_13B", "GPT3_30B", "GPT3_175B", "LLAMA3_30B", "LLAMA3_70B",
        "MIXTRAL_4X7B", "MIXTRAL_8X7B", "MIXTRAL_8X22B", "TABLE1_MODELS",
        "get_model", "model_names",
    ),
    "repro.models.config": ("ModelConfig", "MoEConfig"),
    "repro.models.flops": (
        "LayerFlops", "layer_flops", "model_forward_flops", "model_step_flops",
        "stage_forward_flops",
    ),
    "repro.models.memory": (
        "MemoryBreakdown", "activation_bytes", "fits_in_memory",
        "memory_breakdown", "shard_params",
    ),
})

__all__ = [
    "GPT3_13B",
    "GPT3_30B",
    "GPT3_175B",
    "LLAMA3_30B",
    "LLAMA3_70B",
    "MIXTRAL_4X7B",
    "MIXTRAL_8X7B",
    "MIXTRAL_8X22B",
    "TABLE1_MODELS",
    "LayerFlops",
    "MemoryBreakdown",
    "ModelConfig",
    "MoEConfig",
    "activation_bytes",
    "fits_in_memory",
    "get_model",
    "layer_flops",
    "memory_breakdown",
    "model_forward_flops",
    "model_names",
    "model_step_flops",
    "shard_params",
    "stage_forward_flops",
]
