"""Execution engine: task graphs and the DES simulator.

Pipeline schedules live in :mod:`repro.schedules`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.engine.builder": (
        "BACKWARD_MULTIPLIER", "DP_OVERLAP_BUCKETS", "GraphBuilder",
        "build_inference_graph", "build_training_graph", "split_layers",
    ),
    "repro.engine.kernels": (
        "KernelCategory", "KernelKind", "KernelRecord", "PressureProfile",
        "category_of", "compute_efficiency", "pressure_of",
    ),
    "repro.engine.simulator": (
        "DeadlockError", "SimOutcome", "SimSettings", "Simulator", "simulate",
    ),
    "repro.engine.task": (
        "CollectiveOp", "CollectiveSpec", "ComputeSpec", "P2PSpec", "Task",
        "TaskGraph", "TaskKind",
    ),
})

__all__ = [
    "BACKWARD_MULTIPLIER",
    "DP_OVERLAP_BUCKETS",
    "CollectiveOp",
    "CollectiveSpec",
    "ComputeSpec",
    "DeadlockError",
    "GraphBuilder",
    "KernelCategory",
    "KernelKind",
    "KernelRecord",
    "P2PSpec",
    "PressureProfile",
    "SimOutcome",
    "SimSettings",
    "Simulator",
    "Task",
    "TaskGraph",
    "TaskKind",
    "build_inference_graph",
    "build_training_graph",
    "category_of",
    "compute_efficiency",
    "pressure_of",
    "simulate",
    "split_layers",
]
