"""Execution engine: task graphs and the DES simulator.

Pipeline schedules live in :mod:`repro.schedules`.
"""

from repro.engine.builder import (
    BACKWARD_MULTIPLIER,
    DP_OVERLAP_BUCKETS,
    GraphBuilder,
    build_inference_graph,
    build_training_graph,
    split_layers,
)
from repro.engine.kernels import (
    KernelCategory,
    KernelKind,
    KernelRecord,
    PressureProfile,
    category_of,
    compute_efficiency,
    pressure_of,
)
from repro.engine.simulator import (
    DeadlockError,
    SimOutcome,
    SimSettings,
    Simulator,
    simulate,
)
from repro.engine.task import (
    CollectiveOp,
    CollectiveSpec,
    ComputeSpec,
    P2PSpec,
    Task,
    TaskGraph,
    TaskKind,
)

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
