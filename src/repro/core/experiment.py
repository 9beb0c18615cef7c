"""Canonical experiment execution: one training or inference run.

:func:`execute_training` / :func:`execute_inference` are the single
place a simulation is actually assembled and run. The stable public
surface on top of them is :mod:`repro.api`::

    from repro.api import SimRequest, submit
    result = submit(SimRequest(
        model="gpt3-175b", cluster="h200x32", parallelism="TP2-PP16",
    ))
    print(result.efficiency().tokens_per_s)

Models, clusters, and strategies accept either catalog names or the
corresponding config objects. Global batch size defaults to the paper's
128 sequences; the first iteration is treated as warm-up and discarded
(the simulator additionally pre-warms the thermal state, standing in for
the paper's 10 discarded iterations).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.engine.builder import (
    INFERENCE_OPTIMIZATIONS,
    build_inference_graph,
    build_training_graph,
)
from repro.engine.simulator import SimOutcome, SimSettings, simulate
from repro.engine.task import TaskGraph
from repro.hardware.cluster import ClusterSpec, get_cluster
from repro.models.catalog import get_model
from repro.models.config import ModelConfig
from repro.parallelism.mapping import DeviceMesh
from repro.parallelism.strategy import (
    OptimizationConfig,
    ParallelismConfig,
    parse_strategy,
)
from repro.core.results import RunResult

DEFAULT_GLOBAL_BATCH = 128


def _resolve_model(model: ModelConfig | str) -> ModelConfig:
    return get_model(model) if isinstance(model, str) else model


def _resolve_cluster(cluster: ClusterSpec | str) -> ClusterSpec:
    return get_cluster(cluster) if isinstance(cluster, str) else cluster


def _resolve_strategy(
    parallelism: ParallelismConfig | str, cluster: ClusterSpec
) -> ParallelismConfig:
    if isinstance(parallelism, str):
        parallelism = parse_strategy(parallelism)
    if parallelism.world_size != cluster.total_gpus:
        parallelism = parallelism.fill_dp(cluster.total_gpus)
    return parallelism


@dataclass(frozen=True)
class PreparedRun:
    """A run resolved down to the task graph the simulator executes."""

    model: ModelConfig
    cluster: ClusterSpec
    strategy: ParallelismConfig
    opts: OptimizationConfig
    microbatch_size: int
    mesh: DeviceMesh
    graph: TaskGraph

    def result(
        self, outcome: SimOutcome, warmup_iterations: int
    ) -> RunResult:
        """The :class:`RunResult` of one simulation of this graph."""
        return RunResult(
            model=self.model,
            cluster=self.cluster,
            parallelism=self.strategy,
            optimizations=self.opts,
            microbatch_size=self.microbatch_size,
            warmup_iterations=warmup_iterations,
            outcome=outcome,
            placement=self.mesh.placement,
        )


def prepare_run(
    model: ModelConfig | str,
    cluster: ClusterSpec | str,
    parallelism: ParallelismConfig | str,
    inference: bool = False,
    optimizations: OptimizationConfig | None = None,
    microbatch_size: int = 1,
    global_batch_size: int = DEFAULT_GLOBAL_BATCH,
    iterations: int = 2,
    placement: list[int] | None = None,
    stage_layers: list[int] | None = None,
    pipeline_schedule: str | None = None,
    seq_splits: int | None = None,
) -> PreparedRun:
    """Resolve names, strategy and schedule, and build the task graph.

    The one place a run's graph is assembled: :func:`execute_training`,
    :func:`execute_inference` and the batched replay's anchor all go
    through it. Arguments are those of :func:`execute_training`;
    inference takes neither optimizations, a placement nor a stage
    split.
    """
    if inference and (optimizations or placement or stage_layers):
        raise ValueError(
            "inference takes no optimizations, placement or stage_layers"
        )
    model = _resolve_model(model)
    cluster = _resolve_cluster(cluster)
    strategy = _resolve_strategy(parallelism, cluster)
    if pipeline_schedule is not None:
        strategy = replace(strategy, pipeline_schedule=pipeline_schedule)
    mesh = DeviceMesh(
        cluster=cluster,
        config=strategy,
        placement=tuple(placement) if placement else (),
    )
    if inference:
        opts = INFERENCE_OPTIMIZATIONS
        graph = build_inference_graph(
            model=model,
            mesh=mesh,
            microbatch_size=microbatch_size,
            global_batch_size=global_batch_size,
            iterations=iterations,
            num_seq_splits=seq_splits,
        )
    else:
        opts = optimizations or OptimizationConfig()
        graph = build_training_graph(
            model=model,
            mesh=mesh,
            microbatch_size=microbatch_size,
            global_batch_size=global_batch_size,
            opts=opts,
            iterations=iterations,
            stage_layers=stage_layers,
            num_seq_splits=seq_splits,
        )
    return PreparedRun(
        model=model,
        cluster=cluster,
        strategy=strategy,
        opts=opts,
        microbatch_size=microbatch_size,
        mesh=mesh,
        graph=graph,
    )


def execute_training(
    model: ModelConfig | str,
    cluster: ClusterSpec | str,
    parallelism: ParallelismConfig | str,
    optimizations: OptimizationConfig | None = None,
    microbatch_size: int = 1,
    global_batch_size: int = DEFAULT_GLOBAL_BATCH,
    iterations: int = 2,
    warmup_iterations: int = 1,
    placement: list[int] | None = None,
    stage_layers: list[int] | None = None,
    settings: SimSettings | None = None,
    pipeline_schedule: str | None = None,
    seq_splits: int | None = None,
) -> RunResult:
    """Simulate a distributed training run and return its result.

    Args:
        model: catalog name or :class:`ModelConfig`.
        cluster: catalog name or :class:`ClusterSpec`.
        parallelism: paper-style strategy name (``"TP2-PP16"``) or config.
            Leftover GPUs take data parallelism automatically.
        optimizations: optimization toggles; defaults to the paper's Base.
        microbatch_size: sequences per microbatch.
        global_batch_size: sequences per optimizer step (paper: 128).
        iterations: simulated iterations (including warm-up).
        warmup_iterations: leading iterations excluded from metrics.
        placement: optional logical-rank -> physical-GPU permutation
            (thermal-aware scheduling).
        stage_layers: optional per-stage layer counts (asymmetric splits).
        settings: simulator fidelity knobs.
        pipeline_schedule: overrides the strategy's pipeline schedule
            (any name registered in :mod:`repro.schedules`).
        seq_splits: sequence splits per microbatch for schedules that
            support them (e.g. ``"seq1f1b"``); ``None`` uses the
            schedule's default.

    Returns:
        A :class:`RunResult` with throughput, energy, thermal, and trace
        metrics over the measured window.
    """
    run = prepare_run(
        model,
        cluster,
        parallelism,
        optimizations=optimizations,
        microbatch_size=microbatch_size,
        global_batch_size=global_batch_size,
        iterations=iterations,
        placement=placement,
        stage_layers=stage_layers,
        pipeline_schedule=pipeline_schedule,
        seq_splits=seq_splits,
    )
    return run.result(
        simulate(run.mesh, run.graph, settings), warmup_iterations
    )


def execute_inference(
    model: ModelConfig | str,
    cluster: ClusterSpec | str,
    parallelism: ParallelismConfig | str,
    microbatch_size: int = 1,
    global_batch_size: int = DEFAULT_GLOBAL_BATCH,
    iterations: int = 2,
    warmup_iterations: int = 1,
    settings: SimSettings | None = None,
    pipeline_schedule: str | None = None,
    seq_splits: int | None = None,
) -> RunResult:
    """Simulate a distributed (batch) inference run (Section 7.2).

    Forward passes only: fixed weights, no gradient synchronisation and
    no optimizer. The same telemetry and trace machinery applies.
    """
    run = prepare_run(
        model,
        cluster,
        parallelism,
        inference=True,
        microbatch_size=microbatch_size,
        global_batch_size=global_batch_size,
        iterations=iterations,
        pipeline_schedule=pipeline_schedule,
        seq_splits=seq_splits,
    )
    return run.result(
        simulate(run.mesh, run.graph, settings), warmup_iterations
    )
