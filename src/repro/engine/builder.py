"""Lowering a training configuration to a per-rank task graph.

The builder walks the pipeline schedule of every (data-parallel replica,
pipeline stage) slice and emits, for each rank, the ordered kernels one
NeMo/Megatron iteration executes:

* forward/backward compute per microbatch per (virtual) stage, scaled by
  tensor parallelism and microbatch-size GEMM efficiency. Expert-parallel
  ranks behave data-parallel for attention (each processes its own batch
  shard) while the MoE MLP work per rank stays constant (each rank hosts
  ``experts/ep`` experts but receives tokens from all EP peers);
* per-stage tensor-parallel AllReduces (two per layer per direction);
* expert-parallel AllToAlls for MoE layers (dispatch + combine, both
  directions);
* pipeline-parallel activation/gradient SendRecv across stage boundaries
  (unchunked concurrent small flows when TP > 1 — the paper's TP+PP
  communication pathology);
* FSDP parameter AllGather / gradient ReduceScatter per microbatch;
* end-of-iteration gradient synchronisation: dense parameters reduce
  across the full DP group (plain AllReduce, or ReduceScatter +
  AllGather under the ZeRO-1 distributed optimizer), expert parameters
  across the outer DP replicas only; then the memory-bound optimizer
  step.

Optimizations restructure the graph: activation recomputation inserts
forward-replay kernels into every backward; compute-communication overlap
fuses collectives with the compute they hide behind (both slowed by
resource contention); LoRA shrinks gradient/optimizer traffic to the
adapter parameters and cheapens the backward pass.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.comm.collectives import allreduce
from repro.engine.kernels import KernelKind, stage_gemm_efficiency
from repro.engine.task import (
    CollectiveOp,
    CollectiveSpec,
    ComputeSpec,
    P2PSpec,
    Task,
    TaskGraph,
    TaskKind,
)
from repro.models.config import ModelConfig
from repro.models.flops import layer_flops
from repro.models.memory import shard_params_split
from repro.optimizations.lora import lora_params
from repro.parallelism.mapping import DeviceMesh, RankCoords, rank_of
from repro.parallelism.strategy import OptimizationConfig
from repro.power.model import Activity
from repro.schedules import NodeType, create_schedule

# Gradient-bucket count for overlapped data-parallel synchronisation.
DP_OVERLAP_BUCKETS = 4
# Backward FLOPs as a multiple of forward: full training computes both
# input and weight gradients; LoRA skips weight gradients of frozen layers.
BACKWARD_MULTIPLIER = 2.0
LORA_BACKWARD_MULTIPLIER = 1.4
# Optimizer bytes touched per parameter (read fp32 master + moments,
# write them back, read/write fp16 copies).
OPTIMIZER_BYTES_TOUCHED = 32.0

OPTIMIZER_ACTIVITY = Activity(memory=1.0)


def split_layers(num_layers: int, num_stages: int) -> list[int]:
    """Even layer split across stages, remainder to the early stages."""
    if num_stages < 1:
        raise ValueError("num_stages must be >= 1")
    if num_layers < num_stages:
        raise ValueError("fewer layers than pipeline stages")
    base, extra = divmod(num_layers, num_stages)
    return [base + (1 if s < extra else 0) for s in range(num_stages)]


@dataclass(frozen=True)
class WorkloadShape:
    """Batch geometry of one run."""

    microbatch_size: int
    global_batch_size: int
    num_microbatches: int


class GraphBuilder:
    """Builds the task graph for one training (or inference) run."""

    def __init__(
        self,
        model: ModelConfig,
        mesh: DeviceMesh,
        microbatch_size: int,
        global_batch_size: int,
        opts: OptimizationConfig,
        iterations: int = 2,
        stage_layers: list[int] | None = None,
        num_chunks: int = 2,
        num_seq_splits: int | None = None,
        inference: bool = False,
    ) -> None:
        cfg = mesh.config
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        if microbatch_size < 1:
            raise ValueError("microbatch_size must be >= 1")
        per_replica = global_batch_size // cfg.dp
        if per_replica * cfg.dp != global_batch_size:
            raise ValueError("global batch must divide evenly across DP")
        num_microbatches, rem = divmod(per_replica, microbatch_size)
        if rem or num_microbatches < 1:
            raise ValueError(
                f"global batch {global_batch_size} with dp={cfg.dp} does "
                f"not divide into microbatches of {microbatch_size}"
            )
        if model.moe and cfg.ep > model.moe.num_experts:
            raise ValueError("ep exceeds the model's expert count")
        if cfg.ep > 1 and model.moe is None:
            raise ValueError("expert parallelism needs an MoE model")

        self.model = model
        self.mesh = mesh
        self.cfg = cfg
        self.opts = opts
        self.iterations = iterations
        self.inference = inference
        self.shape = WorkloadShape(
            microbatch_size, global_batch_size, num_microbatches
        )
        self.stage_layers = stage_layers or split_layers(
            model.num_layers, cfg.pp
        )
        if len(self.stage_layers) != cfg.pp:
            raise ValueError("stage_layers must have one entry per stage")
        if sum(self.stage_layers) != model.num_layers:
            raise ValueError("stage_layers must sum to num_layers")
        # Interleaving is a no-op on a single stage.
        schedule_name = cfg.pipeline_schedule
        if schedule_name == "interleaved" and cfg.pp <= 1:
            schedule_name = "1f1b"
        self.num_chunks = num_chunks if schedule_name == "interleaved" else 1
        self.schedule = create_schedule(
            schedule_name,
            cfg.pp,
            num_microbatches,
            num_chunks=self.num_chunks,
            num_seq_splits=num_seq_splits,
        )
        self.num_seq_splits = self.schedule.num_seq_splits

        self._uid = itertools.count()
        self._msg_uid = itertools.count()
        self._msg_ids: dict[tuple, int] = {}
        self._shared: dict[tuple, Task] = {}
        self.queues: list[list[Task]] = [[] for _ in range(cfg.world_size)]

        gpu = mesh.cluster.node.gpu
        self._hbm_bw = gpu.hbm_bandwidth_bytes_per_s

        # Sequence-split schedules pipeline fractional-sequence chunks:
        # every per-unit quantity (FLOPs, GEMM efficiency, activation
        # payloads) scales to the chunk, while tokens per iteration —
        # and hence throughput accounting — is unchanged.
        tokens = microbatch_size * model.seq_length
        if self.num_seq_splits > 1:
            if tokens % self.num_seq_splits:
                raise ValueError(
                    f"microbatch of {tokens} tokens does not divide "
                    f"into {self.num_seq_splits} sequence splits"
                )
            tokens //= self.num_seq_splits
        self._tokens = tokens
        self._gemm_eff = stage_gemm_efficiency(
            model, tokens, cfg.tp,
            half_point_tokens=gpu.gemm_half_point_tokens,
        )
        # Board power tracks tensor-core intensity: a starved GEMM draws
        # less power, a well-fed one approaches TDP — the paper's
        # "larger microbatches raise peak power" mechanism (Section 5).
        self._compute_activity = Activity(
            compute=self._gemm_eff, memory=0.3
        )
        # Fused compute+comm kernels additionally keep the copy/NCCL
        # machinery busy (CC-overlap raises power, Section 4.3).
        self._overlap_activity = Activity(
            compute=self._gemm_eff, comm=0.5, memory=0.3
        )
        self._ar_duration_cache: dict[tuple[int, ...], float] = {}
        # Rank-mapping memos: the grid is tiny compared with the number
        # of emitted tasks, so (t, e, dpo, stage) -> rank lookups repeat
        # thousands of times per build.
        self._rank_cache: dict[tuple[int, int, int, int], int] = {}
        self._tp_ranks_cache: dict[tuple[int, int, int], tuple[int, ...]] = {}
        self._per_layer_fwd_flops = layer_flops(model, tokens).forward
        self._lm_head_flops = (
            2.0 * tokens * model.hidden_size * model.vocab_size
        )
        dense_shard, expert_shard = shard_params_split(
            model,
            tp=cfg.tp,
            pp=cfg.pp,
            ep=cfg.ep,
            fsdp=cfg.dp if cfg.use_fsdp else 1,
        )
        self._dense_shard = dense_shard
        self._expert_shard = expert_shard
        if opts.lora:
            self._dense_shard = lora_params(model, opts.lora_rank) / (
                cfg.tp * cfg.pp
            )
            self._expert_shard = 0.0
        self._trainable_params = self._dense_shard + self._expert_shard

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------

    def build(self) -> TaskGraph:
        """Emit the full multi-iteration task graph."""
        cfg = self.cfg
        for iteration in range(self.iterations):
            for dpo in range(cfg.dp_outer):
                for e in range(cfg.ep):
                    for stage in range(cfg.pp):
                        self._emit_slice(iteration, dpo, e, stage)
        tokens_per_iteration = (
            self.shape.global_batch_size * self.model.seq_length
        )
        return TaskGraph(
            queues=self.queues,
            num_iterations=self.iterations,
            tokens_per_iteration=tokens_per_iteration,
        )

    # ------------------------------------------------------------------
    # Slice emission
    # ------------------------------------------------------------------

    def _slice_ranks(
        self, dpo: int, e: int, stage: int
    ) -> list[tuple[int, int]]:
        """(tp_idx, rank) pairs of one (replica, stage) slice."""
        return [
            (t, self._rank(t, e, dpo, stage)) for t in range(self.cfg.tp)
        ]

    def _emit_slice(
        self, iteration: int, dpo: int, e: int, stage: int
    ) -> None:
        nodes = self.schedule.rank_ops(stage)
        if self.inference:
            nodes = tuple(
                n for n in nodes if n.type is NodeType.FORWARD
            )
        # The node type that carries DP gradient buckets under CC
        # overlap: the weight-grad half where the schedule splits the
        # backward (weight grads are what DP reduces), else the full
        # backward.
        grad_type = (
            NodeType.WEIGHT if self.schedule.splits_weight_grad
            else NodeType.BACKWARD
        )
        total_grads = sum(1 for n in nodes if n.type is grad_type)
        grad_index = 0
        for node in nodes:
            if node.type is NodeType.FORWARD:
                self._emit_forward(
                    iteration, dpo, e, stage, node.microbatch, node.chunk,
                    node.seq_split,
                )
            elif node.type is NodeType.BACKWARD:
                carries_grad = grad_type is NodeType.BACKWARD
                self._emit_backward(
                    iteration,
                    dpo,
                    e,
                    stage,
                    node.microbatch,
                    node.chunk,
                    node.seq_split,
                    grad_index if carries_grad else -1,
                    total_grads,
                )
                if carries_grad:
                    grad_index += 1
            else:
                self._emit_weight_grad(
                    iteration, dpo, e, stage, node.microbatch, node.chunk,
                    node.seq_split, grad_index, total_grads,
                )
                grad_index += 1
        if not self.inference:
            self._emit_iteration_tail(iteration, dpo, e, stage)

    def _stage_forward_flops(self, stage: int, vs: int) -> float:
        """Per-TP-rank forward FLOPs of one virtual stage."""
        layers = self.stage_layers[stage] / self.num_chunks
        flops = layers * self._per_layer_fwd_flops
        if vs == self.num_chunks * self.cfg.pp - 1:
            flops += self._lm_head_flops
        return flops / self.cfg.tp

    # -- forward -------------------------------------------------------

    def _emit_forward(
        self,
        iteration: int,
        dpo: int,
        e: int,
        stage: int,
        mb: int,
        chunk: int,
        sq: int = 0,
    ) -> None:
        cfg = self.cfg
        vs = chunk * cfg.pp + stage
        total_vs = self.num_chunks * cfg.pp
        layers = self.stage_layers[stage] / self.num_chunks
        compute_spec = ComputeSpec(
            flops=self._stage_forward_flops(stage, vs),
            efficiency=self._gemm_eff,
            activity=self._compute_activity,
        )

        fuse_tp = self.opts.cc_overlap and cfg.tp > 1 and not self.inference
        tail_ops = None
        if fuse_tp:
            tp_ranks = self._tp_ranks(dpo, e, stage)
            hidden_s, tail_ops = self._tp_overlap_split(tp_ranks, layers)
            compute_spec = ComputeSpec(
                flops=compute_spec.flops,
                efficiency=compute_spec.efficiency,
                activity=self._overlap_activity,
                overlapped_comm_s=hidden_s,
            )

        for t, rank in self._slice_ranks(dpo, e, stage):
            if vs > 0:
                self._emit_recv(rank, iteration, "F", mb, vs, t, e, dpo,
                                stage, sq)
            if cfg.use_fsdp:
                self._emit_fsdp_allgather(
                    iteration, stage, mb, t, rank, phase="F", sq=sq
                )
            self._append_compute(
                rank, KernelKind.FWD_GEMM, compute_spec, iteration, mb,
                stage,
            )
            if self.model.moe and cfg.ep > 1:
                self._emit_alltoall(
                    iteration, dpo, stage, mb, chunk, "F", t, rank, layers,
                    sq,
                )
            if cfg.tp > 1:
                self._emit_tp_allreduce(
                    iteration, dpo, e, stage, mb, chunk, "F", rank, layers,
                    repeat=tail_ops, sq=sq,
                )
            if vs < total_vs - 1:
                self._emit_send(rank, iteration, "F", mb, vs, t, e, dpo,
                                stage, sq)

    # -- backward ------------------------------------------------------

    def _emit_backward(
        self,
        iteration: int,
        dpo: int,
        e: int,
        stage: int,
        mb: int,
        chunk: int,
        sq: int,
        backward_index: int,
        total_backwards: int,
    ) -> None:
        cfg = self.cfg
        vs = chunk * cfg.pp + stage
        total_vs = self.num_chunks * cfg.pp
        layers = self.stage_layers[stage] / self.num_chunks
        fwd_flops = self._stage_forward_flops(stage, vs)
        multiplier = (
            LORA_BACKWARD_MULTIPLIER if self.opts.lora
            else BACKWARD_MULTIPLIER
        )
        if self.schedule.splits_weight_grad:
            # Split backward: this node computes input grads only (the
            # cross-stage critical path); the weight-grad remainder is
            # a separate W node.
            multiplier = min(1.0, multiplier)
        bwd_spec = ComputeSpec(
            flops=multiplier * fwd_flops,
            efficiency=self._gemm_eff,
            activity=self._compute_activity,
        )

        # Does this backward carry an overlapped DP gradient bucket?
        # (Never when the schedule splits the backward: the weight-grad
        # W nodes carry the buckets then, signalled by index -1.)
        dp_bucket = -1
        if (
            backward_index >= 0
            and self.opts.cc_overlap
            and cfg.dp > 1
            and cfg.ep == 1
            and not cfg.use_fsdp
            and backward_index >= total_backwards - DP_OVERLAP_BUCKETS
        ):
            dp_bucket = backward_index - (total_backwards - DP_OVERLAP_BUCKETS)

        fuse_tp = (
            self.opts.cc_overlap and cfg.tp > 1 and not self.inference
        )
        tail_ops = None
        if fuse_tp:
            tp_ranks = self._tp_ranks(dpo, e, stage)
            hidden_s, tail_ops = self._tp_overlap_split(tp_ranks, layers)
            bwd_spec = ComputeSpec(
                flops=bwd_spec.flops,
                efficiency=bwd_spec.efficiency,
                activity=self._overlap_activity,
                overlapped_comm_s=hidden_s,
            )

        for t, rank in self._slice_ranks(dpo, e, stage):
            if vs < total_vs - 1:
                self._emit_recv(rank, iteration, "B", mb, vs, t, e, dpo,
                                stage, sq)
            if cfg.use_fsdp:
                self._emit_fsdp_allgather(
                    iteration, stage, mb, t, rank, phase="B", sq=sq
                )
            if self.opts.activation_recompute:
                self._append_compute(
                    rank,
                    KernelKind.RECOMPUTE_GEMM,
                    ComputeSpec(
                        flops=fwd_flops,
                        efficiency=self._gemm_eff,
                        activity=self._compute_activity,
                    ),
                    iteration,
                    mb,
                    stage,
                )
            if dp_bucket >= 0:
                # Backward compute hides a DP gradient bucket.
                self._emit_dp_bucket(
                    iteration, stage, t, rank, dp_bucket, bwd_spec
                )
            else:
                self._append_compute(
                    rank, KernelKind.BWD_GEMM, bwd_spec, iteration, mb, stage
                )
            if self.model.moe and cfg.ep > 1:
                self._emit_alltoall(
                    iteration, dpo, stage, mb, chunk, "B", t, rank, layers,
                    sq,
                )
            if cfg.tp > 1:
                self._emit_tp_allreduce(
                    iteration, dpo, e, stage, mb, chunk, "B", rank, layers,
                    repeat=tail_ops, sq=sq,
                )
            if vs > 0:
                self._emit_send(rank, iteration, "B", mb, vs, t, e, dpo,
                                stage, sq)

    # -- weight grad (zero-bubble split backward) ------------------------

    def _emit_weight_grad(
        self,
        iteration: int,
        dpo: int,
        e: int,
        stage: int,
        mb: int,
        chunk: int,
        sq: int,
        grad_index: int,
        total_grads: int,
    ) -> None:
        """The deferred weight-grad half of a split backward.

        Pure local compute: weight gradients have no cross-stage
        consumers (no recv/send) and no activation partial sums to
        reduce (no TP AllReduce) — which is exactly why zero-bubble
        schedules can slide this work into pipeline bubbles. Under CC
        overlap the W nodes carry the tail DP gradient buckets, since
        weight grads are what data parallelism synchronises.
        """
        cfg = self.cfg
        vs = chunk * cfg.pp + stage
        fwd_flops = self._stage_forward_flops(stage, vs)
        multiplier = (
            LORA_BACKWARD_MULTIPLIER if self.opts.lora
            else BACKWARD_MULTIPLIER
        )
        w_spec = ComputeSpec(
            flops=(multiplier - min(1.0, multiplier)) * fwd_flops,
            efficiency=self._gemm_eff,
            activity=self._compute_activity,
        )
        dp_bucket = -1
        if (
            self.opts.cc_overlap
            and cfg.dp > 1
            and cfg.ep == 1
            and not cfg.use_fsdp
            and grad_index >= total_grads - DP_OVERLAP_BUCKETS
        ):
            dp_bucket = grad_index - (total_grads - DP_OVERLAP_BUCKETS)
        for t, rank in self._slice_ranks(dpo, e, stage):
            if dp_bucket >= 0:
                self._emit_dp_bucket(
                    iteration, stage, t, rank, dp_bucket, w_spec,
                    kernel=KernelKind.WGRAD_GEMM,
                )
            else:
                self._append_compute(
                    rank, KernelKind.WGRAD_GEMM, w_spec, iteration, mb,
                    stage,
                )

    # -- iteration tail (gradient sync + optimizer) ---------------------

    def _dense_dp_ranks(self, t: int, stage: int) -> tuple[int, ...]:
        """Full DP group (dense/attention gradients): all (ep, dp_outer)."""
        cfg = self.cfg
        return tuple(
            rank_of(RankCoords(t, e, d, stage), cfg)
            for d in range(cfg.dp_outer)
            for e in range(cfg.ep)
        )

    def _expert_dp_ranks(self, t: int, e: int, stage: int) -> tuple[int, ...]:
        """Outer-DP group (expert gradients): fixed ep, varying dp_outer."""
        cfg = self.cfg
        return tuple(
            rank_of(RankCoords(t, e, d, stage), cfg)
            for d in range(cfg.dp_outer)
        )

    def _emit_iteration_tail(
        self, iteration: int, dpo: int, e: int, stage: int
    ) -> None:
        cfg = self.cfg
        zero1 = self._zero1()
        for t, rank in self._slice_ranks(dpo, e, stage):
            if cfg.use_fsdp:
                # Gradients accumulate locally across microbatches
                # (no_sync) and reduce-scatter once per iteration.
                self._emit_fsdp_reduce_scatter(iteration, stage, t, rank)
            if cfg.dp > 1 and not cfg.use_fsdp and not self.opts.cc_overlap:
                dense_bytes = self._dense_shard * self.model.bytes_per_param
                op = (
                    CollectiveOp.REDUCE_SCATTER if zero1
                    else CollectiveOp.ALLREDUCE
                )
                kind = (
                    KernelKind.GRAD_REDUCE_SCATTER if zero1
                    else KernelKind.DP_ALLREDUCE
                )
                self._append_shared_collective(
                    key=(iteration, "dp_sync", stage, t),
                    rank=rank,
                    op=op,
                    kernel=kind,
                    ranks=self._dense_dp_ranks(t, stage),
                    payload_bytes=dense_bytes,
                    iteration=iteration,
                    stage=stage,
                )
            if (
                self._expert_shard > 0
                and cfg.dp_outer > 1
                and not cfg.use_fsdp
            ):
                self._append_shared_collective(
                    key=(iteration, "dp_expert_sync", stage, t, e),
                    rank=rank,
                    op=CollectiveOp.ALLREDUCE,
                    kernel=KernelKind.DP_ALLREDUCE,
                    ranks=self._expert_dp_ranks(t, e, stage),
                    payload_bytes=self._expert_shard
                    * self.model.bytes_per_param,
                    iteration=iteration,
                    stage=stage,
                )
            self._append_compute(
                rank,
                KernelKind.OPTIMIZER_STEP,
                self._optimizer_spec(),
                iteration,
                -1,
                stage,
            )
            if cfg.dp > 1 and not cfg.use_fsdp and zero1:
                self._append_shared_collective(
                    key=(iteration, "dp_param_ag", stage, t),
                    rank=rank,
                    op=CollectiveOp.ALLGATHER,
                    kernel=KernelKind.PARAM_ALLGATHER,
                    ranks=self._dense_dp_ranks(t, stage),
                    payload_bytes=self._dense_shard
                    * self.model.bytes_per_param,
                    iteration=iteration,
                    stage=stage,
                )

    def _zero1(self) -> bool:
        """Whether the ZeRO-1 distributed optimizer applies.

        The paper enables it for all dense models; MoE models use the
        standard optimizer (NeMo/Megatron limitation), and FSDP shards
        optimizer state by construction.
        """
        return (
            self.opts.distributed_optimizer
            and not self.model.is_moe
            and not self.cfg.use_fsdp
        )

    def _optimizer_spec(self) -> ComputeSpec:
        zero_shard = self.cfg.dp if self._zero1() else 1
        touched = (
            self._trainable_params * OPTIMIZER_BYTES_TOUCHED / zero_shard
        )
        return ComputeSpec(
            flops=0.0,
            activity=OPTIMIZER_ACTIVITY,
            fixed_duration_s=max(20e-6, touched / self._hbm_bw),
        )

    # -- helpers: individual task kinds ----------------------------------

    def _append_compute(
        self,
        rank: int,
        kernel: KernelKind,
        spec: ComputeSpec,
        iteration: int,
        mb: int,
        stage: int,
    ) -> None:
        self.queues[rank].append(
            Task(
                uid=next(self._uid),
                kind=TaskKind.COMPUTE,
                kernel=kernel,
                ranks=(rank,),
                compute=spec,
                iteration=iteration,
                microbatch=mb,
                stage=stage,
            )
        )

    def _append_shared_collective(
        self,
        key: tuple,
        rank: int,
        op: CollectiveOp,
        kernel: KernelKind,
        ranks: tuple[int, ...],
        payload_bytes: float,
        iteration: int,
        stage: int,
        repeat: int = 1,
        mb: int = -1,
        overlap: ComputeSpec | None = None,
        overlap_kernel: KernelKind | None = None,
    ) -> None:
        task = self._shared.get(key)
        if task is None:
            task = Task(
                uid=next(self._uid),
                kind=TaskKind.COLLECTIVE,
                kernel=kernel,
                ranks=ranks,
                collective=CollectiveSpec(
                    op=op,
                    ranks=ranks,
                    payload_bytes=payload_bytes,
                    repeat=repeat,
                ),
                iteration=iteration,
                microbatch=mb,
                stage=stage,
                overlap_compute=overlap,
                overlap_kernel=overlap_kernel,
            )
            self._shared[key] = task
        self.queues[rank].append(task)

    def _rank(self, t: int, e: int, dpo: int, stage: int) -> int:
        """Memoised :func:`rank_of` for a grid position."""
        key = (t, e, dpo, stage)
        rank = self._rank_cache.get(key)
        if rank is None:
            rank = rank_of(RankCoords(t, e, dpo, stage), self.cfg)
            self._rank_cache[key] = rank
        return rank

    def _tp_ranks(self, dpo: int, e: int, stage: int) -> tuple[int, ...]:
        key = (dpo, e, stage)
        ranks = self._tp_ranks_cache.get(key)
        if ranks is None:
            ranks = tuple(
                self._rank(ti, e, dpo, stage) for ti in range(self.cfg.tp)
            )
            self._tp_ranks_cache[key] = ranks
        return ranks

    def _tp_payload(self) -> float:
        return (
            self._tokens * self.model.hidden_size * self.model.bytes_per_param
        )

    def _tp_ops_per_layer(self) -> int:
        # Dense layers: two AllReduces per layer (attention + MLP row-
        # parallel outputs). MoE layers under TP additionally gather and
        # scatter the token stream around the routed experts, doubling
        # the per-layer TP communication.
        return 4 if self.model.moe else 2

    def _tp_single_ar_seconds(self, tp_ranks: tuple[int, ...]) -> float:
        """Uncontended duration of one TP AllReduce (build-time estimate,
        used to size the comm hidden inside overlapped compute)."""
        gpus = tuple(self.mesh.gpus_of(list(tp_ranks)))
        cached = self._ar_duration_cache.get(gpus)
        if cached is None:
            cached = allreduce(
                self.mesh.cluster, list(gpus), self._tp_payload()
            ).duration_s
            self._ar_duration_cache[gpus] = cached
        return cached

    def _tp_overlap_split(
        self, tp_ranks: tuple[int, ...], layers: float
    ) -> tuple[float, int]:
        """(hidden comm seconds, exposed tail op count) for CC-overlap.

        All but the last layer's TP collectives hide behind the stage's
        compute (Megatron pipelines them layer by layer); the final
        layer's ops stay exposed and keep the TP group synchronised."""
        total_ops = max(1, round(self._tp_ops_per_layer() * layers))
        tail_ops = min(self._tp_ops_per_layer(), total_ops)
        hidden_ops = total_ops - tail_ops
        return hidden_ops * self._tp_single_ar_seconds(tp_ranks), tail_ops

    def _emit_tp_allreduce(
        self,
        iteration: int,
        dpo: int,
        e: int,
        stage: int,
        mb: int,
        chunk: int,
        phase: str,
        rank: int,
        layers: float,
        repeat: int | None = None,
        sq: int = 0,
    ) -> None:
        tp_ranks = self._tp_ranks(dpo, e, stage)
        if repeat is None:
            repeat = max(1, round(self._tp_ops_per_layer() * layers))
        self._append_shared_collective(
            key=(iteration, "tp_ar", dpo, e, stage, mb, chunk, phase, sq),
            rank=rank,
            op=CollectiveOp.ALLREDUCE,
            kernel=KernelKind.TP_ALLREDUCE,
            ranks=tp_ranks,
            payload_bytes=self._tp_payload(),
            iteration=iteration,
            stage=stage,
            repeat=repeat,
            mb=mb,
        )

    def _emit_alltoall(
        self,
        iteration: int,
        dpo: int,
        stage: int,
        mb: int,
        chunk: int,
        phase: str,
        t: int,
        rank: int,
        layers: float,
        sq: int = 0,
    ) -> None:
        cfg = self.cfg
        moe = self.model.moe
        ep_ranks = tuple(
            rank_of(RankCoords(t, ei, dpo, stage), cfg)
            for ei in range(cfg.ep)
        )
        payload = (
            self._tokens
            * moe.top_k
            * self.model.hidden_size
            * self.model.bytes_per_param
            * moe.capacity_factor
            / cfg.tp
        )
        self._append_shared_collective(
            key=(iteration, "a2a", dpo, stage, mb, chunk, phase, t, sq),
            rank=rank,
            op=CollectiveOp.ALLTOALL,
            kernel=KernelKind.EP_ALLTOALL,
            ranks=ep_ranks,
            payload_bytes=payload,
            iteration=iteration,
            stage=stage,
            repeat=max(1, round(2 * layers)),
            mb=mb,
        )

    def _emit_dp_bucket(
        self,
        iteration: int,
        stage: int,
        t: int,
        rank: int,
        bucket: int,
        bwd_spec: ComputeSpec,
        kernel: KernelKind = KernelKind.BWD_GEMM,
    ) -> None:
        zero1 = self._zero1()
        payload = (
            self._dense_shard
            * self.model.bytes_per_param
            / DP_OVERLAP_BUCKETS
        )
        self._append_shared_collective(
            key=(iteration, "dp_bucket", stage, t, bucket),
            rank=rank,
            op=(
                CollectiveOp.REDUCE_SCATTER if zero1
                else CollectiveOp.ALLREDUCE
            ),
            kernel=(
                KernelKind.GRAD_REDUCE_SCATTER if zero1
                else KernelKind.DP_ALLREDUCE
            ),
            ranks=self._dense_dp_ranks(t, stage),
            payload_bytes=payload,
            iteration=iteration,
            stage=stage,
            overlap=bwd_spec,
            overlap_kernel=kernel,
        )

    def _emit_fsdp_allgather(
        self,
        iteration: int,
        stage: int,
        mb: int,
        t: int,
        rank: int,
        phase: str,
        sq: int = 0,
    ) -> None:
        gathered_bytes = (
            (self._dense_shard + self._expert_shard)
            * self.cfg.dp
            * self.model.bytes_per_param
        )
        self._append_shared_collective(
            key=(iteration, "fsdp_ag", stage, mb, phase, t, sq),
            rank=rank,
            op=CollectiveOp.ALLGATHER,
            kernel=KernelKind.PARAM_ALLGATHER,
            ranks=self._dense_dp_ranks(t, stage),
            payload_bytes=gathered_bytes,
            iteration=iteration,
            stage=stage,
            mb=mb,
        )

    def _emit_fsdp_reduce_scatter(
        self, iteration: int, stage: int, t: int, rank: int
    ) -> None:
        full_grad_bytes = (
            (self._dense_shard + self._expert_shard)
            * self.cfg.dp
            * self.model.bytes_per_param
        )
        self._append_shared_collective(
            key=(iteration, "fsdp_rs", stage, t),
            rank=rank,
            op=CollectiveOp.REDUCE_SCATTER,
            kernel=KernelKind.GRAD_REDUCE_SCATTER,
            ranks=self._dense_dp_ranks(t, stage),
            payload_bytes=full_grad_bytes,
            iteration=iteration,
            stage=stage,
        )

    # -- helpers: P2P ----------------------------------------------------

    def _pp_payload(self) -> float:
        """Boundary activation/gradient bytes per TP rank.

        NeMo's scatter-gather optimisation splits the boundary tensor
        across TP ranks; the flip side is ``tp`` concurrent small flows.
        """
        return (
            self._tokens
            * self.model.hidden_size
            * self.model.bytes_per_param
            / self.cfg.tp
        )

    def _message_id(self, key: tuple) -> int:
        if key not in self._msg_ids:
            self._msg_ids[key] = next(self._msg_uid)
        return self._msg_ids[key]

    def _owner_rank(self, vs: int, t: int, e: int, dpo: int) -> int:
        """Rank hosting virtual stage ``vs`` for the given grid position."""
        return self._rank(t, e, dpo, vs % self.cfg.pp)

    def _emit_send(
        self,
        rank: int,
        iteration: int,
        phase: str,
        mb: int,
        vs: int,
        t: int,
        e: int,
        dpo: int,
        stage: int,
        sq: int = 0,
    ) -> None:
        direction = 1 if phase == "F" else -1
        dst = self._owner_rank(vs + direction, t, e, dpo)
        msg = self._message_id((iteration, phase, mb, vs, t, e, dpo, sq))
        self.queues[rank].append(
            Task(
                uid=next(self._uid),
                kind=TaskKind.SEND,
                kernel=KernelKind.PP_SEND,
                ranks=(rank,),
                p2p=P2PSpec(
                    src=rank,
                    dst=dst,
                    payload_bytes=self._pp_payload(),
                    chunked=self.cfg.tp == 1,
                    message_id=msg,
                ),
                iteration=iteration,
                microbatch=mb,
                stage=stage,
            )
        )

    def _emit_recv(
        self,
        rank: int,
        iteration: int,
        phase: str,
        mb: int,
        vs: int,
        t: int,
        e: int,
        dpo: int,
        stage: int,
        sq: int = 0,
    ) -> None:
        # The matching send was emitted by the neighbouring virtual stage:
        # forward messages originate at vs-1, backward messages at vs+1.
        src_vs = vs - 1 if phase == "F" else vs + 1
        src = self._owner_rank(src_vs, t, e, dpo)
        msg = self._message_id((iteration, phase, mb, src_vs, t, e, dpo, sq))
        self.queues[rank].append(
            Task(
                uid=next(self._uid),
                kind=TaskKind.RECV,
                kernel=KernelKind.PP_RECV,
                ranks=(rank,),
                p2p=P2PSpec(
                    src=src,
                    dst=rank,
                    payload_bytes=self._pp_payload(),
                    chunked=self.cfg.tp == 1,
                    message_id=msg,
                ),
                iteration=iteration,
                microbatch=mb,
                stage=stage,
            )
        )


def build_training_graph(
    model: ModelConfig,
    mesh: DeviceMesh,
    microbatch_size: int,
    global_batch_size: int,
    opts: OptimizationConfig,
    iterations: int = 2,
    stage_layers: list[int] | None = None,
    num_chunks: int = 2,
    num_seq_splits: int | None = None,
) -> TaskGraph:
    """Build the task graph of a training run (see module docstring)."""
    return GraphBuilder(
        model=model,
        mesh=mesh,
        microbatch_size=microbatch_size,
        global_batch_size=global_batch_size,
        opts=opts,
        iterations=iterations,
        stage_layers=stage_layers,
        num_chunks=num_chunks,
        num_seq_splits=num_seq_splits,
    ).build()


def build_inference_graph(
    model: ModelConfig,
    mesh: DeviceMesh,
    microbatch_size: int,
    global_batch_size: int,
    iterations: int = 2,
    num_seq_splits: int | None = None,
) -> TaskGraph:
    """Forward-only graph for the Section 7.2 inference characterization."""
    return GraphBuilder(
        model=model,
        mesh=mesh,
        microbatch_size=microbatch_size,
        global_batch_size=global_batch_size,
        opts=OptimizationConfig(distributed_optimizer=False),
        iterations=iterations,
        num_seq_splits=num_seq_splits,
        inference=True,
    ).build()
