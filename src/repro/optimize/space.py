"""Joint search space: plan × microbatch × schedule, analytically pruned.

The optimizer's candidate grid is the cross product of

* every tiling-valid parallelism layout
  (:func:`repro.parallelism.enumerate.raw_configs`, or an explicit
  list of strategies),
* the requested microbatch sizes, and
* the registered pipeline schedules (pipeline depth > 1 only — at
  ``pp == 1`` every schedule degenerates to the same run).

Candidates are pruned *before any simulation* by cheap analytic
models, each rejection carrying a reason so the prune ledger is
auditable (and property-testable for soundness):

``tiling``
    the global batch does not divide into whole microbatches across
    the plan's DP width;
``schedule``
    the schedule's own structural constraints reject the shape (e.g.
    interleaved needs ``num_microbatches % pp == 0``);
``memory``
    the schedule-aware activation model (``models/memory.py`` with the
    schedule registry's ``activation_in_flight``) overflows usable HBM;
``power_cap``
    even at idle clocks the plan's GPUs alone exceed the facility
    power cap — no setpoint can save it.

Survivors are ranked by a FLOPs/roofline estimate (ideal compute time
inflated by the schedule's analytic bubble fraction, energy at TDP) so
only the most promising ``beam_width`` plans pay for simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.hardware.cluster import ClusterSpec
from repro.models.config import ModelConfig
from repro.models.flops import model_forward_flops, model_step_flops
from repro.models.memory import (
    USABLE_MEMORY_FRACTION,
    fits_in_memory,
    memory_breakdown,
)
from repro.optimize.objective import Objective
from repro.parallelism.enumerate import ConfigSearchSpace, raw_configs
from repro.parallelism.strategy import ParallelismConfig, parse_strategy
from repro.power.model import BUSY_COMPUTE, gpu_power
from repro.schedules import create_schedule, get_schedule_class

__all__ = [
    "ESTIMATE_ERROR_BAND",
    "AnalyticEstimate",
    "PlanCandidate",
    "PruneVerdict",
    "analytic_plan_estimate",
    "enumerate_candidates",
    "prune_candidates",
]


@dataclass(frozen=True)
class PlanCandidate:
    """One point of the joint grid (before the setpoint axis)."""

    parallelism: ParallelismConfig
    microbatch_size: int
    pipeline_schedule: str
    #: ``global_batch // (dp * microbatch)`` when it divides, else 0
    #: (a tiling reject marker the pruner turns into a verdict).
    num_microbatches: int

    @property
    def name(self) -> str:
        """Human-readable label, e.g. ``TP2-PP8 mb=1 zb-h1``."""
        return (
            f"{self.parallelism.name} mb={self.microbatch_size} "
            f"{self.pipeline_schedule}"
        )


@dataclass(frozen=True)
class PruneVerdict:
    """Why one candidate was rejected before simulation."""

    candidate: PlanCandidate
    reason: str  # "tiling" | "schedule" | "memory" | "power_cap"
    detail: str


@dataclass(frozen=True)
class AnalyticEstimate:
    """Roofline-level step time / energy / objective cost of a plan."""

    step_time_s: float
    energy_j: float
    cost: float


def _schedule_axis(
    schedules: Sequence[str] | None, pp: int
) -> tuple[str, ...]:
    from repro.schedules import schedule_names

    names = tuple(schedules) if schedules else tuple(schedule_names())
    if pp <= 1:
        # Every schedule degenerates to the same single-stage run;
        # keep only the canonical spelling so the raw grid is honest.
        return ("1f1b",) if "1f1b" in names else names[:1]
    return names


def enumerate_candidates(
    model: ModelConfig,
    cluster: ClusterSpec,
    *,
    global_batch_size: int,
    microbatch_sizes: Sequence[int] = (1, 2, 4),
    schedules: Sequence[str] | None = None,
    parallelisms: Sequence[str | ParallelismConfig] | None = None,
    space: ConfigSearchSpace | None = None,
) -> list[PlanCandidate]:
    """The raw joint grid, unpruned.

    ``parallelisms`` pins the plan axis to explicit strategies (paper
    notation or :class:`ParallelismConfig`, DP filled to the cluster);
    otherwise every tiling-valid layout is enumerated.
    """
    if parallelisms is None:
        plans = raw_configs(model, cluster, space)
    else:
        plans = []
        for entry in parallelisms:
            config = (
                parse_strategy(entry) if isinstance(entry, str) else entry
            )
            plans.append(config.fill_dp(cluster.total_gpus))
    candidates: list[PlanCandidate] = []
    for plan in plans:
        for mb in microbatch_sizes:
            per_step = plan.dp * mb
            if per_step and global_batch_size % per_step == 0:
                nmb = global_batch_size // per_step
            else:
                nmb = 0
            for schedule in _schedule_axis(schedules, plan.pp):
                candidates.append(PlanCandidate(
                    parallelism=plan,
                    microbatch_size=mb,
                    pipeline_schedule=schedule,
                    num_microbatches=nmb,
                ))
    return candidates


def _check_schedule(candidate: PlanCandidate) -> str | None:
    """Structural schedule validation; returns a detail string on reject."""
    pp = candidate.parallelism.pp
    if pp <= 1:
        return None
    cls = get_schedule_class(candidate.pipeline_schedule)
    try:
        create_schedule(
            candidate.pipeline_schedule,
            pp,
            candidate.num_microbatches,
            num_chunks=2 if cls.supports_chunks else 1,
        )
    except ValueError as error:
        return str(error)
    return None


def prune_candidates(
    model: ModelConfig,
    cluster: ClusterSpec,
    candidates: Iterable[PlanCandidate],
    *,
    power_cap_w: float | None = None,
    recompute: bool = False,
    zero1: bool = True,
    sequence_parallel: bool = True,
) -> tuple[list[PlanCandidate], list[PruneVerdict]]:
    """Split candidates into (kept, rejected-with-reasons).

    Every check is *sound* for its reason: a ``memory`` reject really
    overflows the analytic footprint, and a ``power_cap`` reject draws
    more than the cap with every GPU at idle — the floor no DVFS
    setpoint can undercut (pinned by tests/test_optimize_property.py).
    """
    gpu = cluster.node.gpu
    kept: list[PlanCandidate] = []
    verdicts: list[PruneVerdict] = []
    for candidate in candidates:
        plan = candidate.parallelism
        if candidate.num_microbatches < 1:
            verdicts.append(PruneVerdict(
                candidate, "tiling",
                f"global batch does not divide into dp={plan.dp} x "
                f"mb={candidate.microbatch_size} microbatches",
            ))
            continue
        schedule_error = _check_schedule(candidate)
        if schedule_error is not None:
            verdicts.append(PruneVerdict(
                candidate, "schedule", schedule_error,
            ))
            continue
        if power_cap_w is not None:
            idle_floor_w = plan.world_size * gpu.idle_watts
            if idle_floor_w > power_cap_w:
                verdicts.append(PruneVerdict(
                    candidate, "power_cap",
                    f"{plan.world_size} GPUs idle at "
                    f"{idle_floor_w:.0f} W > cap {power_cap_w:.0f} W",
                ))
                continue
        fits = fits_in_memory(
            model,
            gpu.memory_bytes,
            microbatch_size=candidate.microbatch_size,
            tp=plan.tp,
            pp=plan.pp,
            dp=plan.dp,
            ep=plan.ep,
            fsdp=plan.dp if plan.use_fsdp else 1,
            zero1=zero1 and not plan.use_fsdp,
            recompute=recompute,
            sequence_parallel=sequence_parallel,
            pipeline_schedule=candidate.pipeline_schedule,
            num_microbatches=candidate.num_microbatches,
        )
        if not fits:
            usage = memory_breakdown(
                model,
                candidate.microbatch_size,
                tp=plan.tp,
                pp=plan.pp,
                dp=plan.dp,
                ep=plan.ep,
                fsdp=plan.dp if plan.use_fsdp else 1,
                zero1=zero1 and not plan.use_fsdp,
                recompute=recompute,
                sequence_parallel=sequence_parallel,
                pipeline_schedule=candidate.pipeline_schedule,
                num_microbatches=candidate.num_microbatches,
            )
            budget = USABLE_MEMORY_FRACTION * gpu.memory_bytes
            verdicts.append(PruneVerdict(
                candidate, "memory",
                f"{usage.total / 1e9:.1f} GB > "
                f"{budget / 1e9:.1f} GB usable",
            ))
            continue
        kept.append(candidate)
    return kept, verdicts


def _plan_comm_time_s(
    model: ModelConfig,
    cluster: ClusterSpec,
    candidate: PlanCandidate,
    *,
    hide_dp_s: float = 0.0,
    inference: bool = False,
) -> float:
    """Alpha-beta estimate of one rank's *exposed* per-step comm time.

    Two terms dominate the plan-to-plan ordering and are modelled with
    the same ring collectives the simulator costs
    (:mod:`repro.comm.collectives`):

    * **TP activations** — four allreduce-equivalent collectives per
      transformer layer (forward + backward) of the microbatch's
      activation slab, over the (intra-node) TP group; two when
      ``inference`` (forward only);
    * **DP gradients** — one allreduce of the rank's FP16 gradient
      shard over the DP group (which strides across nodes), with a
      1.5x volume factor for FSDP's allgather/reduce-scatter pattern.
      The simulator buckets this flow behind the tail backward kernels
      (CC-overlap), so ``hide_dp_s`` — the caller's backward-compute
      window — is subtracted and only the remainder counts as exposed.
      Inference has no gradients, so no such term.

    PP point-to-point transfers and MoE all-to-alls are deliberately
    omitted: both are small next to the schedule's bubble term and the
    two flows above.
    """
    from repro.comm.collectives import allreduce
    from repro.models.memory import shard_params
    from repro.units import BYTES_FP16

    plan = candidate.parallelism
    total = 0.0
    if plan.tp > 1:
        act_bytes = (
            candidate.microbatch_size * model.seq_length
            * model.hidden_size * model.bytes_per_param
        )
        layers_per_stage = max(1, model.num_layers // plan.pp)
        per_layer = allreduce(
            cluster, list(range(plan.tp)), act_bytes
        ).duration_s
        total += (
            max(1, candidate.num_microbatches)
            * layers_per_stage * (2 if inference else 4) * per_layer
        )
    if plan.dp > 1 and not inference:
        grad_bytes = BYTES_FP16 * shard_params(
            model, tp=plan.tp, pp=plan.pp, ep=plan.ep
        )
        if plan.use_fsdp:
            grad_bytes *= 1.5
        stride = plan.tp * plan.pp
        group = [rank * stride for rank in range(plan.dp)]
        dp_s = allreduce(cluster, group, grad_bytes).duration_s
        total += max(0.0, dp_s - hide_dp_s)
    return total


#: Measured error of :func:`analytic_plan_estimate`: the ``[min, max]``
#: of estimated ÷ simulated ``efficiency().step_time_s`` per request
#: kind, rounded outward, over the 241 buildable perfbench cold-run
#: cells (model × cluster × plan × microbatch × schedule: 194 training,
#: 47 inference) at each of their static clocks 1.0, 0.95, 0.9 and 0.85.
#: At clock 1.0 alone the band is 0.084-0.850 (training) and
#: 0.115-2.451 (inference). The estimate is a ranking heuristic, not a
#: prediction: it omits PP transfers, MoE all-to-alls, launch overheads
#: and thermal throttling, so it mostly underestimates (MoE cells most),
#: while it charges a lowered clock in full where the simulated run
#: loses less because it no longer throttles. tests/test_estimate_error.py
#: re-simulates the extreme cells of every cluster, kind and schedule.
ESTIMATE_ERROR_BAND = {
    "training": (0.083, 1.043),
    "inference": (0.114, 3.191),
}


def analytic_plan_estimate(
    model: ModelConfig,
    cluster: ClusterSpec,
    candidate: PlanCandidate,
    objective: Objective,
    *,
    global_batch_size: int,
    recompute: bool = False,
    inference: bool = False,
    clock: float = 1.0,
) -> AnalyticEstimate:
    """Roofline + alpha-beta cost estimate of one plan.

    Ideal compute time (step FLOPs over the cluster's aggregate
    sustained throughput at ``clock``, a fraction of boost) inflated by
    the schedule's analytic bubble fraction, plus the plan's dominant
    communication flows (:func:`_plan_comm_time_s`, assumed
    unoverlapped); energy at the board power of a fully busy GPU at
    ``clock`` (exactly TDP at 1.0) for the whole duration. ``inference``
    counts forward FLOPs and forward-only communication.

    The optimizer ranks survivors by it, so it only has to *order*
    plans well enough that the true optimum lands inside the simulated
    beam: the bubble term separates schedules on the same plan, the
    comm terms separate plans that trade TP width against pipeline
    depth. Degraded serve answers return it as-is, with
    :data:`ESTIMATE_ERROR_BAND` as the error bar.
    """
    gpu = cluster.node.gpu
    gpus = cluster.total_gpus
    pp = candidate.parallelism.pp
    tokens = global_batch_size * model.seq_length
    if inference:
        flops = model_forward_flops(model, tokens)
    else:
        flops = model_step_flops(model, tokens, recompute)
    ideal_s = flops / (gpus * gpu.sustained_flops * clock)
    # A pipeline ticks at the pace of its *largest* stage: when pp does
    # not divide the layer count, ceil-sized stages inflate every
    # microbatch slot (40 layers over 16 stages runs at 3-layer pace).
    if pp > 1:
        ideal_s *= -(-model.num_layers // pp) * pp / model.num_layers
    bubble = get_schedule_class(
        candidate.pipeline_schedule
    ).bubble_fraction(
        pp, max(1, candidate.num_microbatches)
    )
    # Backward compute (~2/3 of the step's FLOPs) is the window the
    # bucketed DP gradient allreduce hides behind under CC-overlap.
    step_time_s = ideal_s * (1.0 + bubble) + _plan_comm_time_s(
        model, cluster, candidate, hide_dp_s=ideal_s * (2.0 / 3.0),
        inference=inference,
    )
    energy_j = gpus * gpu_power(gpu, BUSY_COMPUTE, clock) * step_time_s
    return AnalyticEstimate(
        step_time_s=step_time_s,
        energy_j=energy_j,
        cost=objective.cost(energy_j, step_time_s),
    )
