"""Checkpoint/restart recovery policies over engine-calibrated runs.

The engine (:mod:`repro.resilience.runtime`) answers "what does one
fault do to one run"; this layer answers the operator's question: over a
long training job with a given node MTBF, how much goodput and energy
does each recovery strategy preserve? Three policies are simulated:

* ``failstop`` — the whole job dies with the node. Roll back to the
  last durable checkpoint, wait out the repair, restart, and replay the
  lost iterations.
* ``hot-spare`` — a standby node swaps in: roll back and replay, but no
  repair wait (at the TCO cost of idle spares, outside this model).
* ``elastic`` — DP-shrink continuation: the surviving data-parallel
  replicas keep the current model state (no rollback — only the
  in-flight iteration is lost), re-group, and continue on the smaller
  cluster at a proportionally slower step time until the node returns
  and the job re-expands at a checkpoint boundary.

Every walk is iteration-granular and built from engine-probed
quantities: the healthy step time and cluster power from a short
:func:`~repro.core.sweep.cached_run` probe, and — for elastic —
a second probe on the (n-1)-node cluster with DP refilled. Hang
detection (the NCCL-style collective timeout), the checkpoint write
cost, and all recovery delays sit on the walked timeline, so goodput
and energy both account for them. Fault arrival times come from a
seeded exponential process (or an explicit list) drawn *identically*
for every policy, making policy comparisons paired.

Accounting invariant (pinned by a hypothesis property test): every
scheduled iteration execution is exactly one of *completed* (survived,
first attempt), *replayed* (survived, re-execution after a rollback),
or *lost* (killed in flight or rolled back), so
``completed + replayed + lost == scheduled`` and
``completed + replayed == total_iterations``.

:func:`plan_interrupt` exposes the same policy semantics in closed form
for the fleet simulator, which delegates its per-job interrupt
accounting here.
"""

from __future__ import annotations

import dataclasses
import bisect
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.core.sweep import cached_run
from repro.suggest import unknown_name_message

#: Recovery policies, worst to best expected goodput.
POLICIES = ("failstop", "hot-spare", "elastic")

#: Bytes of durable optimizer state per parameter: fp32 master weights
#: + two Adam moments + the bf16 training copy (4+4+4+2+2).
CHECKPOINT_BYTES_PER_PARAM = 16.0


@dataclass(frozen=True)
class RecoveryConfig:
    """Shape of the recovery simulation (policy + costs + fault process).

    Each field's ``help`` metadata documents it (``repro resilience run
    --help`` prints them as flags).
    """

    policy: str = field(
        default="failstop",
        metadata={"help": "recovery policy: failstop, hot-spare, or "
                          "elastic"})
    total_iterations: int = field(
        default=200, metadata={"help": "optimizer steps the job must commit"})
    checkpoint_interval: int = field(
        default=10,
        metadata={"help": "iterations between durable checkpoints"})
    checkpoint_write_s: float | None = field(
        default=None,
        metadata={"help": "fixed checkpoint write time; derived from the "
                          "model size, checkpoint_bw_gb_s and the DP width "
                          "when omitted"})
    checkpoint_bw_gb_s: float = field(
        default=25.0,
        metadata={"help": "per-writer durable-storage bandwidth (GB/s)"})
    collective_timeout_s: float = field(
        default=30.0,
        metadata={"help": "NCCL-style watchdog: hang time every fault "
                          "costs before it is detected"})
    repair_time_s: float = field(
        default=900.0,
        metadata={"help": "node repair time (failstop waits it out; "
                          "elastic runs shrunk until it elapses)"})
    restart_delay_s: float = field(
        default=120.0,
        metadata={"help": "failstop: scheduler + NCCL re-init time after "
                          "a repair"})
    spare_swapin_s: float = field(
        default=180.0,
        metadata={"help": "hot-spare: checkpoint restore onto the spare"})
    reconfig_s: float = field(
        default=15.0,
        metadata={"help": "elastic: re-group time (shrink and re-expand)"})
    checkpoint_power_fraction: float = field(
        default=0.7,
        metadata={"help": "cluster power while writing a checkpoint, as "
                          "a fraction of training power"})
    hang_power_fraction: float = field(
        default=0.85,
        metadata={"help": "cluster power while hung at the collective "
                          "(GPUs busy-spin), as a fraction of training "
                          "power"})
    idle_power_fraction: float = field(
        default=0.25,
        metadata={"help": "cluster power while waiting (repair, restore, "
                          "restart, re-group), as a fraction of training "
                          "power"})
    mtbf_s: float = field(
        default=0.0,
        metadata={"help": "per-node mean time between failures of the "
                          "seeded fault process (0 = fault-free; ignored "
                          "when fault_times_s is given)"})
    fault_times_s: tuple[float, ...] = field(
        default=(),
        metadata={"help": "explicit absolute fault onset times; empty "
                          "draws from the MTBF process"})
    seed: int = field(
        default=0, metadata={"help": "RNG seed of the fault process"})

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(
                unknown_name_message("recovery policy", self.policy,
                                     POLICIES)
            )
        if self.total_iterations < 1:
            raise ValueError("total_iterations must be >= 1")
        if self.checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        if self.collective_timeout_s < 0:
            raise ValueError("collective_timeout_s must be >= 0")
        for label in ("checkpoint_bw_gb_s", "repair_time_s",
                      "restart_delay_s", "spare_swapin_s", "reconfig_s"):
            if getattr(self, label) < 0 or (
                label == "checkpoint_bw_gb_s"
                and self.checkpoint_bw_gb_s == 0
            ):
                raise ValueError(f"{label} must be non-negative")
        for label in ("checkpoint_power_fraction", "hang_power_fraction",
                      "idle_power_fraction"):
            if not 0 <= getattr(self, label) <= 1.5:
                raise ValueError(f"{label} must be in [0, 1.5]")
        if self.mtbf_s < 0:
            raise ValueError("mtbf_s must be >= 0")
        if any(t < 0 for t in self.fault_times_s):
            raise ValueError("fault_times_s must be non-negative")
        if self.checkpoint_write_s is not None \
                and self.checkpoint_write_s < 0:
            raise ValueError("checkpoint_write_s must be >= 0")


# ---------------------------------------------------------------------------
# Fleet-facing closed form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InterruptPlan:
    """What one node loss does to a job, per the recovery policy.

    Attributes:
        durable_iterations: committed progress the job restarts from.
        lost_iterations: progress discarded by the interrupt.
        replayed_iterations: work that must be re-executed.
        requeue_delay_s: recovery latency before the job is runnable
            again (restore / re-group time; 0 keeps the legacy
            immediate-requeue behaviour).
    """

    durable_iterations: int
    lost_iterations: int
    replayed_iterations: int
    requeue_delay_s: float


def plan_interrupt(
    policy: str,
    steps_done: int,
    checkpoint_interval: int,
    *,
    restart_delay_s: float = 0.0,
    spare_swapin_s: float = 0.0,
    reconfig_s: float = 0.0,
) -> InterruptPlan:
    """Closed-form interrupt accounting for one job (fleet delegation).

    ``failstop`` and ``hot-spare`` both roll back to the last durable
    checkpoint and replay; they differ in the requeue delay source.
    ``elastic`` keeps the current step (the DP survivors hold the model
    state) and pays only the re-group delay.
    """
    if policy not in POLICIES:
        raise ValueError(
            unknown_name_message("recovery policy", policy, POLICIES)
        )
    if steps_done < 0:
        raise ValueError("steps_done must be >= 0")
    if checkpoint_interval < 1:
        raise ValueError("checkpoint_interval must be >= 1")
    if policy == "elastic":
        return InterruptPlan(
            durable_iterations=steps_done,
            lost_iterations=0,
            replayed_iterations=0,
            requeue_delay_s=reconfig_s,
        )
    durable = (steps_done // checkpoint_interval) * checkpoint_interval
    lost = steps_done - durable
    delay = spare_swapin_s if policy == "hot-spare" else restart_delay_s
    return InterruptPlan(
        durable_iterations=durable,
        lost_iterations=lost,
        replayed_iterations=lost,
        requeue_delay_s=delay,
    )


# ---------------------------------------------------------------------------
# Engine-calibrated recovery walk
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Segment:
    """One phase of the walked timeline."""

    start_s: float
    end_s: float
    phase: str  # train|replay|checkpoint|hang|repair|restore|restart|reconfig
    power_w: float

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass(frozen=True)
class JobProfile:
    """Engine-probed quantities one recovery walk runs on."""

    step_time_s: float
    power_w: float
    tokens_per_iteration: int
    dp: int
    checkpoint_bytes: float
    shrunk_step_time_s: float | None = None
    shrunk_power_w: float | None = None


@dataclass
class ResilienceRun:
    """Outcome of one policy walked over one fault schedule."""

    policy: str
    mtbf_s: float
    makespan_s: float
    ideal_makespan_s: float
    energy_j: float
    tokens_per_iteration: int
    total_iterations: int
    completed: int
    replayed: int
    lost: int
    scheduled: int
    faults_seen: int
    hangs_detected: int
    checkpoint_writes: int
    checkpoint_write_s: float
    step_time_s: float
    shrunk_step_time_s: float | None
    segments: tuple[Segment, ...]

    @property
    def goodput_tokens_per_s(self) -> float:
        """Committed tokens per wall-clock second, faults included."""
        return (
            self.tokens_per_iteration * self.total_iterations
            / self.makespan_s
        )

    @property
    def goodput_fraction(self) -> float:
        """Goodput relative to the same job with zero faults."""
        return self.ideal_makespan_s / self.makespan_s

    @property
    def energy_per_token_j(self) -> float:
        """Energy per committed token, recovery overheads included."""
        return self.energy_j / (
            self.tokens_per_iteration * self.total_iterations
        )


def _fault_clock(config: RecoveryConfig,
                 num_nodes: int) -> Callable[[float], float | None]:
    """Next-fault oracle: identical absolute onsets for every policy.

    Returns a callable giving the first fault onset strictly after
    ``t`` (faults landing inside downtime are skipped by construction),
    or None when the process is exhausted/disabled.
    """
    if config.fault_times_s:
        times = sorted(config.fault_times_s)

        def next_after(t: float) -> float | None:
            for onset in times:
                if onset > t:
                    return onset
            return None

        return next_after

    if config.mtbf_s <= 0:
        return lambda t: None

    rng = random.Random(config.seed)
    rate = num_nodes / config.mtbf_s
    drawn: list[float] = []

    def next_after(t: float) -> float | None:
        while not drawn or drawn[-1] <= t:
            last = drawn[-1] if drawn else 0.0
            drawn.append(last + rng.expovariate(rate))
        # drawn is sorted (positive increments) and its tail exceeds t,
        # so the first onset strictly after t is a bisect away. A linear
        # scan here is quadratic over the walk and dominates long
        # high-fault-rate walks.
        return drawn[bisect.bisect_right(drawn, t)]

    return next_after


def checkpoint_write_time(config: RecoveryConfig,
                          profile: JobProfile) -> float:
    """Checkpoint write cost on the training timeline."""
    if config.checkpoint_write_s is not None:
        return config.checkpoint_write_s
    per_writer = profile.checkpoint_bytes / max(1, profile.dp)
    return per_writer / (config.checkpoint_bw_gb_s * 1e9)


def walk_recovery(
    config: RecoveryConfig,
    profile: JobProfile,
    num_nodes: int,
    policy: str | None = None,
) -> ResilienceRun:
    """Walk one policy over the configured fault schedule.

    Iteration-granular: each loop turn either commits one iteration,
    writes a checkpoint, or services one fault (hang -> policy-specific
    recovery). See the module docstring for the policy semantics and
    the conservation invariant.
    """
    policy = config.policy if policy is None else policy
    if policy not in POLICIES:
        raise ValueError(
            unknown_name_message("recovery policy", policy, POLICIES)
        )
    if policy == "elastic" and profile.shrunk_step_time_s is None:
        raise ValueError(
            "elastic policy needs a shrunk-cluster profile "
            "(shrunk_step_time_s); the DP width may not allow shrinking"
        )

    ckpt_w = checkpoint_write_time(config, profile)
    next_fault = _fault_clock(config, num_nodes)
    total = config.total_iterations
    interval = config.checkpoint_interval

    t = 0.0
    energy = 0.0
    segments: list[Segment] = []
    attempts = [0] * total
    committed = 0
    last_ckpt = 0
    scheduled = 0
    lost = 0
    faults_seen = 0
    checkpoint_writes = 0
    shrunk = False
    shrunk_until = 0.0

    def advance(duration: float, power: float, phase: str) -> None:
        nonlocal t, energy
        if duration <= 0:
            return
        segments.append(Segment(t, t + duration, phase, power))
        energy += duration * power
        t += duration

    idle_power = profile.power_w * config.idle_power_fraction
    pending = next_fault(t)
    while committed < total:
        if shrunk:
            step = profile.shrunk_step_time_s
            train_power = profile.shrunk_power_w or profile.power_w
        else:
            step = profile.step_time_s
            train_power = profile.power_w
        iteration = committed
        if pending is not None and pending < t + step:
            # The fault kills the in-flight iteration.
            faults_seen += 1
            if faults_seen > 100_000:
                raise RuntimeError(
                    "recovery walk cannot converge: the fault rate "
                    "exceeds the iteration rate (MTBF too small for "
                    "this step time)"
                )
            scheduled += 1
            attempts[iteration] += 1
            lost += 1
            advance(pending - t, train_power, "train")
            # Hang until the collective timeout trips.
            advance(
                config.collective_timeout_s,
                profile.power_w * config.hang_power_fraction,
                "hang",
            )
            if policy == "elastic":
                # DP survivors keep the model state: no rollback. The
                # job re-groups and continues shrunk until the node is
                # repaired.
                advance(config.reconfig_s, idle_power, "reconfig")
                shrunk = True
                shrunk_until = pending + config.repair_time_s
            else:
                rolled = committed - last_ckpt
                lost += rolled
                committed = last_ckpt
                if policy == "hot-spare":
                    advance(config.spare_swapin_s, idle_power, "restore")
                else:
                    advance(config.repair_time_s, idle_power, "repair")
                    advance(config.restart_delay_s, idle_power, "restart")
            pending = next_fault(max(t, pending))
            continue

        # The iteration survives.
        scheduled += 1
        attempts[iteration] += 1
        advance(
            step, train_power,
            "train" if attempts[iteration] == 1 else "replay",
        )
        committed += 1
        at_boundary = committed % interval == 0 or committed == total
        if at_boundary and committed > last_ckpt:
            advance(
                ckpt_w,
                profile.power_w * config.checkpoint_power_fraction,
                "checkpoint",
            )
            checkpoint_writes += 1
            last_ckpt = committed
        if shrunk and at_boundary and t >= shrunk_until:
            # Node repaired and state durable: re-expand to full DP.
            advance(config.reconfig_s, idle_power, "reconfig")
            shrunk = False
        if pending is not None and pending <= t:
            # The fault landed inside the checkpoint write / re-group
            # window: no iteration was in flight, so nothing is lost.
            pending = next_fault(t)

    replayed = sum(1 for a in attempts if a > 1)
    completed = total - replayed
    return ResilienceRun(
        policy=policy,
        mtbf_s=config.mtbf_s,
        makespan_s=t,
        ideal_makespan_s=0.0,  # filled by the caller
        energy_j=energy,
        tokens_per_iteration=profile.tokens_per_iteration,
        total_iterations=total,
        completed=completed,
        replayed=replayed,
        lost=lost,
        scheduled=scheduled,
        faults_seen=faults_seen,
        hangs_detected=faults_seen,
        checkpoint_writes=checkpoint_writes,
        checkpoint_write_s=ckpt_w,
        step_time_s=profile.step_time_s,
        shrunk_step_time_s=profile.shrunk_step_time_s,
        segments=tuple(segments),
    )


# ---------------------------------------------------------------------------
# Engine probes
# ---------------------------------------------------------------------------


def _cluster_power_w(result) -> float:
    """Mean cluster power over the probe's measured window."""
    eff = result.efficiency()
    window = result.window_end_s - result.window_start_s
    return eff.energy_j / window


def shrunk_scenario(cluster, parallelism):
    """(cluster, parallelism) after losing one node, DP refilled.

    Raises ValueError when the strategy cannot shrink (the replica grid
    does not tile the surviving GPUs, or there is no DP to give up).
    """
    if cluster.num_nodes < 2:
        raise ValueError("cannot shrink a single-node cluster")
    shrunk_cluster = dataclasses.replace(
        cluster, num_nodes=cluster.num_nodes - 1
    )
    grid = parallelism.tp * parallelism.pp
    survivors = shrunk_cluster.total_gpus
    if survivors % grid:
        raise ValueError(
            f"{survivors} surviving GPUs do not tile into the "
            f"TPxPP grid ({grid}); elastic DP-shrink is not possible"
        )
    dp = survivors // grid
    if dp < 1 or dp >= parallelism.dp:
        raise ValueError(
            "elastic DP-shrink needs at least one DP replica to give up"
        )
    if dp % parallelism.ep:
        raise ValueError(
            f"shrunk DP width {dp} is not a multiple of "
            f"ep={parallelism.ep}"
        )
    return shrunk_cluster, dataclasses.replace(parallelism, dp=dp)


def profile_job(
    model,
    cluster,
    parallelism,
    global_batch_size: int = 16,
    microbatch_size: int = 1,
    probe_iterations: int = 3,
    settings=None,
    include_shrunk: bool = True,
) -> JobProfile:
    """Probe the engine for the quantities the recovery walk needs.

    Runs a short (cached) healthy simulation, and — when the strategy
    can shrink — a second one on the (n-1)-node cluster with DP
    refilled, so the shrunk step time reflects the real
    pipeline/collective behaviour of the smaller machine, not a 1/n
    guess. The shrunk probe keeps the healthy run's per-replica batch
    (the global batch rarely divides across ``dp - k`` replicas) and
    the step time is then rescaled to the full global batch the
    survivors must actually carry.
    """
    kwargs = dict(
        model=model,
        cluster=cluster,
        parallelism=parallelism,
        global_batch_size=global_batch_size,
        microbatch_size=microbatch_size,
        iterations=probe_iterations,
    )
    if settings is not None:
        kwargs["settings"] = settings
    result = cached_run("train", **kwargs)
    shrunk_step = shrunk_power = None
    if include_shrunk:
        try:
            small_cluster, small_strategy = shrunk_scenario(
                result.cluster, result.parallelism
            )
        except ValueError:
            pass
        else:
            per_replica = global_batch_size // result.parallelism.dp
            small_batch = per_replica * small_strategy.dp
            small = cached_run(
                "train",
                **{
                    **kwargs,
                    "cluster": small_cluster,
                    "parallelism": small_strategy,
                    "global_batch_size": small_batch,
                }
            )
            # Survivors carry the whole global batch: scale the probed
            # per-replica step time up to the real shrunk-phase load.
            shrunk_step = (
                small.efficiency().step_time_s
                * (global_batch_size / small_batch)
            )
            shrunk_power = _cluster_power_w(small)
    return JobProfile(
        step_time_s=result.efficiency().step_time_s,
        power_w=_cluster_power_w(result),
        tokens_per_iteration=result.outcome.tokens_per_iteration,
        dp=result.parallelism.dp,
        checkpoint_bytes=(
            result.model.total_params * CHECKPOINT_BYTES_PER_PARAM
        ),
        shrunk_step_time_s=shrunk_step,
        shrunk_power_w=shrunk_power,
    )


def simulate_recovery(
    model,
    cluster,
    parallelism,
    config: RecoveryConfig,
    num_nodes: int | None = None,
    profile: JobProfile | None = None,
    **probe_kwargs,
) -> ResilienceRun:
    """Profile the job (cached) and walk the configured policy."""
    if profile is None:
        profile = profile_job(
            model, cluster, parallelism,
            include_shrunk=config.policy == "elastic",
            **probe_kwargs,
        )
    if num_nodes is None:
        num_nodes = _resolve_num_nodes(cluster)
    run = walk_recovery(config, profile, num_nodes)
    ideal = walk_recovery(
        dataclasses.replace(config, mtbf_s=0.0, fault_times_s=()),
        profile, num_nodes, policy=run.policy,
    )
    run.ideal_makespan_s = ideal.makespan_s
    return run


def compare_policies(
    model,
    cluster,
    parallelism,
    config: RecoveryConfig,
    policies: Iterable[str] = POLICIES,
    **probe_kwargs,
) -> dict[str, ResilienceRun]:
    """Walk several policies over the *same* fault schedule."""
    profile = profile_job(
        model, cluster, parallelism, include_shrunk=True, **probe_kwargs
    )
    num_nodes = _resolve_num_nodes(cluster)
    ideal_config = dataclasses.replace(
        config, mtbf_s=0.0, fault_times_s=()
    )
    runs: dict[str, ResilienceRun] = {}
    for policy in policies:
        run = walk_recovery(config, profile, num_nodes, policy=policy)
        ideal = walk_recovery(ideal_config, profile, num_nodes,
                              policy=policy)
        run.ideal_makespan_s = ideal.makespan_s
        runs[policy] = run
    return runs


def sweep_mtbf(
    model,
    cluster,
    parallelism,
    mtbf_values_s: Iterable[float],
    config: RecoveryConfig,
    policies: Iterable[str] = POLICIES,
    **probe_kwargs,
) -> list[dict[str, ResilienceRun]]:
    """Policy comparison at each MTBF (the MTBF-vs-goodput figure)."""
    profile = profile_job(
        model, cluster, parallelism, include_shrunk=True, **probe_kwargs
    )
    num_nodes = _resolve_num_nodes(cluster)
    ideal_config = dataclasses.replace(
        config, mtbf_s=0.0, fault_times_s=()
    )
    rows: list[dict[str, ResilienceRun]] = []
    for mtbf_s in mtbf_values_s:
        if mtbf_s <= 0:
            raise ValueError("mtbf values must be positive")
        point = dataclasses.replace(
            config, mtbf_s=float(mtbf_s), fault_times_s=()
        )
        runs: dict[str, ResilienceRun] = {}
        for policy in policies:
            run = walk_recovery(point, profile, num_nodes, policy=policy)
            ideal = walk_recovery(ideal_config, profile, num_nodes,
                                  policy=policy)
            run.ideal_makespan_s = ideal.makespan_s
            runs[policy] = run
        rows.append(runs)
    return rows


def _resolve_num_nodes(cluster) -> int:
    from repro.hardware.cluster import get_cluster

    if isinstance(cluster, str):
        cluster = get_cluster(cluster)
    return cluster.num_nodes
