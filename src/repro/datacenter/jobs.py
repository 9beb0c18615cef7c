"""Fleet jobs: specs, runtime profiles, and per-job accounting.

A :class:`JobSpec` describes one training or inference job the fleet
must run: which model, which strategy, how many nodes it needs, and how
many optimizer steps (or inference batches) it owes. Before its first
placement a job is *profiled* — simulated once at fine granularity
through the existing :mod:`repro.core.experiment` entrypoints on a
sub-cluster of the right size — and the fleet's discrete-event loop then
advances it analytically from that profile (step time, power draw,
steady-state temperature). Profiles are memoised per job shape, so a
fleet of hundreds of jobs costs only one micro-simulation per distinct
(model, strategy, nodes, batch, fault) combination.

A :class:`JobRecord` carries the durable accounting the paper's Section
7 projection needs to distinguish goodput from throughput: iterations
completed and checkpointed survive a node fault, iterations since the
last checkpoint are *lost* and must be re-simulated after the restart.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.faults import HEALTHY, FaultSpec
from repro.hardware.cluster import ClusterSpec


class JobKind(enum.Enum):
    """Workload class of a fleet job."""

    TRAINING = "training"
    INFERENCE = "inference"


class JobState(enum.Enum):
    """Lifecycle of a fleet job."""

    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"


@dataclass(frozen=True)
class JobSpec:
    """One job submitted to the fleet.

    Attributes:
        name: unique identifier within a fleet run.
        kind: training or (batch) inference.
        model: catalog model name.
        parallelism: paper-style strategy for ``nodes_required`` nodes
            (leftover GPUs take DP, as everywhere else in the repo).
        nodes_required: whole nodes the job occupies; jobs never span
            clusters.
        iterations: optimizer steps (training) or batches (inference)
            the job owes before it completes.
        microbatch_size / global_batch_size: batch geometry.
        checkpoint_interval: iterations between durable checkpoints;
            progress past the last checkpoint is lost on a node fault.
        seed: per-job seed (arrivals stamp a distinct one per job).
        fault: degradations injected into the job's own micro-simulation
            (:class:`repro.core.faults.FaultSpec`), e.g. a degraded node
            inside the job's allocation.
    """

    name: str
    kind: JobKind
    model: str
    parallelism: str
    nodes_required: int
    iterations: int
    microbatch_size: int = 1
    global_batch_size: int = 16
    checkpoint_interval: int = 4
    seed: int = 0
    fault: FaultSpec = HEALTHY

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("job name must be non-empty")
        if self.nodes_required < 1:
            raise ValueError("nodes_required must be >= 1")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        if self.microbatch_size < 1 or self.global_batch_size < 1:
            raise ValueError("batch sizes must be >= 1")


@dataclass(frozen=True)
class JobProfile:
    """Steady-state execution profile of one job shape.

    Extracted from one fine-grained micro-simulation (warm-up iteration
    discarded) and reused for every analytical advance of the job.

    Attributes:
        step_time_s: wall time per iteration at full clock.
        tokens_per_iteration: tokens processed per iteration.
        power_w: mean whole-job power draw while running (all nodes).
        idle_power_w: aggregate idle draw of the job's nodes.
        steady_temp_c: mean die temperature the job sustains.
        peak_temp_c: hottest die temperature observed.
    """

    step_time_s: float
    tokens_per_iteration: int
    power_w: float
    idle_power_w: float
    steady_temp_c: float
    peak_temp_c: float

    def dynamic_power_w(self) -> float:
        """Draw above idle attributable to running the job."""
        return max(0.0, self.power_w - self.idle_power_w)


@dataclass(frozen=True)
class PlacementInterval:
    """One execution attempt of a job on concrete fleet nodes."""

    cluster: int
    nodes: tuple[int, ...]
    start_s: float
    end_s: float
    clock: float
    interrupted: bool


@dataclass
class JobRecord:
    """Mutable fleet-side accounting for one job.

    ``completed_iterations`` counts durable progress only (checkpointed,
    or carried to completion); ``lost_iterations`` counts work that was
    simulated but discarded by a fault — the gap between throughput and
    goodput. ``replayed_iterations`` counts the discarded work the job
    must execute a second time after restarting (equal to lost work
    under checkpoint rollback, zero under elastic continuation).
    """

    spec: JobSpec
    submit_s: float
    state: JobState = JobState.QUEUED
    profile: JobProfile | None = None
    completed_iterations: int = 0
    lost_iterations: int = 0
    replayed_iterations: int = 0
    restarts: int = 0
    energy_j: float = 0.0
    queue_wait_s: float = 0.0
    first_start_s: float | None = None
    end_s: float | None = None
    intervals: list[PlacementInterval] = field(default_factory=list)

    @property
    def remaining_iterations(self) -> int:
        """Iterations still owed before the job completes."""
        return self.spec.iterations - self.completed_iterations

    @property
    def goodput_tokens(self) -> int:
        """Durable tokens (survive faults via checkpoints)."""
        if self.profile is None:
            return 0
        return self.completed_iterations * self.profile.tokens_per_iteration

    @property
    def simulated_tokens(self) -> int:
        """All tokens processed, including fault-discarded work."""
        if self.profile is None:
            return 0
        return (
            (self.completed_iterations + self.lost_iterations)
            * self.profile.tokens_per_iteration
        )


# -- profiling ---------------------------------------------------------------

_PROFILE_CACHE: dict[tuple, JobProfile] = {}


def clear_profile_cache() -> None:
    """Drop memoised job profiles (tests use this for isolation)."""
    _PROFILE_CACHE.clear()


def _fault_key(fault: FaultSpec) -> tuple:
    return (
        tuple(sorted(fault.node_power_cap_scale.items())),
        tuple(sorted(fault.node_max_clock.items())),
    )


def _profile_key(
    spec: JobSpec, cluster: ClusterSpec, thermal_placement: bool
) -> tuple:
    return (
        spec.kind,
        spec.model,
        spec.parallelism,
        spec.nodes_required,
        spec.microbatch_size,
        spec.global_batch_size,
        cluster.name,
        _fault_key(spec.fault),
        thermal_placement,
    )


def sub_cluster(cluster: ClusterSpec, num_nodes: int) -> ClusterSpec:
    """A ``num_nodes``-node slice of ``cluster`` for one job.

    Fleet nodes are identical, so a job's fine-grained behaviour depends
    only on how many nodes it holds, not on which physical ones — the
    physical identity matters to the fleet (thermal state, faults), not
    to the micro-simulation.
    """
    from dataclasses import replace

    if not 1 <= num_nodes <= cluster.num_nodes:
        raise ValueError(
            f"job needs {num_nodes} nodes; cluster {cluster.name} "
            f"has {cluster.num_nodes}"
        )
    if num_nodes == cluster.num_nodes:
        return cluster
    return replace(
        cluster, name=f"{cluster.name}-sub{num_nodes}", num_nodes=num_nodes
    )


def profile_job(
    spec: JobSpec,
    cluster: ClusterSpec,
    thermal_placement: bool = False,
) -> JobProfile:
    """Micro-simulate one job shape and distil its fleet profile.

    Args:
        spec: the job to profile.
        cluster: host cluster (the job sees a ``spec.nodes_required``
            slice of it).
        thermal_placement: map pipeline stages cool-GPU-first inside the
            allocation (:func:`repro.datacenter.thermal_aware.
            thermal_aware_placement`) when the strategy permits; the
            fleet's thermal-aware policy enables this.
    """
    key = _profile_key(spec, cluster, thermal_placement)
    cached = _PROFILE_CACHE.get(key)
    if cached is not None:
        return cached

    from repro.core.experiment import execute_inference, execute_training
    from repro.engine.simulator import SimSettings

    sub = sub_cluster(cluster, spec.nodes_required)
    settings = SimSettings(faults=spec.fault)
    if spec.kind is JobKind.TRAINING:
        placement = None
        if thermal_placement:
            placement = _try_thermal_placement(sub, spec.parallelism)
        result = execute_training(
            model=spec.model,
            cluster=sub,
            parallelism=spec.parallelism,
            microbatch_size=spec.microbatch_size,
            global_batch_size=spec.global_batch_size,
            iterations=2,
            placement=placement,
            settings=settings,
        )
    else:
        result = execute_inference(
            model=spec.model,
            cluster=sub,
            parallelism=spec.parallelism,
            microbatch_size=spec.microbatch_size,
            global_batch_size=spec.global_batch_size,
            iterations=2,
            settings=settings,
        )
    efficiency = result.efficiency()
    stats = result.stats()
    idle_w = sub.total_gpus * sub.node.gpu.idle_watts
    profile = JobProfile(
        step_time_s=efficiency.step_time_s,
        tokens_per_iteration=result.outcome.tokens_per_iteration,
        power_w=max(stats.avg_power_w, idle_w),
        idle_power_w=idle_w,
        steady_temp_c=stats.avg_temp_c,
        peak_temp_c=stats.peak_temp_c,
    )
    _PROFILE_CACHE[key] = profile
    return profile


def _profile_payload(item: tuple) -> JobProfile:
    """Top-level worker entry for parallel pre-profiling (picklable)."""
    spec, cluster, thermal = item
    return profile_job(spec, cluster, thermal_placement=thermal)


def preprofile_jobs(
    specs: list[JobSpec],
    clusters: tuple[ClusterSpec, ...],
    thermal_training: bool = False,
    jobs: int = 1,
) -> int:
    """Warm the profile cache for every distinct job shape.

    The fleet's event loop profiles lazily at placement time, one shape
    at a time. This pre-pass simulates all distinct (shape, cluster)
    combinations up front — optionally across ``jobs`` worker processes
    via :func:`repro.core.parallel.map_calls` — so the event loop only
    ever hits the cache. Profiles are placement-independent, which keeps
    results identical to the lazy path. Returns the number of profiles
    simulated.
    """
    from repro.core.parallel import map_calls

    work: list[tuple] = []
    keys: list[tuple] = []
    seen: set[tuple] = set()
    for spec in specs:
        for cluster in clusters:
            if spec.nodes_required > cluster.num_nodes:
                continue
            thermal = thermal_training and spec.kind is JobKind.TRAINING
            key = _profile_key(spec, cluster, thermal)
            if key in seen or key in _PROFILE_CACHE:
                continue
            seen.add(key)
            keys.append(key)
            work.append((spec, cluster, thermal))
    profiles = map_calls(_profile_payload, work, jobs)
    for key, profile in zip(keys, profiles):
        _PROFILE_CACHE.setdefault(key, profile)
    return len(work)


def _try_thermal_placement(
    cluster: ClusterSpec, parallelism: str
) -> list[int] | None:
    """Cool-GPU-first permutation, or None when the strategy forbids it."""
    from repro.parallelism.strategy import parse_strategy
    from repro.datacenter.thermal_aware import thermal_aware_placement

    config = parse_strategy(parallelism)
    if config.world_size != cluster.total_gpus:
        config = config.fill_dp(cluster.total_gpus)
    try:
        return thermal_aware_placement(cluster, config)
    except ValueError:
        return None
