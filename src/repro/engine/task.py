"""Task graph: the unit of work the discrete-event simulator executes.

The builder (:mod:`repro.engine.builder`) lowers a training configuration
to one ordered task queue per logical rank. Within a queue, order is the
execution order (as in Megatron's static schedules); across queues,
synchronization happens only through communication tasks:

* :class:`TaskKind.SEND` / :class:`TaskKind.RECV` — eager buffered P2P.
  The sender never blocks on the receiver; the receiver blocks until the
  matching message is delivered. This mirrors NCCL's eager protocol and
  makes the schedule deadlock-free by construction.
* :class:`TaskKind.COLLECTIVE` — rendezvous: every participant must reach
  the task before it starts; all participants finish together. Waiting
  time is charged to the communication kernel, exactly how profilers
  attribute NCCL kernel time (and the source of the paper's cross-rank
  communication skew).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.engine.kernels import KernelKind
from repro.power.model import Activity


class TaskKind(Enum):
    """Execution semantics of a task."""

    COMPUTE = "compute"
    SEND = "send"
    RECV = "recv"
    COLLECTIVE = "collective"


class CollectiveOp(Enum):
    """Logical collective algorithms the cost models implement."""

    ALLREDUCE = "allreduce"
    ALLGATHER = "allgather"
    REDUCE_SCATTER = "reduce_scatter"
    ALLTOALL = "alltoall"

    # C-level identity hash (see repro.engine.kernels.KernelCategory).
    __hash__ = object.__hash__


@dataclass(frozen=True, slots=True)
class ComputeSpec:
    """A compute kernel: duration is derived from FLOPs at run time.

    Attributes:
        flops: floating-point operations of the kernel.
        efficiency: fraction of the GPU's sustained throughput this kernel
            achieves (microbatch-size effects, kernel shape).
        activity: power-model activity while the kernel runs.
        min_duration_s: kernel launch floor.
        fixed_duration_s: when set, the kernel is memory-bound: this
            duration is used directly and does not scale with clock.
        overlapped_comm_s: communication time hidden inside this kernel
            (CC-overlap); the simulator stretches the kernel using the
            contended-fusion rule instead of emitting separate comm.
    """

    flops: float
    efficiency: float = 1.0
    activity: Activity = field(default_factory=lambda: Activity(compute=1.0))
    min_duration_s: float = 5e-6
    fixed_duration_s: float | None = None
    overlapped_comm_s: float = 0.0


@dataclass(frozen=True, slots=True)
class CollectiveSpec:
    """A rendezvous collective.

    Attributes:
        op: logical algorithm.
        ranks: participating logical ranks.
        payload_bytes: per-rank payload of a single operation.
        repeat: number of back-to-back operations fused into this task
            (e.g. the per-layer TP AllReduces of one pipeline stage).
    """

    op: CollectiveOp
    ranks: tuple[int, ...]
    payload_bytes: float
    repeat: int = 1


@dataclass(frozen=True, slots=True)
class P2PSpec:
    """One point-to-point message (pipeline-parallel boundary transfer).

    Attributes:
        src / dst: logical ranks.
        payload_bytes: message size.
        chunked: whether the transfer pipelines chunks across path hops
            (False models the paper's sparse unchunked TP+PP SendRecv).
        message_id: matches a SEND task with its RECV counterpart.
    """

    src: int
    dst: int
    payload_bytes: float
    chunked: bool
    message_id: int


@dataclass(slots=True)
class Task:
    """One node of the task graph.

    Attributes:
        uid: unique task id.
        kind: execution semantics.
        kernel: kernel type recorded in traces.
        ranks: logical ranks that execute this task (1 for compute/P2P).
        compute: compute payload (COMPUTE, or fused into a COLLECTIVE for
            compute-communication overlap).
        collective: collective payload (COLLECTIVE only).
        p2p: message payload (SEND/RECV only).
        iteration: training iteration this task belongs to.
        microbatch / stage: trace labels.
        overlap_compute: when set on a COLLECTIVE, the collective runs
            overlapped with this compute kernel (CC-overlap); the task
            occupies max(comm, compute) wall time with both slowed by
            resource contention.
        overlap_kernel: trace label for the fused compute kernel.
    """

    uid: int
    kind: TaskKind
    kernel: KernelKind
    ranks: tuple[int, ...]
    compute: ComputeSpec | None = None
    collective: CollectiveSpec | None = None
    p2p: P2PSpec | None = None
    iteration: int = 0
    microbatch: int = -1
    stage: int = -1
    overlap_compute: ComputeSpec | None = None
    overlap_kernel: KernelKind | None = None


@dataclass
class TaskGraph:
    """Per-rank ordered task queues plus bookkeeping.

    Construction checks every task once (its kind's payload is set and
    it has a rank) and the placement of every collective.

    Attributes:
        queues: ``queues[rank]`` is the ordered task list of that rank.
        num_iterations: iterations the graph covers.
        tokens_per_iteration: tokens processed per iteration (throughput
            denominator).
    """

    queues: list[list[Task]]
    num_iterations: int
    tokens_per_iteration: int

    def __post_init__(self) -> None:
        if not self.queues:
            raise ValueError("task graph needs at least one rank")
        self._validate_tasks()

    @property
    def world_size(self) -> int:
        """Number of ranks."""
        return len(self.queues)

    @property
    def total_tasks(self) -> int:
        """Total task *instances* across queues (collectives counted once
        per participant)."""
        return sum(len(q) for q in self.queues)

    def _validate_tasks(self) -> None:
        """Every task must be well formed, and every collective task must
        appear exactly once in each participant's queue and in no other
        queue."""
        holders: dict[int, list[int]] = {}
        tasks: dict[int, Task] = {}
        collective, compute = TaskKind.COLLECTIVE, TaskKind.COMPUTE
        for rank, queue in enumerate(self.queues):
            for task in queue:
                kind = task.kind
                if kind is collective:
                    ranks = holders.get(task.uid)
                    if ranks is not None:
                        ranks.append(rank)
                        continue
                    if task.collective is None:
                        raise ValueError(
                            "COLLECTIVE task needs a CollectiveSpec"
                        )
                    holders[task.uid] = [rank]
                    tasks[task.uid] = task
                elif kind is compute:
                    if task.compute is None:
                        raise ValueError("COMPUTE task needs a ComputeSpec")
                elif task.p2p is None:
                    raise ValueError("P2P task needs a P2PSpec")
                if not task.ranks:
                    raise ValueError("task must have at least one rank")
        for uid, ranks in holders.items():
            # ``ranks`` lists one entry per appearance, in rank order.
            expected = sorted(tasks[uid].collective.ranks)
            if ranks != expected:
                raise ValueError(
                    f"collective {uid} appears in queues {ranks} "
                    f"but declares ranks {expected}"
                )
