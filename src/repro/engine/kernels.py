"""Kernel taxonomy and per-kernel hardware pressure model.

Kernel kinds map to the categories the paper's breakdowns use (Figures 3,
7, 8, 11, 15): Compute, AllReduce, SendRecv, AllToAll, AllGather /
ReduceScatter, Optimizer. Each kind also carries the scheduler-pressure
profile (occupancy, warps, threadblocks) behind the Figure 20 analysis:
NCCL-style communication kernels hold high occupancy with few warps, while
compute kernels issue many warps and threadblocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class KernelCategory(Enum):
    """Breakdown buckets used throughout the paper's figures."""

    COMPUTE = "Compute"
    ALLREDUCE = "AllReduce"
    SENDRECV = "SendRecv"
    ALLTOALL = "AllToAll"
    ALLGATHER_RS = "AllGather/ReduceScatter"
    OPTIMIZER = "Optimizer"
    IDLE = "Idle"

    # Members are singletons compared by identity, so the C-level
    # identity hash is consistent with ==; Enum's own __hash__ hashes
    # the name in Python on every dict lookup keyed by a member.
    __hash__ = object.__hash__


class KernelKind(Enum):
    """Concrete kernel types emitted by the task-graph builder."""

    FWD_GEMM = "fwd_gemm"
    BWD_GEMM = "bwd_gemm"
    WGRAD_GEMM = "wgrad_gemm"
    RECOMPUTE_GEMM = "recompute_gemm"
    EMBEDDING = "embedding"
    OPTIMIZER_STEP = "optimizer_step"
    TP_ALLREDUCE = "tp_allreduce"
    DP_ALLREDUCE = "dp_allreduce"
    GRAD_REDUCE_SCATTER = "grad_reduce_scatter"
    PARAM_ALLGATHER = "param_allgather"
    EP_ALLTOALL = "ep_alltoall"
    PP_SEND = "pp_send"
    PP_RECV = "pp_recv"


_CATEGORY: dict[KernelKind, KernelCategory] = {
    KernelKind.FWD_GEMM: KernelCategory.COMPUTE,
    KernelKind.BWD_GEMM: KernelCategory.COMPUTE,
    KernelKind.WGRAD_GEMM: KernelCategory.COMPUTE,
    KernelKind.RECOMPUTE_GEMM: KernelCategory.COMPUTE,
    KernelKind.EMBEDDING: KernelCategory.COMPUTE,
    KernelKind.OPTIMIZER_STEP: KernelCategory.OPTIMIZER,
    KernelKind.TP_ALLREDUCE: KernelCategory.ALLREDUCE,
    KernelKind.DP_ALLREDUCE: KernelCategory.ALLREDUCE,
    KernelKind.GRAD_REDUCE_SCATTER: KernelCategory.ALLGATHER_RS,
    KernelKind.PARAM_ALLGATHER: KernelCategory.ALLGATHER_RS,
    KernelKind.EP_ALLTOALL: KernelCategory.ALLTOALL,
    KernelKind.PP_SEND: KernelCategory.SENDRECV,
    KernelKind.PP_RECV: KernelCategory.SENDRECV,
}


def category_of(kind: KernelKind) -> KernelCategory:
    """Breakdown bucket of a kernel kind."""
    return _CATEGORY[kind]


@dataclass(frozen=True)
class PressureProfile:
    """Scheduler pressure a running kernel exerts (Figure 20 inputs).

    Attributes:
        occupancy: active warps normalised by scheduling limits, [0, 1].
        warps_per_sm: issued warps per SM (work volume indicator).
        threadblocks_per_sm: resident threadblocks per SM.
    """

    occupancy: float
    warps_per_sm: float
    threadblocks_per_sm: float


# Communication kernels (NCCL/RCCL persistent kernels) hold near-full
# occupancy with a handful of warps; dense compute kernels push many
# warps/threadblocks at moderate occupancy (register-bound).
_PRESSURE: dict[KernelCategory, PressureProfile] = {
    KernelCategory.COMPUTE: PressureProfile(
        occupancy=0.62, warps_per_sm=48.0, threadblocks_per_sm=14.0
    ),
    KernelCategory.ALLREDUCE: PressureProfile(
        occupancy=0.92, warps_per_sm=8.0, threadblocks_per_sm=2.0
    ),
    # P2P send/recv (and the wait time folded into it) barely loads the
    # schedulers: a couple of proxy warps.
    KernelCategory.SENDRECV: PressureProfile(
        occupancy=0.20, warps_per_sm=1.5, threadblocks_per_sm=0.5
    ),
    KernelCategory.ALLTOALL: PressureProfile(
        occupancy=0.90, warps_per_sm=6.0, threadblocks_per_sm=2.0
    ),
    KernelCategory.ALLGATHER_RS: PressureProfile(
        occupancy=0.90, warps_per_sm=6.0, threadblocks_per_sm=2.0
    ),
    KernelCategory.OPTIMIZER: PressureProfile(
        occupancy=0.55, warps_per_sm=24.0, threadblocks_per_sm=8.0
    ),
    KernelCategory.IDLE: PressureProfile(
        occupancy=0.0, warps_per_sm=0.0, threadblocks_per_sm=0.0
    ),
}


def pressure_of(kind: KernelKind) -> PressureProfile:
    """Scheduler-pressure profile for a kernel kind."""
    return _PRESSURE[category_of(kind)]


@dataclass(slots=True)
class KernelRecord:
    """One executed kernel on one GPU (Chakra-style trace entry).

    Attributes:
        gpu: physical GPU id.
        rank: logical rank that issued the kernel.
        kind: kernel type.
        start_s / end_s: execution interval in simulation time. For
            communication kernels the interval includes rendezvous wait,
            matching how NCCL kernel time is reported by profilers.
        iteration: training iteration index.
        microbatch: microbatch index, or -1 for per-iteration kernels.
        stage: pipeline stage, or -1 when not stage-bound.
    """

    gpu: int
    rank: int
    kind: KernelKind
    start_s: float
    end_s: float
    iteration: int
    microbatch: int = -1
    stage: int = -1

    @property
    def duration_s(self) -> float:
        """Kernel duration."""
        return self.end_s - self.start_s

    @property
    def category(self) -> KernelCategory:
        """Breakdown bucket."""
        return category_of(self.kind)


#: Kernel kinds in code order: a table's ``kind_code`` column indexes it.
KINDS: tuple[KernelKind, ...] = tuple(KernelKind)
#: Breakdown buckets in code order, and each kind code's bucket code.
CATEGORIES: tuple[KernelCategory, ...] = tuple(KernelCategory)
CATEGORY_CODE = np.array(
    [CATEGORIES.index(category_of(kind)) for kind in KINDS], dtype=np.int8
)
# Kind codes keyed by member id: hashing an Enum member runs Python
# code, and the members are process-wide singletons.
_CODE_BY_ID = {id(kind): code for code, kind in enumerate(KINDS)}

_COLUMNS = (
    ("gpu", np.int32),
    ("rank", np.int32),
    ("kind_code", np.int8),
    ("start_s", np.float64),
    ("end_s", np.float64),
    ("iteration", np.int32),
    ("microbatch", np.int32),
    ("stage", np.int32),
)


def kind_codes(kinds) -> np.ndarray:
    """Codes (indices into :data:`KINDS`) of a sequence of kernel kinds."""
    return np.fromiter(
        map(_CODE_BY_ID.__getitem__, map(id, kinds)),
        dtype=np.int8,
        count=len(kinds),
    )


class KernelTable:
    """A run's kernel records as eight parallel columns, in record order.

    The simulator and the batched replay write kernel records column by
    column, so a stored result pickles eight arrays rather than one
    :class:`KernelRecord` per kernel. Columns mirror the record fields;
    ``kind_code`` indexes :data:`KINDS`.

    The table is also a read-only sequence of records: ``len``, ``bool``,
    iteration and integer indexing yield :class:`KernelRecord` rows made
    of plain Python ``int``/``float``/:class:`KernelKind` values, while a
    slice, boolean mask or index array selects a sub-table. ``==`` is
    exact (every column equal) and returns a ``bool``.
    """

    __slots__ = tuple(name for name, _ in _COLUMNS)

    def __init__(self, gpu, rank, kind_code, start_s, end_s, iteration,
                 microbatch, stage) -> None:
        columns = (gpu, rank, kind_code, start_s, end_s, iteration,
                   microbatch, stage)
        for (name, dtype), values in zip(_COLUMNS, columns):
            setattr(self, name, np.asarray(values, dtype=dtype))
        if len({len(getattr(self, name)) for name in self.__slots__}) > 1:
            raise ValueError("kernel table columns differ in length")

    @classmethod
    def from_lists(cls, gpu, rank, kinds, start_s, end_s, iteration,
                   microbatch, stage) -> "KernelTable":
        """Table from column lists whose kind column holds KernelKinds."""
        return cls(gpu, rank, kind_codes(kinds), start_s, end_s, iteration,
                   microbatch, stage)

    @classmethod
    def from_records(cls, records) -> "KernelTable":
        """Table holding ``records`` in order."""
        rows = list(records)
        return cls.from_lists(*(
            [getattr(r, name) for r in rows]
            for name in ("gpu", "rank", "kind", "start_s", "end_s",
                         "iteration", "microbatch", "stage")
        ))

    def columns(self) -> tuple[np.ndarray, ...]:
        """The eight columns, in :class:`KernelRecord` field order."""
        return tuple(getattr(self, name) for name in self.__slots__)

    @property
    def duration_s(self) -> np.ndarray:
        """Per-record kernel duration."""
        return self.end_s - self.start_s

    @property
    def category_code(self) -> np.ndarray:
        """Per-record breakdown bucket, as an index into CATEGORIES."""
        return CATEGORY_CODE[self.kind_code]

    def __len__(self) -> int:
        return len(self.gpu)

    def __iter__(self):
        return map(
            KernelRecord,
            self.gpu.tolist(),
            self.rank.tolist(),
            map(KINDS.__getitem__, self.kind_code.tolist()),
            self.start_s.tolist(),
            self.end_s.tolist(),
            self.iteration.tolist(),
            self.microbatch.tolist(),
            self.stage.tolist(),
        )

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            gpu, rank, code, start, end, it, mb, stage = (
                column[index].item() for column in self.columns()
            )
            return KernelRecord(gpu, rank, KINDS[code], start, end, it,
                                mb, stage)
        return KernelTable(*(column[index] for column in self.columns()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, KernelTable):
            return NotImplemented
        return all(
            np.array_equal(a, b)
            for a, b in zip(self.columns(), other.columns())
        )

    __hash__ = None

    def __reduce__(self):
        return (KernelTable, self.columns())

    def __repr__(self) -> str:
        return f"KernelTable({len(self)} records)"


def compute_efficiency(
    tokens: float, half_point_tokens: int = 1024
) -> float:
    """GEMM efficiency as a function of effective GEMM granularity.

    Small microbatches leave tensor cores underfed; efficiency follows a
    saturating curve with half of asymptotic efficiency at
    ``half_point_tokens``. This is the "diminishing compute returns" side
    of the paper's microbatch analysis (Section 5).
    """
    if tokens <= 0:
        raise ValueError("tokens must be positive")
    return tokens / (tokens + half_point_tokens)


def stage_gemm_efficiency(
    model, tokens: int, tp: int, half_point_tokens: int
) -> float:
    """Blended GEMM efficiency of one stage's kernels.

    Two granularity effects shrink the effective GEMM size below the
    nominal microbatch token count:

    * tensor parallelism slices every weight matrix ``tp`` ways, cutting
      tile dimensions (modelled as a ``tp**(-1/3)`` token-equivalent
      shrink);
    * MoE expert MLPs each see only ``top_k / num_experts`` of the
      tokens, so their GEMMs are far smaller than a dense MLP's — the
      reason wide-TP MoE configurations lose so much compute efficiency
      (Section 4.2 / Figure 9).

    The stage efficiency blends attention and MLP efficiencies by their
    FLOP shares.
    """
    from repro.models.flops import layer_flops

    if tp < 1:
        raise ValueError("tp must be >= 1")
    tile = tp ** (-1.0 / 3.0)
    attention_eff = compute_efficiency(tokens * tile, half_point_tokens)
    if model.moe is not None:
        expert_tokens = tokens * model.moe.top_k / model.moe.num_experts
        mlp_eff = compute_efficiency(
            max(1.0, expert_tokens * tile), half_point_tokens
        )
    else:
        mlp_eff = attention_eff
    flops = layer_flops(model, tokens)
    attention_share = flops.attention / flops.forward
    return attention_share * attention_eff + (1 - attention_share) * mlp_eff
