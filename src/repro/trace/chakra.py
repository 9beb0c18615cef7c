"""Chakra-style trace analysis: per-rank kernel-time breakdowns.

The paper's Figures 3, 7, 8, 11 and 15 are all views over the same data:
kernel records grouped by rank and kernel category. This module provides
those aggregations, plus the scheduler-pressure averages behind Figure 20.

Every function works on the columns of a
:class:`~repro.engine.kernels.KernelTable`; a plain list of
:class:`~repro.engine.kernels.KernelRecord` is converted once on entry.
Summed floats keep the bits of a record-by-record Python loop: per-
(rank, category) sums run in record order (``np.bincount`` with
weights), the cross-rank mean adds ranks in first-appearance order, and
pressure sums accumulate in sequence (``np.cumsum``; ``np.sum`` would
sum pairwise and round differently).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.engine.kernels import (
    CATEGORIES,
    KINDS,
    KernelCategory,
    KernelRecord,
    KernelTable,
    pressure_of,
)


@dataclass
class KernelBreakdown:
    """Total kernel time per category for one rank (or aggregated)."""

    seconds: dict[KernelCategory, float] = field(default_factory=dict)

    def add(self, category: KernelCategory, duration_s: float) -> None:
        self.seconds[category] = self.seconds.get(category, 0.0) + duration_s

    def total(self) -> float:
        """Total kernel time across categories."""
        return sum(self.seconds.values())

    def fraction(self, category: KernelCategory) -> float:
        """Share of total kernel time spent in ``category``."""
        total = self.total()
        if total == 0:
            return 0.0
        return self.seconds.get(category, 0.0) / total

    def get(self, category: KernelCategory) -> float:
        """Seconds spent in ``category``."""
        return self.seconds.get(category, 0.0)

    def scaled(self, factor: float) -> "KernelBreakdown":
        """A copy with every bucket multiplied by ``factor``."""
        copy = KernelBreakdown()
        for category, seconds in self.seconds.items():
            copy.add(category, seconds * factor)
        return copy


def _as_table(records: KernelTable | list[KernelRecord]) -> KernelTable:
    """``records`` as a :class:`KernelTable` (no copy when it is one)."""
    if isinstance(records, KernelTable):
        return records
    return KernelTable.from_records(records)


def filter_records(
    records: KernelTable | list[KernelRecord],
    iteration: int | None = None,
    min_iteration: int | None = None,
) -> KernelTable:
    """Select records of one iteration, or from ``min_iteration`` onward."""
    table = _as_table(records)
    mask = np.ones(len(table), dtype=bool)
    if iteration is not None:
        mask &= table.iteration == iteration
    if min_iteration is not None:
        mask &= table.iteration >= min_iteration
    return table if mask.all() else table[mask]


def per_rank_breakdown(
    records: KernelTable | list[KernelRecord],
) -> dict[int, KernelBreakdown]:
    """Kernel-category time per logical rank (Figures 11, 15).

    Ranks appear in first-record order, and each rank's categories in
    the order of their first record on that rank.
    """
    table = _as_table(records)
    if not len(table):
        return {}
    ncat = len(CATEGORIES)
    pair = table.rank.astype(np.int64) * ncat + table.category_code
    sums = np.bincount(pair, weights=table.duration_s).tolist()
    # Walking (rank, category) pairs in first-record order inserts each
    # rank at its first record and its categories in their order.
    pairs, first = np.unique(pair, return_index=True)
    out: dict[int, KernelBreakdown] = {}
    for code in pairs[np.argsort(first)].tolist():
        rank, category = divmod(code, ncat)
        out.setdefault(rank, KernelBreakdown()).add(
            CATEGORIES[category], sums[code]
        )
    return out


def mean_breakdown(
    records: KernelTable | list[KernelRecord],
) -> KernelBreakdown:
    """Kernel-category time averaged across ranks (Figures 3, 7, 8)."""
    return rank_mean(per_rank_breakdown(records))


def rank_mean(per_rank: dict[int, KernelBreakdown]) -> KernelBreakdown:
    """:func:`mean_breakdown` of an already computed
    :func:`per_rank_breakdown`."""
    if not per_rank:
        return KernelBreakdown()
    mean = KernelBreakdown()
    for breakdown in per_rank.values():
        for category, seconds in breakdown.seconds.items():
            mean.add(category, seconds / len(per_rank))
    return mean


def comm_skew(records: KernelTable | list[KernelRecord]) -> float:
    """Max/mean ratio of per-rank communication time (>= 1.0).

    The paper uses cross-rank communication-time skew to show load
    imbalance under TP-heavy configurations (Figure 3, Section 4.2).
    """
    return rank_skew(per_rank_breakdown(records))


def rank_skew(per_rank: dict[int, KernelBreakdown]) -> float:
    """:func:`comm_skew` of an already computed
    :func:`per_rank_breakdown`."""
    comm_categories = (
        KernelCategory.ALLREDUCE,
        KernelCategory.SENDRECV,
        KernelCategory.ALLTOALL,
        KernelCategory.ALLGATHER_RS,
    )
    totals = [
        sum(b.get(c) for c in comm_categories) for b in per_rank.values()
    ]
    if not totals:
        return 1.0
    mean = sum(totals) / len(totals)
    if mean == 0:
        return 1.0
    return max(totals) / mean


@dataclass(frozen=True)
class PressureSummary:
    """Time-weighted scheduler pressure of a run (Figure 20 bars)."""

    occupancy: float
    warps_per_sm: float
    threadblocks_per_sm: float


#: Per kind code: occupancy, warps and threadblocks of its profile.
_PROFILE_COLUMNS = tuple(
    np.array([getattr(pressure_of(kind), name) for kind in KINDS])
    for name in ("occupancy", "warps_per_sm", "threadblocks_per_sm")
)


def pressure_summary(
    records: KernelTable | list[KernelRecord], wall_time_s: float
) -> PressureSummary:
    """Average occupancy/warps/threadblocks over a run's wall time.

    Idle time contributes zero pressure; concurrent kernels (overlap)
    stack, matching how DCGM-style counters report them.
    """
    if wall_time_s <= 0:
        raise ValueError("wall_time_s must be positive")
    table = _as_table(records)
    if not len(table):
        return PressureSummary(0.0, 0.0, 0.0)
    weight = table.duration_s / wall_time_s
    occupancy, warps, blocks = (
        float(np.cumsum(profile[table.kind_code] * weight)[-1])
        for profile in _PROFILE_COLUMNS
    )
    gpus = len(np.unique(table.gpu))
    return PressureSummary(
        occupancy=min(1.0, occupancy / gpus),
        warps_per_sm=warps / gpus,
        threadblocks_per_sm=blocks / gpus,
    )
