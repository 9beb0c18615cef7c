"""Shared helpers for the per-figure benchmark harness.

Every ``test_fig*`` / ``test_table*`` module regenerates one table or
figure of the paper: it runs the relevant configuration grid through the
simulator (memoised per process, so figures that share configurations pay
once), prints the same rows/series the paper reports, and asserts the
qualitative shape — who wins, the direction of each effect, where the
crossovers fall. Absolute numbers are not expected to match the paper
(the substrate is a simulator, not the authors' testbed).

Run with::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

from typing import Iterable

from repro.api import SimRequest, submit
from repro.core.results import RunResult
from repro.engine.kernels import KernelCategory
from repro.parallelism.strategy import OptimizationConfig

PAPER_GLOBAL_BATCH = 128

BASE = OptimizationConfig()
ACT = OptimizationConfig(activation_recompute=True)
CC = OptimizationConfig(cc_overlap=True)
ACT_CC = OptimizationConfig(activation_recompute=True, cc_overlap=True)

COMM_CATEGORIES = (
    KernelCategory.ALLREDUCE,
    KernelCategory.SENDRECV,
    KernelCategory.ALLTOALL,
    KernelCategory.ALLGATHER_RS,
)


def train(
    model: str,
    cluster: str,
    parallelism: str,
    optimizations: OptimizationConfig = BASE,
    microbatch_size: int = 1,
    global_batch_size: int = PAPER_GLOBAL_BATCH,
) -> RunResult:
    """Memoised paper-scale training run."""
    return submit(SimRequest(
        model=model,
        cluster=cluster,
        parallelism=parallelism,
        optimizations=optimizations,
        microbatch_size=microbatch_size,
        global_batch_size=global_batch_size,
    ))


def infer(
    model: str,
    cluster: str,
    parallelism: str,
    microbatch_size: int = 1,
    global_batch_size: int = PAPER_GLOBAL_BATCH,
) -> RunResult:
    """Memoised paper-scale inference run."""
    return submit(SimRequest(
        kind="inference",
        model=model,
        cluster=cluster,
        parallelism=parallelism,
        microbatch_size=microbatch_size,
        global_batch_size=global_batch_size,
    ))


def comm_seconds(result: RunResult) -> float:
    """Total communication kernel time per iteration (mean across ranks)."""
    breakdown = result.kernel_breakdown()
    return sum(breakdown.get(c) for c in COMM_CATEGORIES)


def compute_seconds(result: RunResult) -> float:
    """Compute kernel time per iteration (mean across ranks)."""
    return result.kernel_breakdown().get(KernelCategory.COMPUTE)


def print_table(
    title: str, header: list[str], rows: Iterable[Iterable]
) -> None:
    """Print a paper-style result table."""
    rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) if rows
        else len(header[i])
        for i in range(len(header))
    ]
    print(f"\n=== {title} ===")
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000:
            return f"{cell:,.0f}"
        if abs(cell) >= 10:
            return f"{cell:.1f}"
        return f"{cell:.3f}"
    return str(cell)
