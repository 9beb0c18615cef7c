"""Derived telemetry metrics: the numbers the paper's figures plot.

Everything here consumes a :class:`~repro.telemetry.monitor.TelemetryLog`
window and produces the per-figure aggregates: average/peak power and
temperature, mean clock, per-GPU heatmap rows, front-vs-rear thermal gaps,
throughput and energy efficiency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hardware.cluster import ClusterSpec
from repro.telemetry.monitor import TelemetryLog, gpu_rows


@dataclass(frozen=True)
class GpuStats:
    """Window statistics of one GPU."""

    avg_power_w: float
    peak_power_w: float
    avg_temp_c: float
    peak_temp_c: float
    mean_freq_ratio: float
    avg_pcie_bytes_per_s: float


@dataclass(frozen=True)
class ClusterStats:
    """Window statistics across the whole cluster."""

    per_gpu: tuple[GpuStats, ...]
    avg_power_w: float
    peak_power_w: float
    avg_temp_c: float
    peak_temp_c: float
    mean_freq_ratio: float

    def hottest_gpu(self) -> int:
        """Index of the GPU with the highest average temperature."""
        return max(
            range(len(self.per_gpu)), key=lambda g: self.per_gpu[g].avg_temp_c
        )

    def coolest_gpu(self) -> int:
        """Index of the GPU with the lowest average temperature."""
        return min(
            range(len(self.per_gpu)), key=lambda g: self.per_gpu[g].avg_temp_c
        )


def _per_gpu_mean_max(matrix: np.ndarray) -> tuple[list, list]:
    """Per-GPU mean and max of a ``(samples, gpus)`` matrix."""
    rows = gpu_rows(matrix)
    return rows.mean(axis=1).tolist(), rows.max(axis=1).tolist()


def window_stats(
    telemetry: TelemetryLog,
    start_s: float = 0.0,
    end_s: float = float("inf"),
) -> ClusterStats:
    """Compute per-GPU and aggregate statistics over a time window."""
    times, power, temp, freq, _, _, pcie = telemetry.window(start_s, end_s)
    if len(times) == 0 or telemetry.num_gpus == 0:
        per_gpu = [GpuStats(0.0, 0.0, 0.0, 0.0, 1.0, 0.0)] * (
            telemetry.num_gpus
        )
        avg_power = peak_power = 0.0
    else:
        avg_power_w, peak_power_w = _per_gpu_mean_max(power)
        avg_temp_c, peak_temp_c = _per_gpu_mean_max(temp)
        mean_freq_ratio, _ = _per_gpu_mean_max(freq)
        avg_pcie, _ = _per_gpu_mean_max(pcie)
        per_gpu = [
            GpuStats(*row)
            for row in zip(avg_power_w, peak_power_w, avg_temp_c,
                           peak_temp_c, mean_freq_ratio, avg_pcie)
        ]
        total = gpu_rows(power).sum(axis=0)
        avg_power = float(total.mean())
        peak_power = float(total.max())
    return ClusterStats(
        per_gpu=tuple(per_gpu),
        avg_power_w=avg_power,
        peak_power_w=peak_power,
        avg_temp_c=float(
            np.mean([g.avg_temp_c for g in per_gpu]) if per_gpu else 0.0
        ),
        peak_temp_c=float(
            np.max([g.peak_temp_c for g in per_gpu]) if per_gpu else 0.0
        ),
        mean_freq_ratio=float(
            np.mean([g.mean_freq_ratio for g in per_gpu]) if per_gpu else 1.0
        ),
    )


def temperature_heatmap(
    stats: ClusterStats, cluster: ClusterSpec
) -> np.ndarray:
    """Average temperature as a (node, local GPU) matrix (Figures 17a/18a)."""
    per_node = cluster.node.gpus_per_node
    matrix = np.zeros((cluster.num_nodes, per_node))
    for gpu, gpu_stats in enumerate(stats.per_gpu):
        matrix[gpu // per_node, gpu % per_node] = gpu_stats.avg_temp_c
    return matrix


def normalized_heatmap(matrix: np.ndarray) -> np.ndarray:
    """Row-normalise a heatmap to [0, 1] (the paper's Figures 17b/18b)."""
    out = np.zeros_like(matrix, dtype=float)
    for i, row in enumerate(matrix):
        span = row.max() - row.min()
        out[i] = (row - row.min()) / span if span > 0 else 0.0
    return out


def front_rear_gap_c(stats: ClusterStats, cluster: ClusterSpec) -> float:
    """Mean rear-GPU minus mean front-GPU average temperature (degC)."""
    node = cluster.node
    depths = [node.depth_of(i) for i in range(node.gpus_per_node)]
    median = sorted(depths)[len(depths) // 2]
    front, rear = [], []
    for gpu, gpu_stats in enumerate(stats.per_gpu):
        local = gpu % node.gpus_per_node
        (rear if depths[local] >= median else front).append(
            gpu_stats.avg_temp_c
        )
    if not front or not rear:
        return 0.0
    return float(np.mean(rear) - np.mean(front))


@dataclass(frozen=True)
class EfficiencySummary:
    """Throughput and energy efficiency of the measured window.

    Attributes:
        tokens_per_s: cluster training throughput.
        tokens_per_s_per_gpu: per-device throughput (scale comparisons).
        energy_j: cluster energy over the window.
        tokens_per_joule: energy efficiency, the paper's second Figure 2
            axis (inverse of energy per token).
        step_time_s: mean iteration wall time.
    """

    tokens_per_s: float
    tokens_per_s_per_gpu: float
    energy_j: float
    tokens_per_joule: float
    step_time_s: float


def efficiency_summary(
    telemetry: TelemetryLog,
    tokens: int,
    start_s: float,
    end_s: float,
    num_gpus: int,
    num_iterations: int,
    energy_j: float | None = None,
) -> EfficiencySummary:
    """Throughput/energy summary for ``tokens`` processed in a window.

    ``energy_j`` is the window's cluster energy when the caller has
    already integrated it (:meth:`TelemetryLog.total_energy_joules`).
    """
    duration = end_s - start_s
    if duration <= 0:
        raise ValueError("window must have positive duration")
    energy = (
        telemetry.total_energy_joules(start_s, end_s)
        if energy_j is None else energy_j
    )
    return EfficiencySummary(
        tokens_per_s=tokens / duration,
        tokens_per_s_per_gpu=tokens / duration / num_gpus,
        energy_j=energy,
        tokens_per_joule=tokens / energy if energy > 0 else 0.0,
        step_time_s=duration / max(1, num_iterations),
    )
