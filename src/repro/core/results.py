"""Run results: the public view over one simulated training run.

A :class:`RunResult` wraps the raw simulator outcome with the paper's
measurement conventions: warm-up iterations are discarded, and all summary
metrics (throughput, energy efficiency, power/thermal statistics, kernel
breakdowns) are computed over the measured window only.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.kernels import KernelTable
from repro.engine.simulator import SimOutcome
from repro.hardware.cluster import ClusterSpec
from repro.models.config import ModelConfig
from repro.parallelism.strategy import OptimizationConfig, ParallelismConfig
from repro.telemetry.metrics import (
    ClusterStats,
    EfficiencySummary,
    efficiency_summary,
    front_rear_gap_c,
    temperature_heatmap,
    window_stats,
)
from repro.trace.chakra import (
    KernelBreakdown,
    comm_skew,
    filter_records,
    mean_breakdown,
    per_rank_breakdown,
    pressure_summary,
    rank_mean,
    rank_skew,
)


@dataclass
class RunResult:
    """Outcome of one training/inference run, with derived metrics.

    Attributes:
        model: workload.
        cluster: platform.
        parallelism: strategy (with DP filled in).
        optimizations: optimization toggles.
        microbatch_size: microbatch size used.
        warmup_iterations: iterations discarded before measurement.
        outcome: raw simulator output.
        placement: logical-rank -> physical-GPU permutation used.
    """

    model: ModelConfig
    cluster: ClusterSpec
    parallelism: ParallelismConfig
    optimizations: OptimizationConfig
    microbatch_size: int
    warmup_iterations: int
    outcome: SimOutcome
    placement: tuple[int, ...] = ()

    #: :meth:`summary`'s memo. A class attribute, not a field, so it
    #: takes no part in ``==`` or ``repr``; :meth:`__getstate__` keeps
    #: it out of pickles.
    _summary = None

    def __post_init__(self) -> None:
        if not 0 <= self.warmup_iterations < self.outcome.num_iterations:
            raise ValueError(
                "warmup_iterations must leave at least one measured iteration"
            )
        if not self.placement:
            self.placement = tuple(range(self.cluster.total_gpus))

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_summary", None)
        return state

    # -- measurement window -------------------------------------------

    @property
    def window_start_s(self) -> float:
        """Start of the measured window (end of the last warm-up)."""
        if self.warmup_iterations == 0:
            return 0.0
        return self.outcome.iteration_end_s[self.warmup_iterations - 1]

    @property
    def window_end_s(self) -> float:
        """End of the measured window (end of the final iteration)."""
        return self.outcome.iteration_end_s[-1]

    @property
    def measured_iterations(self) -> int:
        """Iterations inside the measured window."""
        return self.outcome.num_iterations - self.warmup_iterations

    @property
    def measured_tokens(self) -> int:
        """Tokens processed inside the measured window."""
        return self.outcome.tokens_per_iteration * self.measured_iterations

    def measured_records(self) -> KernelTable:
        """Kernel records of the measured iterations (iterate the table
        for :class:`~repro.engine.kernels.KernelRecord` rows)."""
        return filter_records(
            self.outcome.records, min_iteration=self.warmup_iterations
        )

    # -- headline metrics -----------------------------------------------

    def efficiency(self, energy_j: float | None = None) -> EfficiencySummary:
        """Throughput and energy efficiency over the measured window.

        ``energy_j`` is the window's cluster energy when the caller has
        already integrated it.
        """
        return efficiency_summary(
            self.outcome.telemetry,
            tokens=self.measured_tokens,
            start_s=self.window_start_s,
            end_s=self.window_end_s,
            num_gpus=self.cluster.total_gpus,
            num_iterations=self.measured_iterations,
            energy_j=energy_j,
        )

    def stats(self) -> ClusterStats:
        """Power/thermal/clock statistics over the measured window."""
        return window_stats(
            self.outcome.telemetry, self.window_start_s, self.window_end_s
        )

    def kernel_breakdown(self) -> KernelBreakdown:
        """Mean per-rank kernel time by category, per measured iteration."""
        breakdown = mean_breakdown(self.measured_records())
        return breakdown.scaled(1.0 / self.measured_iterations)

    def rank_breakdowns(self) -> dict[int, KernelBreakdown]:
        """Per-rank kernel time by category over the measured window."""
        return per_rank_breakdown(self.measured_records())

    def communication_skew(self) -> float:
        """Max/mean cross-rank communication time ratio."""
        return comm_skew(self.measured_records())

    def temperature_heatmap(self):
        """(node, local GPU) mean-temperature matrix."""
        return temperature_heatmap(self.stats(), self.cluster)

    def front_rear_gap_c(self) -> float:
        """Rear-minus-front mean temperature gap in degC."""
        return front_rear_gap_c(self.stats(), self.cluster)

    def throttle_ratio(self) -> list[float]:
        """Per-GPU fraction of time spent clock-throttled."""
        return self.outcome.throttle_ratio

    # -- power control ---------------------------------------------------

    def per_gpu_energy_j(self) -> list[float]:
        """Per-GPU energy (trapezoidal) over the measured window."""
        return self.outcome.telemetry.gpu_energy_joules(
            self.window_start_s, self.window_end_s
        )

    def per_gpu_mean_power_w(self) -> list[float]:
        """Per-GPU mean board power over the measured window."""
        return [g.avg_power_w for g in self.stats().per_gpu]

    def power_control_trace(self):
        """Setpoint timeline/decision log of the run's powerctl governor.

        None when the run had power control disabled.
        """
        return self.outcome.power_control

    def governor_decisions(self) -> list[str]:
        """Human-readable powerctl actuation log (empty when inactive)."""
        trace = self.outcome.power_control
        return list(trace.decisions) if trace is not None else []

    # -- resilience ------------------------------------------------------

    def fault_trace(self):
        """Applied fault transitions and detected hangs of the run.

        None when the run had an empty fault timeline.
        """
        return self.outcome.fault_trace

    def fault_events_applied(self) -> int:
        """Fault onsets that actually fired inside the run (0 if none)."""
        trace = self.outcome.fault_trace
        return trace.applied if trace is not None else 0

    def hang_detections(self) -> list[str]:
        """Human-readable collective-timeout log (empty when inactive)."""
        trace = self.outcome.fault_trace
        return (
            [e.detail for e in trace.hangs] if trace is not None else []
        )

    def pressure(self):
        """Time-weighted occupancy/warps/threadblocks (Figure 20)."""
        window = self.window_end_s - self.window_start_s
        return pressure_summary(self.measured_records(), window)

    # -- summary -----------------------------------------------------------

    def summary(self) -> dict:
        """JSON-serialisable headline metrics of the run.

        Computed on the first call and kept with the result. Every call
        returns a fresh copy, so a caller may add keys or edit the
        per-GPU energy list or the kernel-seconds dict without changing
        later answers.
        """
        summary = self._summary
        if summary is None:
            summary = self._summary = self._compute_summary()
        return {
            **summary,
            "per_gpu_energy_j": list(summary["per_gpu_energy_j"]),
            "kernel_seconds": dict(summary["kernel_seconds"]),
        }

    def _compute_summary(self) -> dict:
        """:meth:`summary`, computing each part once: one record
        filter, one per-rank breakdown, one :func:`window_stats` and
        one energy integral."""
        per_rank = per_rank_breakdown(self.measured_records())
        stats = self.stats()
        per_gpu_energy = self.per_gpu_energy_j()
        # Adds the GPUs in id order, as TelemetryLog.total_energy_joules.
        efficiency = self.efficiency(energy_j=sum(per_gpu_energy))
        breakdown = rank_mean(per_rank).scaled(1.0 / self.measured_iterations)
        power_control = self.outcome.power_control
        return {
            "model": self.model.name,
            "cluster": self.cluster.name,
            "parallelism": self.parallelism.name,
            "dp": self.parallelism.dp,
            "optimizations": self.optimizations.label,
            "microbatch_size": self.microbatch_size,
            "measured_iterations": self.measured_iterations,
            "step_time_s": efficiency.step_time_s,
            "tokens_per_s": efficiency.tokens_per_s,
            "tokens_per_s_per_gpu": efficiency.tokens_per_s_per_gpu,
            "tokens_per_joule": efficiency.tokens_per_joule,
            "energy_j": efficiency.energy_j,
            "avg_power_w": stats.avg_power_w,
            "peak_power_w": stats.peak_power_w,
            "avg_temp_c": stats.avg_temp_c,
            "peak_temp_c": stats.peak_temp_c,
            "mean_freq_ratio": stats.mean_freq_ratio,
            "front_rear_gap_c": front_rear_gap_c(stats, self.cluster),
            "max_throttle_ratio": max(self.throttle_ratio()),
            "communication_skew": rank_skew(per_rank),
            "per_gpu_energy_j": per_gpu_energy,
            "power_governor": (
                power_control.governor if power_control is not None
                else "none"
            ),
            "fault_events_applied": self.fault_events_applied(),
            "hangs_detected": len(self.hang_detections()),
            "kernel_seconds": {
                category.value: seconds
                for category, seconds in breakdown.seconds.items()
            },
        }

    # -- naming ----------------------------------------------------------

    @property
    def label(self) -> str:
        """Human-readable run identifier for result tables."""
        return (
            f"{self.model.name}/{self.cluster.name}/"
            f"{self.parallelism.name}/mb{self.microbatch_size}/"
            f"{self.optimizations.label}"
        )
