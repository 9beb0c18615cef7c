"""Tests for telemetry sampling, derived metrics, and CSV export."""

import numpy as np
import pytest

from repro.hardware.cluster import H200_X32
from repro.telemetry.export import read_telemetry_csv, write_telemetry_csv
from repro.telemetry.metrics import (
    efficiency_summary,
    front_rear_gap_c,
    normalized_heatmap,
    temperature_heatmap,
    window_stats,
)
from repro.telemetry.monitor import TelemetryLog


def _make_log(num_gpus=4, samples=10, dt=0.1) -> TelemetryLog:
    log = TelemetryLog(num_gpus=num_gpus, sample_interval_s=dt)
    gpu = np.arange(num_gpus)
    for i in range(samples):
        log.record_step(
            i * dt,
            power_w=500.0 + 10 * gpu,
            temp_c=60.0 + 5 * gpu + 0.1 * i,
            freq_ratio=1.0 - 0.02 * gpu,
            compute_util=np.ones(num_gpus),
            comm_util=np.zeros(num_gpus),
            pcie_bytes_per_s=1e9 * gpu,
        )
    return log


def _one_sample_log(temps) -> TelemetryLog:
    """One sample per GPU at t=0: 500 W, full compute, given die temps."""
    log = TelemetryLog(num_gpus=len(temps), sample_interval_s=0.1)
    ones, zeros = np.ones(len(temps)), np.zeros(len(temps))
    log.record_step(0.0, 500.0 * ones, temps, ones, ones, zeros, zeros)
    return log


@pytest.fixture(scope="module")
def throttling_run():
    """A run whose clocks and powers differ per GPU."""
    from repro.core.experiment import execute_training

    outcome = execute_training(
        model="gpt3-13b", cluster="h200x32", parallelism="TP4-PP2",
        microbatch_size=1, global_batch_size=32, iterations=2,
    ).outcome
    assert max(outcome.throttle_ratio) > 0.1
    return outcome


class TestTelemetryLog:
    def test_series_arrays_aligned(self):
        log = _make_log()
        series = log.series(2)
        assert len(series.times_s) == 10
        assert series.power_w[0] == pytest.approx(520.0)

    def test_window_selection(self):
        log = _make_log()
        window = log.series(0).window(0.25, 0.65)
        assert len(window.times_s) == 4

    def test_energy_integral(self):
        log = _make_log(num_gpus=1, samples=11)
        # Constant 500 W over 1 s.
        assert log.series(0).energy_joules() == pytest.approx(500.0)

    def test_total_energy_sums_gpus(self):
        log = _make_log(num_gpus=2, samples=11)
        total = log.total_energy_joules()
        assert total == pytest.approx(500.0 + 510.0)

    def test_aggregate_power(self):
        log = _make_log(num_gpus=2)
        times, power = log.aggregate_power()
        assert power[0] == pytest.approx(1010.0)
        assert len(times) == 10

    def test_empty_series_energy_zero(self):
        log = TelemetryLog(num_gpus=1, sample_interval_s=0.1)
        assert log.series(0).energy_joules() == 0.0


class TestWindowStats:
    def test_per_gpu_and_aggregate(self):
        stats = window_stats(_make_log())
        assert len(stats.per_gpu) == 4
        assert stats.per_gpu[3].avg_power_w == pytest.approx(530.0)
        assert stats.avg_power_w == pytest.approx(500 + 510 + 520 + 530)
        assert stats.peak_temp_c > stats.per_gpu[0].avg_temp_c

    def test_hottest_coolest(self):
        stats = window_stats(_make_log())
        assert stats.hottest_gpu() == 3
        assert stats.coolest_gpu() == 0

    def test_empty_window(self):
        stats = window_stats(_make_log(), start_s=100.0, end_s=200.0)
        assert stats.avg_power_w == 0.0

    @pytest.mark.parametrize("window", [
        (0.0, float("inf")), "measured", (100.0, 200.0),
    ])
    def test_float_bits_match_per_gpu_series_loop(self, throttling_run,
                                                  window):
        """The matrix path keeps every float of the per-GPU loop it
        replaced, on a run whose clocks and powers differ per GPU."""
        telemetry = throttling_run.telemetry
        if window == "measured":
            window = (throttling_run.iteration_end_s[0],
                      throttling_run.makespan_s)
        assert window_stats(telemetry, *window) == (
            _series_loop_window_stats(telemetry, *window)
        )


def _series_loop_window_stats(telemetry, start_s, end_s):
    """``window_stats`` as a loop over per-GPU series (the reference)."""
    from repro.telemetry.metrics import ClusterStats, GpuStats

    per_gpu, powers = [], []
    for gpu in range(telemetry.num_gpus):
        series = telemetry.series(gpu).window(start_s, end_s)
        if len(series.times_s) == 0:
            per_gpu.append(GpuStats(0.0, 0.0, 0.0, 0.0, 1.0, 0.0))
            continue
        per_gpu.append(GpuStats(
            avg_power_w=float(series.power_w.mean()),
            peak_power_w=float(series.power_w.max()),
            avg_temp_c=float(series.temp_c.mean()),
            peak_temp_c=float(series.temp_c.max()),
            mean_freq_ratio=float(series.freq_ratio.mean()),
            avg_pcie_bytes_per_s=float(series.pcie_bytes_per_s.mean()),
        ))
        powers.append(series.power_w)
    avg_power = peak_power = 0.0
    if powers:
        total = np.sum(powers, axis=0)
        avg_power, peak_power = float(total.mean()), float(total.max())
    return ClusterStats(
        per_gpu=tuple(per_gpu),
        avg_power_w=avg_power,
        peak_power_w=peak_power,
        avg_temp_c=float(np.mean([g.avg_temp_c for g in per_gpu])),
        peak_temp_c=float(np.max([g.peak_temp_c for g in per_gpu])),
        mean_freq_ratio=float(
            np.mean([g.mean_freq_ratio for g in per_gpu])
        ),
    )


class TestColumnarEnergy:
    """Per-GPU energy, total energy and aggregate power read the
    ``(samples, gpus)`` matrices and keep every float of the per-GPU
    series loops they replaced."""

    @pytest.mark.parametrize("window", [
        (0.0, float("inf")), "measured", "one-sample", (100.0, 200.0),
    ])
    def test_energy_matches_per_gpu_series_loop(self, throttling_run,
                                                window):
        telemetry = throttling_run.telemetry
        if window == "measured":
            window = (throttling_run.iteration_end_s[0],
                      throttling_run.makespan_s)
        elif window == "one-sample":
            window = _one_sample_window(telemetry)
        reference = [
            telemetry.series(gpu).window(*window).energy_joules()
            for gpu in range(telemetry.num_gpus)
        ]
        assert telemetry.gpu_energy_joules(*window) == reference
        assert telemetry.total_energy_joules(*window) == sum(reference)

    def test_short_windows_hold_zero_and_one_sample(self, throttling_run):
        """The short windows above really are that short, and both
        integrate to zero."""
        telemetry = throttling_run.telemetry
        one_sample = _one_sample_window(telemetry)
        assert len(telemetry.window(100.0, 200.0)[0]) == 0
        assert len(telemetry.window(*one_sample)[0]) == 1
        for window in ((100.0, 200.0), one_sample):
            assert telemetry.gpu_energy_joules(*window) == (
                [0.0] * telemetry.num_gpus
            )

    @pytest.mark.parametrize("log", ["run", "small", "one-sample", "empty"])
    def test_aggregate_power_matches_per_gpu_series_loop(
            self, throttling_run, log):
        log = {
            "run": throttling_run.telemetry,
            "small": _make_log(),
            "one-sample": _one_sample_log([60.0, 61.0, 62.0]),
            "empty": TelemetryLog(num_gpus=2, sample_interval_s=0.1),
        }[log]
        times, power = log.aggregate_power()
        ref_times, ref_power = _series_loop_aggregate_power(log)
        assert times.shape == ref_times.shape
        assert power.shape == ref_power.shape
        assert (times == ref_times).all() and (power == ref_power).all()


def _one_sample_window(telemetry) -> tuple[float, float]:
    """A window holding only the log's first sample."""
    first = telemetry.window()[0][0]
    return first, first + telemetry.sample_interval_s / 2


def _series_loop_aggregate_power(telemetry):
    """``aggregate_power`` as a loop over per-GPU series (the
    reference)."""
    if telemetry.num_gpus == 0 or telemetry.num_samples(0) == 0:
        return np.array([]), np.array([])
    times = telemetry.series(0).times_s
    total = np.zeros_like(times)
    for gpu in range(telemetry.num_gpus):
        total += telemetry.series(gpu).power_w
    return times, total


class TestHeatmaps:
    def test_temperature_heatmap_shape(self):
        log = _one_sample_log([60.0 + gpu % 8 for gpu in range(32)])
        matrix = temperature_heatmap(window_stats(log), H200_X32)
        assert matrix.shape == (4, 8)
        assert matrix[0, 7] > matrix[0, 0]

    def test_normalized_heatmap_range(self):
        matrix = np.array([[60.0, 70.0, 80.0], [50.0, 50.0, 50.0]])
        normalized = normalized_heatmap(matrix)
        assert normalized[0].min() == 0.0
        assert normalized[0].max() == 1.0
        assert np.all(normalized[1] == 0.0)

    def test_front_rear_gap(self):
        log = _one_sample_log(
            [80.0 if (gpu % 8) >= 4 else 65.0 for gpu in range(32)]
        )
        gap = front_rear_gap_c(window_stats(log), H200_X32)
        assert gap == pytest.approx(15.0)


class TestEfficiencySummary:
    def test_throughput_and_energy(self):
        log = _make_log(num_gpus=2, samples=11)
        summary = efficiency_summary(
            log, tokens=10_000, start_s=0.0, end_s=1.0, num_gpus=2,
            num_iterations=2,
        )
        assert summary.tokens_per_s == pytest.approx(10_000)
        assert summary.tokens_per_s_per_gpu == pytest.approx(5_000)
        assert summary.step_time_s == pytest.approx(0.5)
        assert summary.tokens_per_joule > 0

    def test_zero_window_rejected(self):
        with pytest.raises(ValueError):
            efficiency_summary(
                _make_log(), tokens=1, start_s=1.0, end_s=1.0, num_gpus=1,
                num_iterations=1,
            )


class TestCsvExport:
    def test_round_trip(self, tmp_path):
        log = _make_log(num_gpus=2, samples=5)
        path = write_telemetry_csv(log, tmp_path / "telemetry.csv")
        loaded = read_telemetry_csv(path)
        assert set(loaded) == {0, 1}
        assert len(loaded[0]) == 5
        assert loaded[1][0]["power_w"] == pytest.approx(510.0)
