"""Tests for the artifact-style results writer."""

import dataclasses
import json
import pickle

import pytest

from repro.core.artifact import (
    read_run_summary,
    run_summary,
    write_run_artifact,
)
from repro.core.experiment import execute_training
from repro.engine.simulator import SimSettings
from repro.telemetry.export import read_telemetry_csv
from repro.trace.export import read_trace_csv

FAST = SimSettings(physics_dt_s=0.01, telemetry_interval_s=0.02)


@pytest.fixture(scope="module")
def result():
    return execute_training(
        model="gpt3-13b",
        cluster="mi250x32",
        parallelism="TP2-PP4",
        microbatch_size=1,
        global_batch_size=16,
        settings=FAST,
    )


class TestRunSummary:
    def test_contains_headline_metrics(self, result):
        summary = run_summary(result)
        assert summary["model"] == "gpt3-13b"
        assert summary["parallelism"] == "TP2-PP4"
        assert summary["tokens_per_s"] > 0
        assert summary["peak_temp_c"] > 20
        assert "Compute" in summary["kernel_seconds"]

    def test_json_serialisable(self, result):
        json.dumps(run_summary(result))


class TestSummaryMemo:
    """``run_summary`` is computed once per result and handed out as a
    copy; the memo stays out of pickles, ``==`` and ``repr``."""

    def test_cached_equals_fresh_and_per_metric(self, result):
        run_summary(result)
        cached = run_summary(result)
        fresh = dataclasses.replace(result)
        assert fresh._summary is None
        reference = _per_metric_summary(result)
        assert cached == run_summary(fresh) == reference
        # Float reprs too: == does not tell 0.0 from -0.0.
        assert json.dumps(cached) == json.dumps(reference)

    def test_mutating_an_answer_leaves_the_next_unchanged(self, result):
        expected = run_summary(dataclasses.replace(result))
        answer = run_summary(result)
        answer["request_digest"] = "abc"
        answer["model"] = "other"
        answer["per_gpu_energy_j"][0] = -1.0
        answer["per_gpu_energy_j"].append(1.0)
        answer["kernel_seconds"]["Compute"] = -1.0
        answer["kernel_seconds"]["Other"] = 1.0
        assert run_summary(result) == expected

    def test_memo_stays_out_of_pickle_eq_and_repr(self, result):
        fresh = dataclasses.replace(result)
        before = pickle.dumps(fresh, protocol=pickle.HIGHEST_PROTOCOL)
        before_repr = repr(fresh)
        run_summary(fresh)
        assert fresh._summary is not None
        assert pickle.dumps(
            fresh, protocol=pickle.HIGHEST_PROTOCOL
        ) == before
        assert repr(fresh) == before_repr
        assert fresh == dataclasses.replace(result)
        assert pickle.loads(before)._summary is None


def _per_metric_summary(result) -> dict:
    """The summary assembled from the result's public per-metric
    methods, each computing its own parts (the reference)."""
    efficiency = result.efficiency()
    stats = result.stats()
    control = result.outcome.power_control
    return {
        "model": result.model.name,
        "cluster": result.cluster.name,
        "parallelism": result.parallelism.name,
        "dp": result.parallelism.dp,
        "optimizations": result.optimizations.label,
        "microbatch_size": result.microbatch_size,
        "measured_iterations": result.measured_iterations,
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
        "front_rear_gap_c": result.front_rear_gap_c(),
        "max_throttle_ratio": max(result.throttle_ratio()),
        "communication_skew": result.communication_skew(),
        "per_gpu_energy_j": result.per_gpu_energy_j(),
        "power_governor": (
            control.governor if control is not None else "none"
        ),
        "fault_events_applied": result.fault_events_applied(),
        "hangs_detected": len(result.hang_detections()),
        "kernel_seconds": {
            category.value: seconds
            for category, seconds in result.kernel_breakdown().seconds.items()
        },
    }


class TestWriteArtifact:
    def test_layout(self, result, tmp_path):
        directory = write_run_artifact(result, tmp_path / "run1")
        assert (directory / "summary.json").exists()
        assert (directory / "telemetry.csv").exists()
        assert (directory / "trace.csv").exists()

    def test_summary_round_trip(self, result, tmp_path):
        directory = write_run_artifact(result, tmp_path / "run2")
        loaded = read_run_summary(directory)
        assert loaded == run_summary(result)

    def test_telemetry_readable(self, result, tmp_path):
        directory = write_run_artifact(result, tmp_path / "run3")
        telemetry = read_telemetry_csv(directory / "telemetry.csv")
        assert len(telemetry) == 32  # one series per GPU

    def test_trace_covers_measured_window_only(self, result, tmp_path):
        directory = write_run_artifact(result, tmp_path / "run4")
        records = read_trace_csv(directory / "trace.csv")
        assert records
        assert all(r.iteration >= result.warmup_iterations for r in records)
