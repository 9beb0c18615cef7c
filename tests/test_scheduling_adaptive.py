"""Tests for adaptive, telemetry-driven scheduling (Section 7.3)."""

import pytest

from repro.core.experiment import execute_training
from repro.core.sweep import clear_cache
from repro.engine.simulator import SimSettings
from repro.scheduling.adaptive import (
    adaptive_microbatch,
    speed_balanced_stage_layers,
    stage_mean_clock,
)

FAST = SimSettings(physics_dt_s=0.02, telemetry_interval_s=0.05)


@pytest.fixture(scope="module")
def throttled_run():
    """A pipeline whose odd stages land on hot (rear) GPUs and throttle."""
    return execute_training(
        model="gpt3-30b",
        cluster="h200x32",
        parallelism="TP4-PP8-DP1",
        microbatch_size=1,
        global_batch_size=64,
        settings=FAST,
    )


class TestStageMeanClock:
    def test_one_value_per_stage(self, throttled_run):
        clocks = stage_mean_clock(throttled_run)
        assert len(clocks) == 8
        assert all(0 < c <= 1.0 for c in clocks)

    def test_detects_hot_stage_throttling(self, throttled_run):
        """Consecutive-ID placement puts odd stages on rear GPUs, which
        throttle; their measured clocks must be lower."""
        clocks = stage_mean_clock(throttled_run)
        even = [clocks[s] for s in range(0, 8, 2)]
        odd = [clocks[s] for s in range(1, 8, 2)]
        assert min(even) > max(odd)


class TestSpeedBalancedLayers:
    def test_preserves_total_and_floor(self, throttled_run):
        layers = speed_balanced_stage_layers(throttled_run)
        assert sum(layers) == throttled_run.model.num_layers
        assert min(layers) >= 1

    def test_offloads_throttled_stages(self, throttled_run):
        layers = speed_balanced_stage_layers(throttled_run)
        clocks = stage_mean_clock(throttled_run)
        fastest = max(range(8), key=lambda s: clocks[s])
        slowest = min(range(8), key=lambda s: clocks[s])
        assert layers[fastest] > layers[slowest]

    def test_custom_layer_total(self, throttled_run):
        layers = speed_balanced_stage_layers(throttled_run, num_layers=96)
        assert sum(layers) == 96

    def test_rebalanced_run_executes_and_helps(self, throttled_run):
        """The closed loop: re-run with the measured split; throughput
        should not regress (hot stages carry less work)."""
        layers = speed_balanced_stage_layers(throttled_run)
        rebalanced = execute_training(
            model="gpt3-30b",
            cluster="h200x32",
            parallelism="TP4-PP8-DP1",
            microbatch_size=1,
            global_batch_size=64,
            stage_layers=layers,
            settings=FAST,
        )
        assert (
            rebalanced.efficiency().tokens_per_s
            > 0.97 * throttled_run.efficiency().tokens_per_s
        )

    def test_requires_pipeline(self):
        run = execute_training(
            model="gpt3-13b",
            cluster="mi250x32",
            parallelism="TP8-PP1",
            microbatch_size=1,
            global_batch_size=32,
            settings=FAST,
        )
        with pytest.raises(ValueError):
            speed_balanced_stage_layers(run)


class TestAdaptiveMicrobatch:
    def test_picks_a_divisible_candidate(self):
        clear_cache()
        best_mb, result = adaptive_microbatch(
            model="gpt3-13b",
            cluster="mi250x32",
            parallelism="TP8-PP1",
            candidates=(1, 2, 3),
            global_batch_size=16,
        )
        assert best_mb in (1, 2)
        assert result.microbatch_size == best_mb

    def test_mi250_prefers_larger_microbatches(self):
        """On the MI250, larger microbatches win (Figure 14)."""
        clear_cache()
        best_mb, _ = adaptive_microbatch(
            model="gpt3-13b",
            cluster="mi250x32",
            parallelism="TP8-PP1",
            candidates=(1, 4),
            global_batch_size=64,
        )
        assert best_mb == 4

    def test_no_valid_candidate_raises(self):
        with pytest.raises(ValueError):
            adaptive_microbatch(
                model="gpt3-13b",
                cluster="mi250x32",
                parallelism="TP8-PP1",
                candidates=(3,),
                global_batch_size=16,
            )
