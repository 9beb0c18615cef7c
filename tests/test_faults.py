"""Tests for fault injection (the paper's node power-failure incident)."""

import pytest

from repro.core.experiment import execute_training
from repro.core.faults import HEALTHY, FaultSpec, power_failure
from repro.engine.simulator import SimSettings

FAST = SimSettings(physics_dt_s=0.01, telemetry_interval_s=0.02)


class TestFaultSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(node_power_cap_scale={0: 0.0})
        with pytest.raises(ValueError):
            FaultSpec(node_max_clock={0: 1.5})
        with pytest.raises(ValueError):
            FaultSpec(node_power_cap_scale={-1: 0.5})

    def test_defaults_are_healthy(self):
        assert HEALTHY.degraded_nodes == set()
        assert HEALTHY.power_cap_scale(3) == 1.0
        assert HEALTHY.max_clock(3) == 1.0

    def test_power_failure_factory(self):
        fault = power_failure(node=2, severity=0.25)
        assert fault.power_cap_scale(2) == 0.25
        assert fault.power_cap_scale(0) == 1.0
        assert fault.degraded_nodes == {2}


class TestFaultInjection:
    def _run(self, faults=HEALTHY):
        return execute_training(
            model="gpt3-13b",
            cluster="mi250x32",
            parallelism="TP2-PP4",
            microbatch_size=1,
            global_batch_size=32,
            settings=SimSettings(
                physics_dt_s=0.01, telemetry_interval_s=0.02, faults=faults
            ),
        )

    def test_power_failure_creates_stragglers(self):
        """A degraded node slows the *whole* synchronous pipeline — the
        paper's introduction incident."""
        healthy = self._run()
        degraded = self._run(power_failure(node=1, severity=0.25))
        assert (
            degraded.efficiency().tokens_per_s
            < 0.9 * healthy.efficiency().tokens_per_s
        )

    def test_failed_node_runs_slow_clocks(self):
        degraded = self._run(power_failure(node=1, severity=0.25))
        freq = degraded.outcome.mean_freq_ratio
        failed_node = freq[8:16]  # node 1's GPUs
        healthy_node = freq[0:8]
        assert max(failed_node) < min(healthy_node)

    def test_failed_node_draws_less_power(self):
        degraded = self._run(power_failure(node=1, severity=0.25))
        stats = degraded.stats()
        failed = sum(stats.per_gpu[g].avg_power_w for g in range(8, 16))
        healthy = sum(stats.per_gpu[g].avg_power_w for g in range(0, 8))
        assert failed < healthy

    def test_pinned_clock_fault(self):
        degraded = self._run(FaultSpec(node_max_clock={0: 0.7}))
        freq = degraded.outcome.mean_freq_ratio
        assert max(freq[0:8]) <= 0.7 + 1e-9

    def test_severity_ordering(self):
        mild = self._run(power_failure(node=1, severity=0.8))
        severe = self._run(power_failure(node=1, severity=0.3))
        assert (
            severe.efficiency().tokens_per_s
            <= mild.efficiency().tokens_per_s
        )
