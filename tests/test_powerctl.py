"""Tests for :mod:`repro.powerctl`: governors, engine integration, and
the energy-optimal setpoint search.

The headline invariants pinned here:

* the no-op governor (and a static cap at boost) is **bit-identical** to
  a run without power control;
* the energy-optimal search on the paper's thermally saturated H100
  reference configuration saves >= 10% energy at <= 5% step-time cost.
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
from conftest import assert_run_results_equal  # noqa: E402

from repro.core.experiment import execute_training
from repro.core.faults import FaultSpec
from repro.engine.physics import VectorPhysics
from repro.engine.simulator import SimSettings
from repro.optimize import (
    SearchSettings,
    evaluate_setpoints,
    optimize_setpoint,
    settings_for_setpoint,
)
from repro.powerctl import (
    GOVERNORS,
    NO_POWER_CONTROL,
    PowerControlConfig,
    freq_for_power_limit,
    static_setpoint,
)

#: The reference workload of the acceptance criterion: the catalog H100
#: cluster runs thermally saturated at stock clocks (peak die within a
#: degree of the throttle point), which is exactly the regime where a
#: static cap buys large energy savings for little throughput.
REFERENCE = dict(
    model="gpt3-13b",
    cluster="h100x64",
    parallelism="TP4-PP2",
    global_batch_size=16,
)


def _settings(base: SimSettings, control: PowerControlConfig) -> SimSettings:
    return dataclasses.replace(base, power_control=control)


class TestConfigValidation:
    def test_default_is_inactive(self):
        assert not NO_POWER_CONTROL.active
        assert NO_POWER_CONTROL.governor == "none"

    def test_unknown_governor_suggests_spelling(self):
        with pytest.raises(ValueError, match="did you mean 'thermal'"):
            PowerControlConfig(governor="termal")

    def test_known_governors_construct(self):
        for name in GOVERNORS:
            assert PowerControlConfig(governor=name).governor == name

    def test_setpoint_bounds(self):
        with pytest.raises(ValueError, match="freq_setpoint"):
            PowerControlConfig(governor="static", freq_setpoint=0.0)
        with pytest.raises(ValueError, match="freq_setpoint"):
            PowerControlConfig(governor="static", freq_setpoint=1.2)
        with pytest.raises(ValueError, match="gpu_freq_setpoints"):
            PowerControlConfig(
                governor="static", gpu_freq_setpoints=(0.8, 1.5)
            )

    def test_knob_bounds(self):
        with pytest.raises(ValueError, match="power_limit_w"):
            PowerControlConfig(governor="static", power_limit_w=-100.0)
        with pytest.raises(ValueError, match="control_interval_s"):
            PowerControlConfig(governor="thermal", control_interval_s=0.0)
        with pytest.raises(ValueError, match="min_setpoint"):
            PowerControlConfig(governor="thermal", min_setpoint=0.0)
        with pytest.raises(ValueError, match="straggler_slack_guard"):
            PowerControlConfig(governor="straggler",
                               straggler_slack_guard=1.0)

    def test_config_is_hashable_for_the_cache(self):
        # SimSettings rides through freeze()/the sweep memo key.
        assert hash(static_setpoint(0.8)) == hash(static_setpoint(0.8))
        assert static_setpoint(0.8) != static_setpoint(0.9)


class TestFreqForPowerLimit:
    def test_tdp_is_uncapped(self, small_cluster):
        gpu = small_cluster.node.gpu
        assert freq_for_power_limit(gpu, gpu.tdp_watts) == 1.0
        assert freq_for_power_limit(gpu, 2 * gpu.tdp_watts) == 1.0

    def test_idle_pins_to_base_clock(self, small_cluster):
        gpu = small_cluster.node.gpu
        assert freq_for_power_limit(
            gpu, gpu.idle_watts
        ) == gpu.base_clock_ratio
        assert freq_for_power_limit(gpu, 1.0) == gpu.base_clock_ratio

    def test_round_trips_through_the_power_model(self, small_cluster):
        from repro.power.model import BUSY_COMPUTE, gpu_power

        gpu = small_cluster.node.gpu
        limit = 0.75 * gpu.tdp_watts
        ratio = freq_for_power_limit(gpu, limit)
        assert gpu.base_clock_ratio < ratio < 1.0
        assert gpu_power(gpu, BUSY_COMPUTE, ratio) == pytest.approx(limit)

    def test_rejects_nonpositive_limit(self, small_cluster):
        with pytest.raises(ValueError):
            freq_for_power_limit(small_cluster.node.gpu, 0.0)


class TestNoOpBitIdentity:
    """The acceptance invariant: governor off == pre-powerctl engine."""

    def test_vector_backend_keeps_ceiling_aliased(self, small_cluster):
        # With no setpoints applied the effective-ceiling arrays must BE
        # the hardware arrays (not copies): the no-op path then executes
        # the exact same loads as before powerctl existed.
        physics = VectorPhysics(small_cluster, FaultSpec())
        assert physics._eff_ceiling is physics._ceiling
        assert physics._eff_floor is physics._floor
        physics.set_setpoints(np.full(small_cluster.total_gpus, 0.8))
        assert physics._eff_ceiling is not physics._ceiling

    def test_explicit_none_matches_default(
        self, tiny_model, small_cluster, fast_settings
    ):
        kwargs = dict(
            model=tiny_model, cluster=small_cluster,
            parallelism="TP2-PP2", global_batch_size=8,
        )
        plain = execute_training(**kwargs, settings=fast_settings)
        explicit = execute_training(
            **kwargs, settings=_settings(fast_settings, NO_POWER_CONTROL)
        )
        assert_run_results_equal(explicit, plain)
        assert plain.outcome.power_control is None

    def test_static_at_boost_matches_no_control(
        self, tiny_model, small_cluster, fast_settings
    ):
        # A static ceiling of 1.0 exercises the governed code path
        # (set_setpoints, control ticks) yet must not move a single bit
        # of physics output.
        kwargs = dict(
            model=tiny_model, cluster=small_cluster,
            parallelism="TP2-PP2", global_batch_size=8,
        )
        plain = execute_training(**kwargs, settings=fast_settings)
        capped = execute_training(
            **kwargs, settings=_settings(fast_settings, static_setpoint(1.0))
        )
        assert_run_results_equal(capped, plain)


class TestGovernorBehavior:
    def _run(self, model, cluster, settings, control=None, **kwargs):
        if control is not None:
            settings = _settings(settings, control)
        kwargs.setdefault("parallelism", "TP2-PP2")
        kwargs.setdefault("global_batch_size", 8)
        return execute_training(
            model=model, cluster=cluster, settings=settings, **kwargs
        )

    def test_static_caps_the_clock(
        self, tiny_model, small_cluster, fast_settings
    ):
        baseline = self._run(tiny_model, small_cluster, fast_settings)
        capped = self._run(
            tiny_model, small_cluster, fast_settings,
            control=static_setpoint(0.7),
        )
        trace = capped.outcome.power_control
        assert trace is not None and trace.governor == "static"
        assert len(trace.times_s) == 1 and trace.times_s[0] == 0.0
        assert all(sp == 0.7 for sp in trace.setpoints[0])
        for gpu in range(small_cluster.total_gpus):
            freq = capped.outcome.telemetry.series(gpu).freq_ratio
            assert freq.max() <= 0.7 + 1e-9
        # Note the direction: on this thermally saturated fixture the
        # cap is allowed to be *faster* than baseline (the uncapped run
        # trips the reactive throttle and oscillates), but it must
        # always burn less energy.
        assert (
            capped.efficiency().energy_j < baseline.efficiency().energy_j
        )

    def test_power_limit_resolves_to_ceiling(
        self, tiny_model, small_cluster, fast_settings
    ):
        gpu_spec = small_cluster.node.gpu
        limit = 0.7 * gpu_spec.tdp_watts
        expected = freq_for_power_limit(gpu_spec, limit)
        result = self._run(
            tiny_model, small_cluster, fast_settings,
            control=PowerControlConfig(
                governor="static", power_limit_w=limit
            ),
        )
        trace = result.outcome.power_control
        assert trace.setpoints[0][0] == pytest.approx(expected)
        assert "power limit" in trace.decisions[0]

    def test_per_gpu_setpoints_length_checked(
        self, tiny_model, small_cluster, fast_settings
    ):
        with pytest.raises(ValueError, match="covers 2 GPUs"):
            self._run(
                tiny_model, small_cluster, fast_settings,
                control=PowerControlConfig(
                    governor="static", gpu_freq_setpoints=(0.8, 0.9)
                ),
            )

    def test_per_gpu_setpoints_apply_per_gpu(
        self, tiny_model, small_cluster, fast_settings
    ):
        ceilings = tuple(
            0.6 if g < 4 else 1.0
            for g in range(small_cluster.total_gpus)
        )
        result = self._run(
            tiny_model, small_cluster, fast_settings,
            control=PowerControlConfig(
                governor="static", gpu_freq_setpoints=ceilings
            ),
        )
        telemetry = result.outcome.telemetry
        assert telemetry.series(0).freq_ratio.max() <= 0.6 + 1e-9
        assert telemetry.series(7).freq_ratio.max() > 0.6

    def test_thermal_governor_holds_below_throttle(self, fast_settings):
        # The catalog H100 cluster runs right at the throttle point at
        # stock clocks; the proactive governor must keep the die below
        # the reactive trip temperature the baseline run reaches.
        baseline = execute_training(
            settings=SimSettings(), **REFERENCE
        )
        governed = execute_training(
            settings=_settings(
                SimSettings(), PowerControlConfig(governor="thermal")
            ),
            **REFERENCE,
        )
        throttle_c = baseline.cluster.node.gpu.throttle_temp_c
        assert baseline.stats().peak_temp_c > throttle_c - 1.0
        assert governed.stats().peak_temp_c < baseline.stats().peak_temp_c
        trace = governed.outcome.power_control
        assert trace is not None and len(trace.times_s) > 0
        assert all("thermal" in note for note in trace.decisions)

    def test_straggler_governor_downclocks_bubbly_ranks(
        self, tiny_model, small_cluster, fast_settings
    ):
        # TP2-PP2-DP2 leaves pipeline bubbles on every rank; the
        # governor should trade them for lower clocks and energy.
        baseline = self._run(tiny_model, small_cluster, fast_settings)
        # The fixture run only simulates ~0.1 s, so tick well below the
        # default 0.5 s control interval.
        governed = self._run(
            tiny_model, small_cluster, fast_settings,
            control=PowerControlConfig(
                governor="straggler", control_interval_s=0.01
            ),
        )
        trace = governed.outcome.power_control
        assert trace is not None and len(trace.times_s) > 0
        final = np.asarray(trace.setpoints[-1])
        assert final.min() < 1.0
        assert (
            governed.efficiency().energy_j < baseline.efficiency().energy_j
        )


class TestResultSurface:
    @pytest.fixture()
    def governed_result(self, tiny_model, small_cluster, fast_settings):
        return execute_training(
            model=tiny_model, cluster=small_cluster,
            parallelism="TP2-PP2", global_batch_size=8,
            settings=_settings(fast_settings, static_setpoint(0.8)),
        )

    def test_per_gpu_energy_and_power(self, governed_result):
        energies = governed_result.per_gpu_energy_j()
        powers = governed_result.per_gpu_mean_power_w()
        n = governed_result.cluster.total_gpus
        assert len(energies) == len(powers) == n
        assert all(e > 0 for e in energies)
        assert sum(energies) == pytest.approx(
            governed_result.efficiency().energy_j
        )

    def test_trace_accessors(self, governed_result):
        trace = governed_result.power_control_trace()
        assert trace is governed_result.outcome.power_control
        assert governed_result.governor_decisions() == list(trace.decisions)
        # Step-series semantics: 1.0 before the first actuation, then
        # the recorded ceiling.
        assert trace.setpoint_at(0, -1.0) == 1.0
        assert trace.setpoint_at(0, trace.times_s[0]) == 0.8

    def test_powerctl_csv(self, governed_result, tmp_path):
        import csv

        from repro.telemetry.export import write_powerctl_csv

        path = write_powerctl_csv(
            governed_result.outcome.power_control, tmp_path / "pc.csv"
        )
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        trace = governed_result.outcome.power_control
        assert len(rows) == len(trace.times_s) * (
            governed_result.cluster.total_gpus
        )
        assert rows[0]["decision"] != "" and rows[1]["decision"] == ""
        assert float(rows[0]["setpoint"]) == 0.8

    def test_artifact_includes_powerctl(self, governed_result, tmp_path):
        from repro.core.artifact import read_run_summary, write_run_artifact

        write_run_artifact(governed_result, tmp_path / "art")
        assert (tmp_path / "art" / "powerctl.csv").exists()
        summary = read_run_summary(tmp_path / "art")
        assert summary["power_governor"] == "static"
        assert len(summary["per_gpu_energy_j"]) == (
            governed_result.cluster.total_gpus
        )

    def test_timeline_figure(self, governed_result, tmp_path):
        from repro.viz.figures import powerctl_timeline_figure

        svg = powerctl_timeline_figure(
            governed_result, path=tmp_path / "pc.svg"
        )
        assert svg.startswith("<svg")
        assert "clock setpoint" in svg
        assert (tmp_path / "pc.svg").exists()

    def test_timeline_figure_requires_trace(
        self, tiny_model, small_cluster, fast_settings
    ):
        from repro.viz.figures import powerctl_timeline_figure

        plain = execute_training(
            model=tiny_model, cluster=small_cluster,
            parallelism="TP2-PP2", global_batch_size=8,
            settings=fast_settings,
        )
        with pytest.raises(ValueError, match="no power-control trace"):
            powerctl_timeline_figure(plain)


class TestSearch:
    def test_settings_for_setpoint(self):
        assert (
            settings_for_setpoint(None, 1.0).power_control
            is NO_POWER_CONTROL
        )
        capped = settings_for_setpoint(None, 0.8).power_control
        assert capped.governor == "static"
        assert capped.freq_setpoint == 0.8

    def test_search_settings_validation(self):
        with pytest.raises(ValueError, match="bracket"):
            SearchSettings(lo=0.9, hi=0.8)
        with pytest.raises(ValueError, match="tolerance"):
            SearchSettings(tolerance=0.0)
        with pytest.raises(ValueError, match="max_slowdown"):
            SearchSettings(max_slowdown=-0.1)

    def test_sweep_runs_each_setpoint(
        self, tiny_model, small_cluster, fast_settings
    ):
        pairs = evaluate_setpoints(
            tiny_model, small_cluster, "TP2-PP2", [0.7, 1.0],
            global_batch_size=8, settings=fast_settings,
        )
        assert [sp for sp, _ in pairs] == [0.7, 1.0]
        by_sp = dict(pairs)
        assert (
            by_sp[0.7].efficiency().energy_j
            < by_sp[1.0].efficiency().energy_j
        )
        assert by_sp[1.0].outcome.power_control is None

    def test_energy_optimal_meets_acceptance_bar(self):
        """Acceptance criterion: >= 10% energy saved at <= 5% slowdown
        on the thermally saturated H100 reference configuration."""
        outcome = optimize_setpoint(
            REFERENCE["model"],
            REFERENCE["cluster"],
            REFERENCE["parallelism"],
            global_batch_size=REFERENCE["global_batch_size"],
            search=SearchSettings(max_slowdown=0.05),
        )
        assert outcome.energy_saving_fraction >= 0.10
        assert outcome.slowdown_fraction <= 0.05
        assert outcome.best.feasible
        assert outcome.best.setpoint < 1.0
        assert outcome.iterations >= 1
        # The uncapped baseline is always among the candidates, so the
        # search can never do worse than not searching.
        assert any(p.setpoint == 1.0 for p in outcome.probes)
        assert outcome.best.cost <= outcome.baseline.cost
        assert (
            outcome.best_result.efficiency().energy_j
            == outcome.best.energy_j
        )

    def test_infeasible_probes_are_never_selected(
        self, tiny_model, small_cluster, fast_settings
    ):
        # With zero allowed slowdown the winner must be at least as
        # fast as the uncapped baseline. (It need not BE the baseline:
        # on this thermally saturated fixture a cap can beat the
        # reactive throttle on both energy and step time.)
        outcome = optimize_setpoint(
            tiny_model, small_cluster, "TP2-PP2",
            global_batch_size=8, settings=fast_settings,
            search=SearchSettings(max_slowdown=0.0),
        )
        assert outcome.best.feasible
        assert outcome.slowdown_fraction <= 1e-9
        assert outcome.best.step_time_s <= outcome.baseline.step_time_s * (
            1.0 + 1e-9
        )
        for probe in outcome.probes:
            if not probe.feasible:
                assert probe is not outcome.best


class TestFleetComposition:
    def _config(self, **kwargs):
        from repro.datacenter import ArrivalConfig, FleetConfig

        return FleetConfig(
            arrivals=ArrivalConfig(
                num_jobs=4, mean_interarrival_s=10.0, seed=0
            ),
            **kwargs,
        )

    def test_closed_loop_governors_rejected(self):
        with pytest.raises(ValueError, match="closed-loop"):
            self._config(
                power_control=PowerControlConfig(governor="thermal")
            )

    def test_per_gpu_setpoints_rejected(self):
        with pytest.raises(ValueError, match="uniform per job"):
            self._config(
                power_control=PowerControlConfig(
                    governor="static", gpu_freq_setpoints=(0.8,)
                )
            )

    def test_static_cap_saves_fleet_energy(self):
        from repro.datacenter import simulate_fleet

        baseline = simulate_fleet(self._config())
        capped = simulate_fleet(
            self._config(power_control=static_setpoint(0.7))
        )
        assert capped.metrics().jobs_completed == 4
        assert capped.energy_j < baseline.energy_j
        assert capped.makespan_s >= baseline.makespan_s

    def test_no_op_fleet_governor_is_exact(self):
        from repro.datacenter import simulate_fleet

        baseline = simulate_fleet(self._config())
        explicit = simulate_fleet(
            self._config(power_control=NO_POWER_CONTROL)
        )
        assert explicit.energy_j == baseline.energy_j
        assert explicit.makespan_s == baseline.makespan_s
