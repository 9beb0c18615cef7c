"""Differential tests: vectorized fast path vs scalar reference physics.

``SimSettings.fast_path`` selects between the optimized vectorized
backend (default) and the original scalar implementation. The two are
maintained as oracle and optimization of each other: the schedule must
be bit-identical (kernel timing never touches physics) and the physics
outputs must agree to floating-point reduction noise. The lane axis of
the vectorized backend is pinned separately: an L-lane instance must
match L one-lane instances bit for bit.
"""

import numpy as np
import pytest

from repro.core.faults import FaultSpec
from repro.engine.builder import build_training_graph
from repro.engine.simulator import SimSettings, simulate
from repro.parallelism.mapping import DeviceMesh
from repro.parallelism.strategy import OptimizationConfig, ParallelismConfig

RTOL = 1e-9


def _pair(model, cluster, config, opts=None, gb=8, mb=1, faults=None,
          power_control=None):
    """The same run simulated on the reference and fast backends."""
    outcomes = []
    for fast in (False, True):
        kwargs = dict(
            physics_dt_s=0.002,
            telemetry_interval_s=0.005,
            thermal_prewarm=True,
            fast_path=fast,
        )
        if faults is not None:
            kwargs["faults"] = faults
        if power_control is not None:
            kwargs["power_control"] = power_control
        mesh = DeviceMesh(cluster=cluster, config=config)
        graph = build_training_graph(
            model=model,
            mesh=mesh,
            microbatch_size=mb,
            global_batch_size=gb,
            opts=opts or OptimizationConfig(),
        )
        outcomes.append(simulate(mesh, graph, SimSettings(**kwargs)))
    return outcomes


def _assert_equivalent(ref, fast):
    assert fast.records == ref.records  # schedule is bit-identical
    assert fast.makespan_s == ref.makespan_s
    assert fast.iteration_end_s == ref.iteration_end_s
    np.testing.assert_allclose(
        fast.throttle_ratio, ref.throttle_ratio, rtol=RTOL, atol=1e-12
    )
    np.testing.assert_allclose(
        fast.mean_freq_ratio, ref.mean_freq_ratio, rtol=RTOL, atol=1e-12
    )
    assert fast.telemetry.num_gpus == ref.telemetry.num_gpus
    for gpu in range(ref.telemetry.num_gpus):
        a = ref.telemetry.series(gpu)
        b = fast.telemetry.series(gpu)
        np.testing.assert_allclose(b.times_s, a.times_s, rtol=RTOL)
        np.testing.assert_allclose(b.power_w, a.power_w, rtol=RTOL)
        np.testing.assert_allclose(b.temp_c, a.temp_c, rtol=RTOL)
        np.testing.assert_allclose(b.freq_ratio, a.freq_ratio, rtol=RTOL)
        np.testing.assert_allclose(
            b.pcie_bytes_per_s, a.pcie_bytes_per_s, rtol=RTOL
        )


class TestFastPathDifferential:
    def test_dense_pipeline(self, tiny_model, small_cluster):
        ref, fast = _pair(
            tiny_model, small_cluster, ParallelismConfig(tp=2, pp=2, dp=2)
        )
        _assert_equivalent(ref, fast)

    def test_overlap_and_recompute(self, tiny_model, small_cluster):
        ref, fast = _pair(
            tiny_model,
            small_cluster,
            ParallelismConfig(tp=1, pp=2, dp=4),
            opts=OptimizationConfig(
                cc_overlap=True, activation_recompute=True
            ),
            gb=16,
        )
        _assert_equivalent(ref, fast)

    def test_moe_alltoall(self, tiny_moe, small_cluster):
        ref, fast = _pair(
            tiny_moe, small_cluster,
            ParallelismConfig(tp=1, pp=2, dp=4, ep=4),
        )
        _assert_equivalent(ref, fast)

    def test_fault_exercises_governor(self, tiny_model, small_cluster):
        """A power-capped node forces the clock governor off its quiet
        path on every step; both backends must agree there too."""
        ref, fast = _pair(
            tiny_model,
            small_cluster,
            ParallelismConfig(tp=2, pp=2, dp=2),
            faults=FaultSpec(node_power_cap_scale={0: 0.35}),
        )
        assert max(ref.throttle_ratio) > 0  # the fault actually bites
        _assert_equivalent(ref, fast)

    def test_static_governor_agrees(self, tiny_model, small_cluster):
        """A static clock ceiling moves every step off the quiet path
        (the effective ceiling is no longer the hardware array); both
        backends must clamp identically."""
        from repro.powerctl import static_setpoint

        ref, fast = _pair(
            tiny_model,
            small_cluster,
            ParallelismConfig(tp=2, pp=2, dp=2),
            power_control=static_setpoint(0.75),
        )
        assert max(fast.mean_freq_ratio) <= 0.75 + 1e-9
        _assert_equivalent(ref, fast)

    def test_thermal_governor_agrees(self, tiny_model, small_cluster):
        """A deliberately aggressive margin forces actuations on this
        small fixture, exercising the mid-run set_setpoints path."""
        from repro.powerctl import PowerControlConfig

        ref, fast = _pair(
            tiny_model,
            small_cluster,
            ParallelismConfig(tp=2, pp=2, dp=2),
            power_control=PowerControlConfig(
                governor="thermal",
                thermal_margin_c=25.0,
                control_interval_s=0.01,
            ),
        )
        assert ref.power_control is not None
        assert len(ref.power_control.times_s) > 0
        assert fast.power_control.times_s == ref.power_control.times_s
        assert fast.power_control.setpoints == ref.power_control.setpoints
        _assert_equivalent(ref, fast)

    def test_straggler_governor_agrees(self, tiny_model, small_cluster):
        """The straggler governor also exercises the per-backend busy
        accounting feeding PowerCtlObservation.busy_fraction."""
        from repro.powerctl import PowerControlConfig

        ref, fast = _pair(
            tiny_model,
            small_cluster,
            ParallelismConfig(tp=2, pp=2, dp=2),
            power_control=PowerControlConfig(
                governor="straggler", control_interval_s=0.01
            ),
        )
        assert len(ref.power_control.times_s) > 0
        assert fast.power_control.setpoints == ref.power_control.setpoints
        _assert_equivalent(ref, fast)

    def test_traffic_ledgers_agree(self, tiny_model, small_cluster):
        from repro.hardware.interconnect import LinkKind

        ref, fast = _pair(
            tiny_model, small_cluster, ParallelismConfig(tp=2, pp=2, dp=2)
        )
        for gpu in range(small_cluster.total_gpus):
            assert fast.traffic.total_for(gpu) == pytest.approx(
                ref.traffic.total_for(gpu), rel=RTOL
            )
            for kind in LinkKind:
                assert fast.traffic.bytes_for(gpu, kind) == pytest.approx(
                    ref.traffic.bytes_for(gpu, kind), rel=RTOL, abs=1e-9
                )


class TestLaneAxis:
    """An L-lane VectorPhysics is L one-lane instances, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_lanes_match_separate_instances(self, small_cluster, seed):
        from repro.engine.physics import PowerVector, VectorPhysics

        rng = np.random.default_rng(seed)
        lanes, steps, dt = 4, 120, 0.05
        gpus = small_cluster.total_gpus
        faults = FaultSpec(node_max_clock={1: 0.9})
        setpoints = rng.choice([1.0, 0.9, 0.75, 0.6], size=(lanes, gpus))
        prewarm = np.array([250.0, 400.0, 550.0, 700.0])
        # Busy, bursty activity: the node cap and the thermal throttle
        # both engage, so lanes mix quiet and full governor steps.
        activity = rng.choice([0.0, 0.5, 1.0], size=(steps, 3, lanes, gpus),
                              p=[0.2, 0.2, 0.6])
        # Each lane skips a random subset of steps and stops at its own
        # step count, then takes its own final partial step.
        active = rng.random((steps, lanes)) < 0.85
        for lane in range(lanes):
            active[rng.integers(60, steps):, lane] = False
        final_dt = rng.uniform(0.001, dt, size=lanes)

        physics = VectorPhysics(small_cluster, faults, lanes=lanes)
        power = PowerVector(small_cluster, lanes=lanes)
        physics.set_setpoints(setpoints)
        physics.prewarm(prewarm)
        for j in range(steps):
            power.refresh_intensity(*activity[j])
            physics.step(dt, power.powers(physics.freq_flat), active[j])
        power.refresh_intensity(*activity[-1])
        for lane in range(lanes):
            physics.step(final_dt[lane], power.powers(physics.freq_flat),
                         np.arange(lanes) == lane)

        quiet = full = 0
        for lane in range(lanes):
            single = VectorPhysics(small_cluster, faults)
            single_power = PowerVector(small_cluster)
            single.set_setpoints(setpoints[lane])
            single.prewarm(prewarm[lane])
            for j in np.flatnonzero(active[:, lane]):
                single_power.refresh_intensity(*activity[j, :, lane])
                single.step(dt, single_power.powers(single.freq_flat))
                moving = bool(single._may_move[0])
                full += moving
                quiet += not moving
            single_power.refresh_intensity(*activity[-1, :, lane])
            single.step(final_dt[lane],
                        single_power.powers(single.freq_flat))

            np.testing.assert_array_equal(physics.die_c[lane],
                                          single.die_c[0])
            np.testing.assert_array_equal(physics.sink_c[lane],
                                          single.sink_c[0])
            np.testing.assert_array_equal(physics.freq[lane], single.freq[0])
            assert physics.throttle_ratios(lane) == single.throttle_ratios()
            assert (physics.mean_freq_ratios(lane)
                    == single.mean_freq_ratios())
        # Both governor paths ran, and the throttle pulled clocks below
        # their ceilings.
        assert quiet and full
        assert physics.off_ceiling().any()
