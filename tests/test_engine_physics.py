"""Physics-layer tests: the vectorized stepper against its oracles.

:class:`~repro.engine.physics.VectorPhysics` is the simulator's only
physics. Its oracle is the scalar model in :mod:`tests.reference_physics`
(one ``NodeThermalState`` and ``DvfsGovernor`` per node): stepped on the
same activity, the two must agree to floating-point reduction noise. The
lane axis is pinned separately: an L-lane instance must match L one-lane
instances bit for bit. The simulator's output built on this stepper is
pinned bit for bit by ``tests/test_physics_identity.py``.
"""

import numpy as np
import pytest

from repro.core.faults import FaultSpec

RTOL = 1e-9


class TestReferenceDifferential:
    """VectorPhysics + PowerVector against the scalar reference stepper.

    :mod:`tests.reference_physics` steps one ``NodeThermalState`` and
    one ``DvfsGovernor`` per node; the vector path must reproduce it to
    floating-point reduction noise on every step, through static faults
    and every mid-run knob the simulator turns.
    """

    @pytest.mark.parametrize("cluster_name",
                             ["mi250x32", "h100x64", "h200x32"])
    def test_vector_matches_reference(self, cluster_name):
        from repro.engine.physics import PowerVector, VectorPhysics
        from repro.hardware.cluster import get_cluster
        from repro.power.model import Activity, gpu_power
        from tests.reference_physics import ReferencePhysics, bursty_activity

        cluster = get_cluster(cluster_name)
        gpu = cluster.node.gpu
        n, nodes, steps = cluster.total_gpus, cluster.num_nodes, 900
        rng = np.random.default_rng(0)
        activity = bursty_activity(rng, steps, n)
        # Two step sizes: the simulator's 0.05 s and a longer one, so the
        # run spans the heatsink time constant.
        dts = rng.choice([0.05, 0.25], size=steps)
        # A mild static cap: node 1 is capped only in busy phases, so
        # some hot steps reach the quiet path's throttle-point check.
        faults = FaultSpec(node_power_cap_scale={1: 0.9},
                           node_max_clock={0: 0.9})
        sag = np.ones(nodes)
        sag[2] = 0.3
        # Hot enough for the last node to cross its throttle point.
        hot = np.zeros(nodes)
        hot[-1] = gpu.throttle_temp_c - 59.0
        knobs = {
            50: ("set_ambient_offsets", hot),
            150: ("set_setpoints",
                  rng.choice([1.0, 0.95, 0.85, 0.75], size=n)),
            300: ("set_node_budget_scales", sag),
            450: ("set_ambient_offsets", np.zeros(nodes)),
            600: ("set_node_budget_scales", np.ones(nodes)),
            800: ("set_setpoints", np.ones(n)),
        }

        vector = VectorPhysics(cluster, faults)
        power = PowerVector(cluster)
        reference = ReferencePhysics(cluster, faults)
        busy = gpu_power(gpu, Activity(compute=0.75), 1.0)
        vector.prewarm(busy)
        reference.prewarm(busy)
        # The full governor chain is the only caller of _settle_stats
        # inside step().
        full_steps = []
        settle = vector._settle_stats

        def counting_settle(lanes=None):
            full_steps.append(1)
            settle(lanes)

        vector._settle_stats = counting_settle

        hot_steps = 0
        for j in range(steps):
            if j in knobs:
                method, value = knobs[j]
                getattr(vector, method)(value)
                getattr(reference, method)(value)
            if j == 0 or not np.array_equal(activity[j], activity[j - 1]):
                power.refresh_intensity(*activity[j])
            powers = power.powers(vector.freq_flat)
            vector.step(dts[j], powers)
            expected = reference.step(dts[j], *activity[j])
            np.testing.assert_allclose(powers[0], expected, rtol=RTOL)
            np.testing.assert_allclose(vector.die_c[0], reference.die_c,
                                       rtol=RTOL)
            np.testing.assert_allclose(vector.sink_c[0], reference.sink_c,
                                       rtol=RTOL)
            np.testing.assert_allclose(vector.freq[0], reference.freq,
                                       rtol=RTOL)
            hot_steps += bool((reference.die_c > gpu.throttle_temp_c).any())
        vector._settle_stats = settle
        np.testing.assert_allclose(
            vector.throttle_ratios(), reference.throttle_ratios(),
            rtol=RTOL, atol=1e-12,
        )
        np.testing.assert_allclose(
            vector.mean_freq_ratios(), reference.mean_freq_ratios(),
            rtol=RTOL, atol=1e-12,
        )
        # Both governor paths ran, and the thermal throttle engaged.
        assert 0 < len(full_steps) < steps
        assert hot_steps > 0
        assert max(reference.throttle_ratios()) > 0


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
