"""Tests for the scalar RC thermal model and DVFS governor of the physics
oracle (``tests/reference_physics.py``)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.node import HGX_H200_NODE, MI250_NODE
from tests.reference_physics import DvfsGovernor, NodeThermalState


class TestRcModel:
    def test_initial_temps_at_local_inlet(self):
        state = NodeThermalState(HGX_H200_NODE)
        assert state.temps_c[0] == pytest.approx(HGX_H200_NODE.ambient_c)
        assert state.temps_c[4] > state.temps_c[0]

    def test_converges_to_equilibrium(self):
        state = NodeThermalState(HGX_H200_NODE)
        powers = [500.0] * 8
        equilibrium = state.equilibrium_temps(powers)
        for _ in range(2000):
            state.step(1.0, powers)
        for temp, target in zip(state.temps_c, equilibrium):
            assert temp == pytest.approx(target, abs=0.1)

    def test_rear_gpus_run_hotter(self):
        """Front-to-back airflow preheats the rear GPUs (Figure 16/17)."""
        state = NodeThermalState(HGX_H200_NODE)
        equilibrium = state.equilibrium_temps([600.0] * 8)
        front = sum(equilibrium[:4]) / 4
        rear = sum(equilibrium[4:]) / 4
        assert rear > front + 5.0

    def test_mi250_intra_package_skew(self):
        """Odd GCDs (downstream in the package) run 5-10 degC hotter."""
        state = NodeThermalState(MI250_NODE)
        equilibrium = state.equilibrium_temps([230.0] * 8)
        skews = [equilibrium[i + 1] - equilibrium[i] for i in (0, 2, 4, 6)]
        assert all(2.0 < skew < 15.0 for skew in skews)

    def test_big_dt_is_stable(self):
        """Exponential integration cannot overshoot equilibrium."""
        state = NodeThermalState(HGX_H200_NODE)
        powers = [700.0] * 8
        equilibrium = state.equilibrium_temps(powers)
        state.step(1e6, powers)
        for temp, target in zip(state.temps_c, equilibrium):
            assert temp == pytest.approx(target, abs=1e-6)

    @given(power=st.floats(min_value=0, max_value=700))
    @settings(max_examples=30, deadline=None)
    def test_equilibrium_monotone_in_power(self, power):
        state = NodeThermalState(HGX_H200_NODE)
        low = state.equilibrium_temps([power] * 8)
        high = state.equilibrium_temps([power + 50] * 8)
        assert all(h > l for h, l in zip(high, low))

    def test_front_rear_gap_positive_under_load(self):
        state = NodeThermalState(HGX_H200_NODE)
        state.temps_c = state.equilibrium_temps([600.0] * 8)
        assert state.front_rear_gap() > 0

    def test_power_validation(self):
        state = NodeThermalState(HGX_H200_NODE)
        with pytest.raises(ValueError):
            state.step(1.0, [100.0] * 3)
        with pytest.raises(ValueError):
            state.step(1.0, [-1.0] * 8)
        with pytest.raises(ValueError):
            state.step(-1.0, [100.0] * 8)

    def test_zero_dt_is_identity(self):
        state = NodeThermalState(HGX_H200_NODE)
        before = list(state.temps_c)
        state.step(0.0, [700.0] * 8)
        assert state.temps_c == before


class TestGovernor:
    def _hot_temps(self, hot_gpu: int = 0) -> list[float]:
        temps = [70.0] * 8
        temps[hot_gpu] = HGX_H200_NODE.gpu.throttle_temp_c + 5.0
        return temps

    def test_throttles_hot_gpu_only(self):
        governor = DvfsGovernor(HGX_H200_NODE)
        governor.update(1.0, self._hot_temps(3), [500.0] * 8)
        assert governor.freq_of(3) < 1.0
        assert governor.freq_of(0) == 1.0

    def test_recovers_when_cool(self):
        governor = DvfsGovernor(HGX_H200_NODE)
        governor.update(1.0, self._hot_temps(0), [500.0] * 8)
        throttled = governor.freq_of(0)
        for _ in range(20):
            governor.update(1.0, [60.0] * 8, [300.0] * 8)
        assert governor.freq_of(0) > throttled
        assert governor.freq_of(0) == 1.0

    def test_never_below_base_clock(self):
        governor = DvfsGovernor(HGX_H200_NODE)
        scorching = [95.0] * 8
        for _ in range(100):
            governor.update(1.0, scorching, [700.0] * 8)
        base = HGX_H200_NODE.gpu.base_clock_ratio
        assert all(f == base for f in governor.freq_ratios)

    def test_node_power_cap_scales_everyone(self):
        governor = DvfsGovernor(HGX_H200_NODE)
        over_budget = [HGX_H200_NODE.node_power_cap_watts / 8 * 1.2] * 8
        governor.update(1.0, [60.0] * 8, over_budget)
        assert all(f < 1.0 for f in governor.freq_ratios)

    def test_throttle_stats_accumulate(self):
        governor = DvfsGovernor(HGX_H200_NODE)
        governor.update(1.0, self._hot_temps(0), [500.0] * 8)
        governor.update(1.0, self._hot_temps(0), [500.0] * 8)
        ratios = governor.throttle_ratios()
        assert ratios[0] > 0.5
        assert ratios[1] == 0.0

    def test_mean_freq_tracks_throttling(self):
        governor = DvfsGovernor(HGX_H200_NODE)
        for _ in range(10):
            governor.update(1.0, self._hot_temps(0), [500.0] * 8)
        assert governor.stats[0].mean_freq_ratio < 1.0
        assert governor.stats[1].mean_freq_ratio == 1.0

    def test_hysteresis_holds_clock(self):
        """Within the hysteresis band the clock neither drops nor
        recovers."""
        governor = DvfsGovernor(HGX_H200_NODE)
        governor.update(1.0, self._hot_temps(0), [500.0] * 8)
        held = governor.freq_of(0)
        threshold = HGX_H200_NODE.gpu.throttle_temp_c
        in_band = [threshold - 1.0] * 8
        governor.update(1.0, in_band, [500.0] * 8)
        assert governor.freq_of(0) == pytest.approx(held)

    def test_dt_validation(self):
        governor = DvfsGovernor(HGX_H200_NODE)
        with pytest.raises(ValueError):
            governor.update(-1.0, [60.0] * 8, [100.0] * 8)
