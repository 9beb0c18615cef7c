"""Tests for thermal-aware pipeline placement (Section 6)."""

import pytest

from repro.hardware.cluster import H200_X32
from repro.parallelism.mapping import coords_of
from repro.parallelism.strategy import ParallelismConfig
from repro.datacenter.thermal_aware import (
    asymmetric_stage_layers,
    build_comparison,
    expected_heat_rank,
    imbalance_percent,
    node_gpus_by_coolness,
    thermal_aware_placement,
)

TP4_PP8 = ParallelismConfig(tp=4, pp=8, dp=1)


class TestHeatRanking:
    def test_rear_gpus_rank_hotter(self):
        front = expected_heat_rank(H200_X32, 0)
        rear = expected_heat_rank(H200_X32, 4)
        assert rear > front

    def test_node_ordering_coolest_first(self):
        ordered = node_gpus_by_coolness(H200_X32, 0)
        heats = [
            expected_heat_rank(H200_X32, H200_X32.local_index(g))
            for g in ordered
        ]
        assert heats == sorted(heats)


class TestPlacement:
    def test_is_permutation(self):
        placement = thermal_aware_placement(H200_X32, TP4_PP8)
        assert sorted(placement) == list(range(32))

    def test_stages_do_not_mix_heat_groups(self):
        """Each stage's TP group is all-cool or all-hot (Section 6)."""
        placement = thermal_aware_placement(H200_X32, TP4_PP8)
        for stage in range(8):
            stage_ranks = [
                r for r in range(32) if coords_of(r, TP4_PP8).pp == stage
            ]
            heats = {
                expected_heat_rank(
                    H200_X32, H200_X32.local_index(placement[r])
                )
                for r in stage_ranks
            }
            assert len(heats) == 1

    def test_early_stages_get_cool_gpus(self):
        placement = thermal_aware_placement(H200_X32, TP4_PP8)

        def stage_heat(stage):
            ranks = [
                r for r in range(32) if coords_of(r, TP4_PP8).pp == stage
            ]
            return sum(
                expected_heat_rank(
                    H200_X32, H200_X32.local_index(placement[r])
                )
                for r in ranks
            )

        early = sum(stage_heat(s) for s in range(4))
        late = sum(stage_heat(s) for s in range(4, 8))
        assert early < late

    def test_tp_groups_stay_intra_node(self):
        placement = thermal_aware_placement(H200_X32, TP4_PP8)
        for rank in range(0, 32, 4):
            group_gpus = [placement[rank + t] for t in range(4)]
            nodes = {H200_X32.node_of(g) for g in group_gpus}
            assert len(nodes) == 1

    def test_rejects_dp(self):
        with pytest.raises(ValueError):
            thermal_aware_placement(
                H200_X32, ParallelismConfig(tp=4, pp=4, dp=2)
            )

    def test_rejects_non_tiling_stage_count(self):
        with pytest.raises(ValueError):
            thermal_aware_placement(
                H200_X32, ParallelismConfig(tp=2, pp=8, dp=1)
            )


class TestAsymmetricLayers:
    def test_llama_split(self):
        """80 layers over 4 stages -> [21, 21, 19, 19] (paper Fig. 21)."""
        assert asymmetric_stage_layers(80, 4) == [21, 21, 19, 19]

    def test_gpt_split(self):
        """96 layers over 8 stages -> 13/11 (paper Fig. 21)."""
        layers = asymmetric_stage_layers(96, 8)
        assert layers == [13, 13, 13, 13, 11, 11, 11, 11]

    def test_sum_preserved(self):
        assert sum(asymmetric_stage_layers(80, 4)) == 80

    def test_rejects_odd_stage_count(self):
        with pytest.raises(ValueError):
            asymmetric_stage_layers(81, 3)

    def test_rejects_indivisible_layers(self):
        with pytest.raises(ValueError):
            asymmetric_stage_layers(81, 4)

    def test_imbalance_percent(self):
        assert imbalance_percent([21, 19]) == pytest.approx(
            (21 / 19 - 1) * 100
        )
        # The paper quotes ~10% for Llama3-70B and ~18% for GPT3-175B.
        assert imbalance_percent(asymmetric_stage_layers(80, 4)) == (
            pytest.approx(10.5, abs=1.0)
        )
        assert imbalance_percent(asymmetric_stage_layers(96, 8)) == (
            pytest.approx(18.2, abs=1.0)
        )


class TestComparison:
    def test_build_comparison(self):
        comparison = build_comparison(H200_X32, TP4_PP8, num_layers=96)
        assert comparison.baseline_placement == tuple(range(32))
        assert sorted(comparison.symmetric_placement) == list(range(32))
        assert sum(comparison.asymmetric_stage_layers) == 96
