"""Figure 21: thermal-aware pipeline-stage placement, normalized to the
baseline consecutive-ID strategy.

Paper setup: 4-way-TP stages, two stages per node, DP disabled; cold GPUs
host early (heavier) stages, and the asymmetric variant gives cool stages
an extra layer. Paper shape: asymmetric placement reduces the thermal gap
(8% for Llama3-70B at a 19/21 split, 17% for GPT3-175B at 11/13); the
Llama split improves efficiency (~4%). For GPT3-175B the paper measures a
7% efficiency *loss* from the 18% imbalance; our simulator reproduces the
gap reduction but shows a small gain instead — the throttling penalty on
hot stages outweighs the layer imbalance here (see EXPERIMENTS.md).
"""

from paper import print_table

from repro.core.sweep import cached_run
from repro.hardware.cluster import H200_X32, ClusterSpec
from repro.hardware.node import HGX_H200_NODE
from repro.parallelism.strategy import ParallelismConfig
from repro.datacenter.thermal_aware import (
    asymmetric_stage_layers,
    imbalance_percent,
    thermal_aware_placement,
)

H200_X16 = ClusterSpec(name="h200x16", node=HGX_H200_NODE, num_nodes=2)

EXPERIMENTS = [
    # (model, cluster, config, asymmetric layer split)
    ("llama3-70b", H200_X16, ParallelismConfig(tp=4, pp=4, dp=1),
     asymmetric_stage_layers(80, 4)),
    ("gpt3-175b", H200_X32, ParallelismConfig(tp=4, pp=8, dp=1),
     asymmetric_stage_layers(96, 8)),
]


def _run(model, cluster, config, placement=None, stage_layers=None):
    return cached_run(
        "train",
        model=model,
        cluster=cluster,
        parallelism=config,
        microbatch_size=1,
        global_batch_size=64,
        placement=tuple(placement) if placement else None,
        stage_layers=tuple(stage_layers) if stage_layers else None,
    )


def test_fig21_thermal_aware_placement(benchmark):
    def build():
        results = {}
        for model, cluster, config, layers in EXPERIMENTS:
            placement = thermal_aware_placement(cluster, config)
            results[(model, "baseline")] = _run(model, cluster, config)
            results[(model, "symmetric")] = _run(
                model, cluster, config, placement=placement
            )
            results[(model, "asymmetric")] = _run(
                model, cluster, config, placement=placement,
                stage_layers=list(layers),
            )
        return results

    results = benchmark.pedantic(build, rounds=1, iterations=1)

    rows = []
    for (model, variant), result in results.items():
        base = results[(model, "baseline")]
        rows.append(
            (
                model, variant,
                result.efficiency().tokens_per_s
                / base.efficiency().tokens_per_s,
                result.front_rear_gap_c(),
                result.stats().avg_power_w,
                result.stats().peak_temp_c,
            )
        )
    print_table(
        "Figure 21: thermal-aware placement (normalized to baseline)",
        ["Model", "Variant", "Rel eff", "Thermal gap C", "Avg power W",
         "Peak T C"],
        rows,
    )

    for model, _, config, layers in EXPERIMENTS:
        base = results[(model, "baseline")]
        asym = results[(model, "asymmetric")]
        # Asymmetric allocation reduces the front/rear thermal gap.
        assert asym.front_rear_gap_c() < base.front_rear_gap_c()
        # Effects are percent-scale, not order-of-magnitude.
        ratio = (
            asym.efficiency().tokens_per_s
            / base.efficiency().tokens_per_s
        )
        assert 0.90 < ratio < 1.10

    # The Llama split (≈10% imbalance) improves efficiency (paper: +4%).
    llama_base = results[("llama3-70b", "baseline")]
    llama_asym = results[("llama3-70b", "asymmetric")]
    assert (
        llama_asym.efficiency().tokens_per_s
        > llama_base.efficiency().tokens_per_s
    )

    # The imbalance percentages match the paper's quoted splits.
    assert imbalance_percent(asymmetric_stage_layers(80, 4)) < 12
    assert imbalance_percent(asymmetric_stage_layers(96, 8)) > 15
