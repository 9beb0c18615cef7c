#!/usr/bin/env python3
"""Thermal-aware pipeline placement (paper Section 6, Figure 21).

Baseline training maps pipeline stages to consecutive device IDs, mixing
hot rear GPUs and cool front GPUs inside every tensor-parallel stage; the
hottest GPU throttles and drags the whole stage. This example builds the
paper's alternative: cluster cool GPUs into the early (heavier) stages,
optionally giving them extra layers (asymmetric split), and compares all
three variants.

Run:
    python examples/thermal_aware_placement.py
"""

from repro import ParallelismConfig
from repro.core import execute_training
from repro.hardware.cluster import H200_X32
from repro.datacenter.thermal_aware import (
    asymmetric_stage_layers,
    thermal_aware_placement,
)

CONFIG = ParallelismConfig(tp=4, pp=8, dp=1)  # two 4-TP stages per node
MODEL = "gpt3-175b"  # 96 layers -> 13/11 asymmetric split


def run(placement=None, stage_layers=None):
    return execute_training(
        model=MODEL,
        cluster=H200_X32,
        parallelism=CONFIG,
        microbatch_size=1,
        global_batch_size=64,
        placement=placement,
        stage_layers=stage_layers,
    )


def main() -> None:
    placement = thermal_aware_placement(H200_X32, CONFIG)
    asym_layers = asymmetric_stage_layers(96, CONFIG.pp)

    variants = [
        ("baseline (consecutive IDs)", run()),
        ("symmetric (cool GPUs early)", run(placement=placement)),
        (
            "asymmetric (cool stages +1 layer)",
            run(placement=placement, stage_layers=asym_layers),
        ),
    ]

    base_tput = variants[0][1].efficiency().tokens_per_s
    print(f"{'variant':<35} {'tok/s':>9} {'rel':>6} {'gap C':>6} "
          f"{'peak T':>7}")
    for name, result in variants:
        eff = result.efficiency()
        stats = result.stats()
        print(
            f"{name:<35} {eff.tokens_per_s:>9,.0f} "
            f"{eff.tokens_per_s / base_tput:>6.3f} "
            f"{result.front_rear_gap_c():>6.2f} "
            f"{stats.peak_temp_c:>7.1f}"
        )

    print(f"\nasymmetric layer split: {asym_layers}")
    print("Cool stages carry the extra layers; the front/rear thermal gap")
    print("shrinks because the hot rear GPUs now carry less work.")


if __name__ == "__main__":
    main()
