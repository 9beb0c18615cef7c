"""Parallelism strategies, rank mapping, and configuration search."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.parallelism.enumerate": (
        "ConfigSearchSpace", "minimal_model_parallel", "valid_configs",
    ),
    "repro.parallelism.mapping": (
        "DeviceMesh", "RankCoords", "all_dp_groups", "all_ep_groups",
        "all_pp_groups", "all_tp_groups", "coords_of", "dp_group", "ep_group",
        "pp_group", "rank_of", "tp_group",
    ),
    "repro.parallelism.strategy": (
        "ACT", "ACT_CC", "BASE", "CC", "OptimizationConfig",
        "ParallelismConfig", "parse_strategy",
    ),
})

__all__ = [
    "ACT",
    "ACT_CC",
    "BASE",
    "CC",
    "ConfigSearchSpace",
    "DeviceMesh",
    "OptimizationConfig",
    "ParallelismConfig",
    "RankCoords",
    "all_dp_groups",
    "all_ep_groups",
    "all_pp_groups",
    "all_tp_groups",
    "coords_of",
    "dp_group",
    "ep_group",
    "minimal_model_parallel",
    "parse_strategy",
    "pp_group",
    "rank_of",
    "tp_group",
    "valid_configs",
]
