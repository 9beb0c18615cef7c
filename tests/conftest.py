"""Shared fixtures: small models and clusters that simulate in milliseconds.

Unit tests should not pay for paper-scale simulations; these fixtures
provide a scaled-down dense model, a small MoE, and a 2-node/8-GPU
cluster with the same airflow structure as the paper's HGX nodes.
"""

from __future__ import annotations

import contextlib
import dataclasses
from collections import Counter

import numpy as np
import pytest

from repro.engine.simulator import SimSettings
from repro.hardware.cluster import ClusterSpec
from repro.hardware.gpu import H200
from repro.hardware.interconnect import (
    INFINIBAND_100G,
    NVLINK4,
    PCIE_GEN5,
)
from repro.hardware.node import AirflowLayout, NodeSpec
from repro.models.config import ModelConfig, MoEConfig


def assert_run_results_equal(actual, expected) -> None:
    """Field-by-field equality of two RunResults, arrays included.

    ``RunResult.outcome`` holds a TelemetryLog and TrafficLedger (plain
    classes wrapping numpy arrays), so dataclass ``==`` cannot compare
    whole results; this walks the observable surface instead. Used by
    the cache and parallel-execution equivalence tests.
    """
    assert type(actual) is type(expected)
    for f in dataclasses.fields(expected):
        if f.name == "outcome":
            continue
        assert getattr(actual, f.name) == getattr(expected, f.name), f.name
    a, b = actual.outcome, expected.outcome
    assert a.records == b.records
    assert a.makespan_s == b.makespan_s
    assert a.iteration_end_s == b.iteration_end_s
    np.testing.assert_array_equal(
        np.asarray(a.throttle_ratio), np.asarray(b.throttle_ratio)
    )
    np.testing.assert_array_equal(
        np.asarray(a.mean_freq_ratio), np.asarray(b.mean_freq_ratio)
    )
    assert a.tokens_per_iteration == b.tokens_per_iteration
    assert a.num_iterations == b.num_iterations
    assert a.telemetry.num_gpus == b.telemetry.num_gpus
    for gpu in range(b.telemetry.num_gpus):
        sa = a.telemetry.series(gpu)
        sb = b.telemetry.series(gpu)
        for name in (
            "times_s", "power_w", "temp_c", "freq_ratio",
            "compute_util", "comm_util", "pcie_bytes_per_s",
        ):
            np.testing.assert_array_equal(
                getattr(sa, name), getattr(sb, name), err_msg=name
            )
        assert a.traffic.total_for(gpu) == b.traffic.total_for(gpu)


class LaneTally:
    """The batch groups made while :func:`lane_tally` was open."""

    def __init__(self) -> None:
        self.groups: list = []

    @property
    def replayed(self) -> int:
        """Members rebuilt from a vectorized replay."""
        return sum(group.replayed for group in self.groups)

    @property
    def serial(self) -> Counter:
        """Every other non-anchor member, counted by reason."""
        total: Counter = Counter()
        for group in self.groups:
            total.update(group.serial)
        return total


@contextlib.contextmanager
def lane_tally(min_replay_lanes: int | None = None):
    """Tally the replayed and serial lanes of the batch groups made
    inside the block; ``min_replay_lanes`` overrides the group's lane
    threshold while it is open."""
    import repro.engine.batched as batched_mod

    tally = LaneTally()
    group_cls = batched_mod._BatchGroup
    real_init = group_cls.__init__
    real_min = batched_mod._MIN_REPLAY_LANES

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        tally.groups.append(self)

    group_cls.__init__ = init
    if min_replay_lanes is not None:
        batched_mod._MIN_REPLAY_LANES = min_replay_lanes
    try:
        yield tally
    finally:
        group_cls.__init__ = real_init
        batched_mod._MIN_REPLAY_LANES = real_min


@pytest.fixture(autouse=True)
def _isolated_result_store(tmp_path, monkeypatch):
    """Point the persistent result store at per-test scratch space.

    Keeps test runs from writing ``.repro_cache/`` into the repo and
    from seeing results another test (or a developer run) persisted.
    The env var is inherited by sweep worker processes.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro_cache"))


#: A small dense transformer (fast to simulate, divisible layers).
TINY_DENSE = ModelConfig(
    name="tiny-dense",
    num_layers=8,
    hidden_size=2048,
    num_heads=16,
    ffn_hidden_size=8192,
    vocab_size=32000,
    seq_length=1024,
)

#: A small Mixture-of-Experts transformer (4 experts, top-2).
TINY_MOE = ModelConfig(
    name="tiny-moe",
    num_layers=8,
    hidden_size=2048,
    num_heads=16,
    ffn_hidden_size=4096,
    vocab_size=32000,
    seq_length=1024,
    moe=MoEConfig(num_experts=4, top_k=2),
)


@pytest.fixture
def tiny_model() -> ModelConfig:
    """A small dense transformer (fast to simulate, divisible layers)."""
    return TINY_DENSE


@pytest.fixture
def tiny_moe() -> ModelConfig:
    """A small Mixture-of-Experts transformer (4 experts, top-2)."""
    return TINY_MOE


def _small_airflow() -> AirflowLayout:
    """4-GPU front/rear layout mirroring the HGX airflow structure."""
    return AirflowLayout(
        upstream=((), (), (0,), (1,)),
        inlet_offset_c=(0.0, 0.0, 6.0, 6.0),
        preheat_c_per_w=0.016,
    )


def small_node() -> NodeSpec:
    """A 4-GPU H200-style node."""
    return NodeSpec(
        name="small-h200",
        gpu=H200,
        gpus_per_node=4,
        intra_node_link=NVLINK4,
        host_pcie=PCIE_GEN5,
        airflow=_small_airflow(),
        node_power_cap_watts=4 * 700.0 * 0.95,
        nic_count=1,
    )


@pytest.fixture
def small_cluster() -> ClusterSpec:
    """2 nodes x 4 GPUs: big enough for TP/PP/DP/EP interplay, tiny to run."""
    return ClusterSpec(
        name="small-2x4",
        node=small_node(),
        num_nodes=2,
        inter_node_link=INFINIBAND_100G,
    )


@pytest.fixture
def single_node_cluster() -> ClusterSpec:
    """One 4-GPU node: no inter-node traffic at all."""
    return ClusterSpec(
        name="small-1x4",
        node=small_node(),
        num_nodes=1,
        inter_node_link=INFINIBAND_100G,
    )


@pytest.fixture
def fast_settings() -> SimSettings:
    """Coarser physics/telemetry for unit-test speed."""
    return SimSettings(
        physics_dt_s=0.002,
        telemetry_interval_s=0.005,
        thermal_prewarm=True,
    )
