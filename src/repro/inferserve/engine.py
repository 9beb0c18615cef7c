"""Canonical serving execution, plus the Figure 23 inference sweep.

:func:`execute_serving` is the single place a serving simulation is
assembled and run — the ``"serve"`` kind behind
:func:`repro.core.sweep.cached_run` and
``SimRequest(kind="serving")``, mirroring how
:func:`repro.core.experiment.execute_training` backs ``"train"``.

:func:`sweep_inference` runs the Section 7.2 characterization grid:
forward-only runs with fixed weights, which show less inter-GPU
traffic and lower average power while bursty attention/GEMM kernels
keep the peaks high.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.results import RunResult
from repro.hardware.cluster import ClusterSpec, get_cluster
from repro.inferserve.batcher import simulate_serving_deployment
from repro.inferserve.config import ServingConfig
from repro.inferserve.outcome import ServingOutcome
from repro.models.catalog import get_model
from repro.models.config import ModelConfig

__all__ = ["InferencePoint", "execute_serving", "sweep_inference"]


def execute_serving(
    model: ModelConfig | str,
    cluster: ClusterSpec | str,
    config: ServingConfig | None = None,
) -> ServingOutcome:
    """Simulate an LLM serving deployment and return its outcome.

    Args:
        model: catalog name or :class:`ModelConfig` being served.
        cluster: catalog name or :class:`ClusterSpec` hosting it.
        config: deployment description (trace, batcher, SLO,
            autoscaler, DVFS setpoint); defaults apply when omitted.

    Returns:
        A :class:`ServingOutcome` with SLO percentiles, goodput,
        energy-per-token, and per-request/per-replica detail.
    """
    if isinstance(model, str):
        model = get_model(model)
    if isinstance(cluster, str):
        cluster = get_cluster(cluster)
    if config is None:
        config = ServingConfig()
    if not isinstance(config, ServingConfig):
        raise TypeError(
            f"config must be a ServingConfig, got "
            f"{type(config).__name__}"
        )
    return simulate_serving_deployment(model, cluster, config)


@dataclass(frozen=True)
class InferencePoint:
    """One Figure 23 bar group: a (strategy, microbatch) inference run."""

    parallelism: str
    microbatch_size: int
    result: RunResult

    @property
    def tokens_per_s(self) -> float:
        return self.result.efficiency().tokens_per_s

    @property
    def avg_power_w(self) -> float:
        return self.result.stats().avg_power_w

    @property
    def peak_power_w(self) -> float:
        return self.result.stats().peak_power_w

    @property
    def avg_temp_c(self) -> float:
        return self.result.stats().avg_temp_c


def sweep_inference(
    model: str,
    cluster: str,
    strategies: list[str],
    microbatch_sizes: list[int],
    global_batch_size: int = 128,
    jobs: int = 1,
) -> list[InferencePoint]:
    """Run the Figure 23 grid: strategies x microbatch sizes.

    One :func:`repro.api.submit_many` batch: a strategy or microbatch
    repeated in the input simulates once, ``jobs != 1`` fans out over
    the worker pool (0 = auto), and every point lands in the shared
    memo, so repeating the sweep costs dict lookups. Points come back
    in grid order.
    """
    from repro.api import SimRequest, submit_many

    grid = [
        (strategy, mb)
        for strategy in strategies
        for mb in microbatch_sizes
    ]
    results = submit_many(
        [
            SimRequest(
                kind="inference",
                model=model,
                cluster=cluster,
                parallelism=strategy,
                microbatch_size=mb,
                global_batch_size=global_batch_size,
            )
            for strategy, mb in grid
        ],
        jobs=jobs,
    )
    return [
        InferencePoint(parallelism=strategy, microbatch_size=mb, result=result)
        for (strategy, mb), result in zip(grid, results)
    ]
