"""Degraded-mode answers: approximate beats unavailable.

When the broker's execution path is down — workers crashing faster
than the pool's crash budget can absorb, a deadline too tight for a
real simulation — the choices are a 500 or an *approximate* answer.
This module provides the approximation: the joint optimizer's analytic
plan estimate (:func:`repro.optimize.space.analytic_plan_estimate`:
roofline compute inflated by the schedule's bubble, plus alpha-beta
TP/DP communication), computed from the model/cluster catalogs alone,
with no worker, no simulator event loop, and no cache.

The answer carries the estimator's measured error band
(:data:`repro.optimize.space.ESTIMATE_ERROR_BAND`) as ``error_bound``:
the simulated step time of a cell lay within
``[step_time_s / max, step_time_s / min]`` for every measured cell —
good enough for a dashboard or a sweep heat-map cell, clearly not a
simulation. Responses built from it are marked ``degraded: true`` with
``degraded_source: "analytic"``; clients that need exact numbers must
retry later (docs/chaos.md describes the policy).

Only training and inference requests have an analytic form; serving
and fleet requests return ``None`` (the broker then falls back to its
stale-cache tier or, failing that, the structured error).
"""

from __future__ import annotations

from repro.api import SimRequest

__all__ = ["analytic_estimate"]


def analytic_estimate(request: SimRequest) -> dict | None:
    """Closed-form throughput/power estimate for one request.

    Returns a plain JSON-shaped dict (it goes straight into the HTTP
    response body), or ``None`` when the request kind has no analytic
    form. Raises nothing for valid requests: everything it needs was
    already validated by ``SimRequest.__post_init__``.
    """
    if not isinstance(request, SimRequest):
        # OptimizeRequest shares the broker path but a whole search has
        # no one-line closed form; stale-cache is its only degraded tier.
        return None
    if request.kind not in ("training", "inference"):
        return None
    from repro.hardware.cluster import get_cluster
    from repro.models.catalog import get_model
    from repro.optimize.objective import parse_objective
    from repro.optimize.space import (
        ESTIMATE_ERROR_BAND,
        PlanCandidate,
        analytic_plan_estimate,
    )
    from repro.parallelism.strategy import parse_strategy
    from repro.power.model import BUSY_COMPUTE, gpu_power
    from repro.powerctl.config import freq_for_power_limit

    model = get_model(request.model)
    cluster = get_cluster(request.cluster)
    strategy = parse_strategy(request.parallelism).fill_dp(
        cluster.total_gpus
    )
    gpu = cluster.node.gpu
    # The clock the static governor would hold: a power limit wins over
    # a clock setpoint, as in the engine.
    if request.power_limit_w is not None:
        clock = freq_for_power_limit(gpu, request.power_limit_w)
    else:
        clock = request.freq_setpoint
    estimate = analytic_plan_estimate(
        model,
        cluster,
        PlanCandidate(
            parallelism=strategy,
            microbatch_size=request.microbatch_size,
            pipeline_schedule=request.pipeline_schedule,
            num_microbatches=request.global_batch_size
            // (strategy.dp * request.microbatch_size),
        ),
        parse_objective("time"),
        global_batch_size=request.global_batch_size,
        recompute=request.optimizations.activation_recompute,
        inference=request.kind == "inference",
        clock=clock,
    )
    step_time_s = estimate.step_time_s
    tokens = request.global_batch_size * model.seq_length
    gpu_power_w = gpu_power(gpu, BUSY_COMPUTE, clock)
    if request.power_limit_w is not None and clock > gpu.base_clock_ratio:
        # The governor holds the limit exactly; drop the rounding error
        # of inverting and re-applying the power curve. Below the base
        # clock's draw no clock holds the limit, so none is claimed.
        gpu_power_w = min(gpu_power_w, request.power_limit_w)
    power_w = cluster.total_gpus * gpu_power_w
    return {
        "analytic": True,
        "kind": request.kind,
        "model": request.model,
        "cluster": request.cluster,
        "parallelism": strategy.name,
        "gpus": cluster.total_gpus,
        "step_time_s": step_time_s,
        "tokens_per_s": tokens / step_time_s,
        "power_w": power_w,
        "energy_per_step_j": power_w * step_time_s,
        "error_bound": list(ESTIMATE_ERROR_BAND[request.kind]),
        "note": (
            "analytic estimate served in degraded mode; error_bound is "
            "the measured [min, max] of estimate / simulated step time; "
            "retry for a simulated result"
        ),
    }
