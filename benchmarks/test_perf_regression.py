"""Perf-regression benchmark: vectorized physics vs the scalar reference.

``test_simulation_hot_path_speedup`` steps the simulator's physics
(:class:`~repro.engine.physics.VectorPhysics` with ``PowerVector``) and
the scalar reference model of ``tests/reference_physics.py`` (one
``NodeThermalState`` and ``DvfsGovernor`` per node, both defined in that
test module, Python loops) over
the same bursty activity trace on mi250x32, healthy and with a
power-capped node, and asserts the vector path clears
``REPRO_BENCH_MIN_SPEEDUP`` (default 3x) per physics step. Beside that
gate it reports, per cluster, the cost of the simulator's two common
step kinds on a quiet cluster: a held step (the powers of the previous
step) and a refreshed one (activity changed, so ``refresh_intensity``
and ``powers`` run first). It also times
the canonical mi250x32 ``execute_training`` sweep, with the persistent
result cache out of the measurement, so the end-to-end cost of a cold
run is tracked alongside: per run, its best time, its kernel-record
count and the host microseconds per record (a report only; nothing
gates on them).

Writes ``BENCH_simulation.json`` at the repo root so the performance
trajectory is tracked from PR to PR (CI uploads it as an artifact).
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.core.experiment import execute_training
from repro.core.faults import HEALTHY, FaultSpec
from repro.core.store import persistence_disabled
from repro.engine.physics import PowerVector, VectorPhysics
from repro.hardware.cluster import MI250_X32, get_cluster
from repro.power.model import Activity, gpu_power
from tests.reference_physics import ReferencePhysics, bursty_activity

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_simulation.json"

#: The representative sweep: both MI250 paper models, two strategy shapes.
CANONICAL_SWEEP = [
    ("gpt3-30b", "mi250x32", "TP2-PP8-DP2"),
    ("llama3-30b", "mi250x32", "TP4-PP4-DP2"),
]

#: Physics scenarios: the quiet governor path dominates a healthy
#: cluster; a power-capped node takes the full chain every step.
PHYSICS_SCENARIOS = {
    "healthy": HEALTHY,
    "capped": FaultSpec(node_power_cap_scale={1: 0.35}),
}
PHYSICS_STEPS = 1500
PHYSICS_DT_S = 0.05

#: Step-kind rows (report only): every cluster, stepped quiet.
STEP_KIND_CLUSTERS = ("mi250x32", "h100x64", "h200x32")
STEP_KIND_STEPS = 2000
#: Two compute/comm/memory activities the refreshed steps alternate
#: between; both keep every cluster below its node cap and its dies
#: below the throttle point, so no step runs the governor chain.
STEP_KIND_ACTIVITY = ((0.5, 0.25, 0.0), (0.5, 0.0, 0.0))

REPEATS = 2  # best-of, to shrug off scheduler noise


def _step_vector(faults: FaultSpec, activity: np.ndarray,
                 prewarm_w: float) -> float:
    """Seconds to step the vector path over ``activity``."""
    physics = VectorPhysics(MI250_X32, faults)
    power = PowerVector(MI250_X32)
    physics.prewarm(prewarm_w)
    start = time.perf_counter()
    for j in range(len(activity)):
        # The simulator refreshes the intensity only when a kernel
        # started or finished since the last step.
        if j == 0 or not np.array_equal(activity[j], activity[j - 1]):
            power.refresh_intensity(*activity[j])
        physics.step(PHYSICS_DT_S, power.powers(physics.freq_flat))
    return time.perf_counter() - start


def _step_reference(faults: FaultSpec, activity: np.ndarray,
                    prewarm_w: float) -> float:
    """Seconds to step the scalar reference over ``activity``."""
    physics = ReferencePhysics(MI250_X32, faults)
    physics.prewarm(prewarm_w)
    levels = activity.tolist()
    start = time.perf_counter()
    for compute, comm, memory in levels:
        physics.step(PHYSICS_DT_S, compute, comm, memory)
    return time.perf_counter() - start


def _step_kinds(cluster_name: str) -> tuple[float, float]:
    """Seconds for STEP_KIND_STEPS held and refreshed steps."""
    cluster = get_cluster(cluster_name)
    n = cluster.total_gpus
    activity = [[[level] * n for level in levels]
                for levels in STEP_KIND_ACTIVITY]
    physics = VectorPhysics(cluster, HEALTHY)
    power = PowerVector(cluster)
    physics.prewarm(gpu_power(cluster.node.gpu, Activity(compute=0.5), 1.0))
    power.refresh_intensity(*activity[0])
    start = time.perf_counter()
    for _ in range(STEP_KIND_STEPS):
        physics.step(PHYSICS_DT_S, power.powers(physics.freq_flat))
    held = time.perf_counter() - start
    start = time.perf_counter()
    for j in range(STEP_KIND_STEPS):
        power.refresh_intensity(*activity[j % 2])
        physics.step(PHYSICS_DT_S, power.powers(physics.freq_flat))
    refreshed = time.perf_counter() - start
    # Quiet throughout: no clock ever left its ceiling.
    assert (physics.freq == 1.0).all() and physics._settled
    return held, refreshed


def _best(fn, *args) -> float:
    return min(fn(*args) for _ in range(REPEATS))


def _best_run_time(model: str, cluster: str,
                   parallelism: str) -> tuple[float, int]:
    """Best-of wall seconds of a cold run, and its kernel-record count."""
    best = float("inf")
    records = 0
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = execute_training(
            model=model,
            cluster=cluster,
            parallelism=parallelism,
            microbatch_size=1,
            global_batch_size=16,
            iterations=2,
        )
        best = min(best, time.perf_counter() - start)
        assert result.outcome.makespan_s > 0
        records = len(result.outcome.records)
    return best, records


def test_simulation_hot_path_speedup():
    threshold = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "3.0"))
    activity = bursty_activity(
        np.random.default_rng(0), PHYSICS_STEPS, MI250_X32.total_gpus
    )
    prewarm_w = gpu_power(MI250_X32.node.gpu, Activity(compute=0.75), 1.0)
    physics_rows = []
    for scenario, faults in PHYSICS_SCENARIOS.items():
        reference = _best(_step_reference, faults, activity, prewarm_w)
        optimized = _best(_step_vector, faults, activity, prewarm_w)
        physics_rows.append(
            {
                "scenario": scenario,
                "cluster": MI250_X32.name,
                "steps": PHYSICS_STEPS,
                "reference_us_per_step": round(
                    reference / PHYSICS_STEPS * 1e6, 1
                ),
                "optimized_us_per_step": round(
                    optimized / PHYSICS_STEPS * 1e6, 1
                ),
                "speedup": round(reference / optimized, 3),
            }
        )
    step_kind_rows = []
    for cluster_name in STEP_KIND_CLUSTERS:
        runs = [_step_kinds(cluster_name) for _ in range(REPEATS)]
        step_kind_rows.append(
            {
                "cluster": cluster_name,
                "steps": STEP_KIND_STEPS,
                "held_us_per_step": round(
                    min(r[0] for r in runs) / STEP_KIND_STEPS * 1e6, 1
                ),
                "refreshed_us_per_step": round(
                    min(r[1] for r in runs) / STEP_KIND_STEPS * 1e6, 1
                ),
            }
        )
    total_reference = sum(r["reference_us_per_step"] for r in physics_rows)
    total_optimized = sum(r["optimized_us_per_step"] for r in physics_rows)
    speedup = total_reference / total_optimized

    sweep_rows = []
    with persistence_disabled():
        for model, cluster, parallelism in CANONICAL_SWEEP:
            best_s, records = _best_run_time(model, cluster, parallelism)
            sweep_rows.append(
                {
                    "model": model,
                    "cluster": cluster,
                    "parallelism": parallelism,
                    "optimized_s": round(best_s, 4),
                    "kernel_records": records,
                    "us_per_record": round(best_s / records * 1e6, 2),
                }
            )

    BENCH_PATH.write_text(
        json.dumps(
            {
                "benchmark": "simulation_hot_path",
                "unit": (
                    f"microseconds per physics step / seconds per run, "
                    f"best of {REPEATS}"
                ),
                "written_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
                "threshold": threshold,
                "speedup": round(speedup, 3),
                "physics": physics_rows,
                "step_kinds": step_kind_rows,
                "optimized_total_s": round(
                    sum(r["optimized_s"] for r in sweep_rows), 4
                ),
                "runs": sweep_rows,
            },
            indent=2,
        )
        + "\n"
    )

    assert speedup >= threshold, (
        f"physics-step speedup regressed: {speedup:.2f}x < "
        f"{threshold:.2f}x (details in {BENCH_PATH.name})"
    )


def test_sweep_inference_memoises_grid():
    """The Figure 23 sweep must not recompute per-point work.

    A duplicated strategy/microbatch grid simulates each distinct point
    once, and a warm repeat of the whole sweep is served entirely from
    the in-process memo (identical result objects, no new simulations).
    """
    from repro.api import SimRequest
    from repro.core.sweep import clear_cache, lookup_memo
    from repro.inferserve import sweep_inference

    kwargs = dict(
        model="gpt3-13b",
        cluster="mi250x32",
        strategies=["TP2-PP2-DP4", "TP2-PP2-DP4", "TP4-PP2-DP2"],
        microbatch_sizes=[1, 1, 2],
        global_batch_size=16,
    )
    with persistence_disabled():
        clear_cache()
        cold = sweep_inference(**kwargs)
        assert len(cold) == 9  # grid order, duplicates included
        # Duplicate grid cells share one simulation (same object).
        assert cold[0].result is cold[1].result
        assert cold[0].result is cold[3].result
        # Every distinct point is memo-resident after the sweep.
        for point in cold:
            request = SimRequest(
                kind="inference",
                model="gpt3-13b",
                cluster="mi250x32",
                parallelism=point.parallelism,
                microbatch_size=point.microbatch_size,
                global_batch_size=16,
            )
            assert lookup_memo(*request.to_run_payload()) is point.result
        warm = sweep_inference(**kwargs)
        for cold_point, warm_point in zip(cold, warm):
            assert warm_point.result is cold_point.result


def test_freeze_field_memo():
    """freeze() must hit the per-type field memo, not dataclasses.fields.

    Cache-key construction runs once per sweep point per layer (memo,
    store, batched grouping), so the field-name walk is hot. The memo
    makes repeat freezes of the same settings type cheap; this pin
    bounds the per-call cost so an accidental revert (back to calling
    ``dataclasses.fields`` each time) shows up as a benchmark failure,
    not a silent sweep slowdown.
    """
    from repro.core.sweep import _FIELD_NAMES, freeze
    from repro.engine.simulator import SimSettings

    settings = SimSettings()
    first = freeze(settings)
    assert SimSettings in _FIELD_NAMES  # memo populated on first use
    assert freeze(settings) == first  # memoised path is equivalent

    repeats = 2000
    start = time.perf_counter()
    for _ in range(repeats):
        freeze(settings)
    per_call_us = (time.perf_counter() - start) / repeats * 1e6
    budget_us = float(os.environ.get("REPRO_BENCH_FREEZE_US", "200"))
    assert per_call_us < budget_us, (
        f"freeze(SimSettings) costs {per_call_us:.1f}us/call "
        f"(budget {budget_us:.0f}us) - field memo regressed?"
    )
