"""Perf-regression benchmark: optimized simulation stack vs reference.

Times the canonical mi250x32 sweep on both simulator backends —
``fast_path=False`` is the original scalar implementation kept as the
oracle/baseline, ``fast_path=True`` is the vectorized physics +
collective-cost memoisation + cheap-recording path — and asserts the
optimized path clears ``REPRO_BENCH_MIN_SPEEDUP`` (default 3x). The
persistent result cache is explicitly out of the measurement: every run
here is a cold ``execute_training`` call, so the speedup comes from the
hot-path work alone.

Writes ``BENCH_simulation.json`` at the repo root so the performance
trajectory is tracked from PR to PR (CI uploads it as an artifact).
"""

import json
import os
import time
from pathlib import Path

from repro.core.experiment import execute_training
from repro.core.store import persistence_disabled
from repro.engine.simulator import SimSettings

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_simulation.json"

#: The representative sweep: both MI250 paper models, two strategy shapes.
CANONICAL_SWEEP = [
    ("gpt3-30b", "mi250x32", "TP2-PP8-DP2"),
    ("llama3-30b", "mi250x32", "TP4-PP4-DP2"),
]

REPEATS = 2  # best-of, to shrug off scheduler noise


def _best_time(model: str, cluster: str, parallelism: str,
               fast: bool) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = execute_training(
            model=model,
            cluster=cluster,
            parallelism=parallelism,
            microbatch_size=1,
            global_batch_size=16,
            iterations=2,
            settings=SimSettings(fast_path=fast),
        )
        best = min(best, time.perf_counter() - start)
        assert result.outcome.makespan_s > 0
    return best


def test_simulation_hot_path_speedup():
    threshold = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "3.0"))
    rows = []
    with persistence_disabled():
        for model, cluster, parallelism in CANONICAL_SWEEP:
            reference = _best_time(model, cluster, parallelism, fast=False)
            optimized = _best_time(model, cluster, parallelism, fast=True)
            rows.append(
                {
                    "model": model,
                    "cluster": cluster,
                    "parallelism": parallelism,
                    "reference_s": round(reference, 4),
                    "optimized_s": round(optimized, 4),
                    "speedup": round(reference / optimized, 3),
                }
            )
    total_reference = sum(row["reference_s"] for row in rows)
    total_optimized = sum(row["optimized_s"] for row in rows)
    speedup = total_reference / total_optimized

    BENCH_PATH.write_text(
        json.dumps(
            {
                "benchmark": "simulation_hot_path",
                "unit": f"seconds, best of {REPEATS}",
                "written_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
                "threshold": threshold,
                "speedup": round(speedup, 3),
                "reference_total_s": round(total_reference, 4),
                "optimized_total_s": round(total_optimized, 4),
                "runs": rows,
            },
            indent=2,
        )
        + "\n"
    )

    assert speedup >= threshold, (
        f"hot-path speedup regressed: {speedup:.2f}x < {threshold:.2f}x "
        f"(details in {BENCH_PATH.name})"
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
