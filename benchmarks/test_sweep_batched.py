"""Cold-sweep benchmark: batched grid evaluation vs serial.

Times a cold 48-point setpoint x microbatch grid (24 static frequency
ceilings x two microbatch sizes on gpt3-13b / h100x64 / TP8-PP1) two
ways: one simulation per point (the pre-batched code path) and one
:func:`repro.engine.batched.evaluate_grid` call (anchor once per shared
graph, replay the rest over lane-batched physics). The batched pass must
clear ``REPRO_BENCH_MIN_BATCHED_SPEEDUP`` (default 5x) AND reproduce the
serial results field-for-field — a fast-but-wrong grid is a failure, as
is a correct grid whose lanes ran as serial simulations instead of
replaying (each group has 23 lanes beyond its anchor, well above the
replay threshold).

A second benchmark times a 50-request cold ``submit_many`` batch on a
4-worker pool vs a single worker (skipped on machines with fewer than 4
cores, where the comparison measures oversubscription rather than the
pool). Writes ``BENCH_sweep_batched.json`` at the repo root; CI uploads
it so the speedup trajectory is tracked from PR to PR.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

import repro.engine.batched as batched_mod
from repro.core.experiment import execute_training
from repro.core.store import persistence_disabled
from repro.engine.simulator import SimSettings
from repro.powerctl.config import PowerControlConfig
from tests.conftest import lane_tally

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_sweep_batched.json"

MODEL = "gpt3-13b"
CLUSTER = "h100x64"
PARALLELISM = "TP8-PP1"
SETPOINTS = [0.925 - 0.0125 * i for i in range(24)]
MICROBATCHES = [2, 4]


def _grid_payloads():
    payloads = []
    for microbatch in MICROBATCHES:
        for setpoint in SETPOINTS:
            payloads.append(
                (
                    "train",
                    dict(
                        model=MODEL,
                        cluster=CLUSTER,
                        parallelism=PARALLELISM,
                        microbatch_size=microbatch,
                        settings=SimSettings(
                            power_control=PowerControlConfig(
                                governor="static",
                                freq_setpoint=setpoint,
                            )
                        ),
                    ),
                )
            )
    return payloads


def _assert_field_equal(serial, batched):
    for want, got in zip(serial, batched):
        a, b = want.outcome, got.outcome
        assert a.makespan_s == b.makespan_s
        assert a.records == b.records
        assert a.throttle_ratio == b.throttle_ratio
        assert a.mean_freq_ratio == b.mean_freq_ratio
        for gpu in range(want.cluster.total_gpus):
            sa = a.telemetry.series(gpu)
            sb = b.telemetry.series(gpu)
            for name in (
                "times_s", "power_w", "temp_c", "freq_ratio",
                "compute_util", "comm_util", "pcie_bytes_per_s",
            ):
                np.testing.assert_array_equal(
                    getattr(sa, name), getattr(sb, name), err_msg=name
                )


def test_batched_sweep_speedup():
    from repro.core.sweep import clear_cache

    threshold = float(
        os.environ.get("REPRO_BENCH_MIN_BATCHED_SPEEDUP", "5.0")
    )
    payloads = _grid_payloads()

    with persistence_disabled():
        clear_cache()
        start = time.perf_counter()
        serial = [execute_training(**kwargs) for _, kwargs in payloads]
        serial_s = time.perf_counter() - start

        clear_cache()
        with lane_tally() as tally:
            start = time.perf_counter()
            batched = batched_mod.evaluate_grid(payloads)
            batched_s = time.perf_counter() - start

    _assert_field_equal(serial, batched)
    speedup = serial_s / batched_s

    BENCH_PATH.write_text(
        json.dumps(
            {
                "benchmark": "sweep_batched",
                "unit": "seconds, cold grid",
                "written_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
                "grid": {
                    "model": MODEL,
                    "cluster": CLUSTER,
                    "parallelism": PARALLELISM,
                    "points": len(payloads),
                    "setpoints": len(SETPOINTS),
                    "microbatch_sizes": MICROBATCHES,
                },
                "threshold": threshold,
                "speedup": round(speedup, 3),
                "serial_s": round(serial_s, 4),
                "batched_s": round(batched_s, 4),
                "replayed_lanes": tally.replayed,
                "serial_lanes": dict(tally.serial),
            },
            indent=2,
        )
        + "\n"
    )

    assert not tally.serial, (
        f"grid lanes ran serially instead of replaying: "
        f"{dict(tally.serial)}; the benchmark grid is expected to batch "
        "fully"
    )
    assert speedup >= threshold, (
        f"batched sweep speedup regressed: {speedup:.2f}x < "
        f"{threshold:.2f}x (details in {BENCH_PATH.name})"
    )


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="4-vs-1 worker comparison needs >= 4 cores",
)
def test_worker_pool_batch_speedup():
    """50 cold requests on 4 workers vs 1: >= 3x, zero drops.

    Exercises the persistent :class:`WorkerPool` that backs both
    ``submit_many(jobs=N)`` and ``BrokerConfig(workers=N)``. Pool
    construction is outside the timed window (workers are spawned once
    and reused across batches — that amortisation is the design), the
    50 ``pool.map`` executions are inside it.
    """
    from repro.api import SimRequest
    from repro.core.parallel import ExecutionReport
    from repro.core.sweep import clear_cache
    from repro.serve.workers import WorkerPool

    threshold = float(
        os.environ.get("REPRO_BENCH_MIN_POOL_SPEEDUP", "3.0")
    )
    requests = [
        SimRequest(
            kind="training",
            model=MODEL,
            cluster=CLUSTER,
            parallelism=PARALLELISM,
            microbatch_size=2,
            global_batch_size=16,
            governor="static",
            freq_setpoint=round(0.95 - 0.005 * i, 4),
        )
        for i in range(50)
    ]
    payloads = [request.to_run_payload() for request in requests]

    def timed(workers):
        report = ExecutionReport()
        with WorkerPool(workers) as pool:
            clear_cache()
            start = time.perf_counter()
            results = pool.map(payloads, report)
            elapsed = time.perf_counter() - start
        assert len(results) == len(payloads)  # zero drops
        assert all(result is not None for result in results)
        assert not report.crashed
        return elapsed

    with persistence_disabled():
        single_s = timed(workers=1)
        pooled_s = timed(workers=4)

    speedup = single_s / pooled_s

    data = json.loads(BENCH_PATH.read_text()) if BENCH_PATH.exists() else {}
    data["worker_pool"] = {
        "requests": len(requests),
        "workers": 4,
        "single_worker_s": round(single_s, 4),
        "pooled_s": round(pooled_s, 4),
        "speedup": round(speedup, 3),
        "threshold": threshold,
    }
    BENCH_PATH.write_text(json.dumps(data, indent=2) + "\n")

    assert speedup >= threshold, (
        f"4-worker pool speedup regressed: {speedup:.2f}x < "
        f"{threshold:.2f}x"
    )
