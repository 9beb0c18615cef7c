"""Broker throughput benchmark: the 90%-cache-hit serving workload.

Fires 50 requests (5 distinct configurations x 10 repeats) through a
:class:`repro.serve.Broker` that executes misses on its worker pool,
as ``repro serve`` does. After the first pass over the 5
distinct configurations every remaining request is a cache hit, so the
broker's hit rate is 90%. The gate times those 45 hits themselves
against cold execution of the same 45 requests (``submit(cache=False)``,
every one a fresh simulation); the 5 misses are not timed, so the ratio
measures the cache-hit path rather than simulation and store-write
time. Each side is timed as the median of ``REPETITIONS`` interleaved
cold/warm repetitions, each warm pass on an empty memo and store, so
one slow host window cannot decide the gate. Asserts the hits clear
``REPRO_SERVE_MIN_SPEEDUP`` (default 5x).

It then replays the hits over one keep-alive HTTP connection to a
live :class:`repro.serve.BrokerServer` and reports the median ms per
hit, once with the next request sent as soon as an answer arrives
(back to back) and once with a pause between requests (idle). These
two figures are a report, not a gate.

Writes ``BENCH_serve.json`` at the repo root so serving throughput is
tracked from PR to PR (CI uploads it as an artifact).
"""

import asyncio
import http.client
import json
import os
import statistics
import time
from pathlib import Path

from repro.api import SimRequest, submit
from repro.serve import Broker, BrokerConfig, BrokerServer

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_serve.json"

#: Five distinct mi250x32 configurations; small batches keep one cold
#: simulation in the tens of milliseconds.
DISTINCT = [
    ("TP4-PP2", 1),
    ("TP4-PP2", 2),
    ("TP2-PP4", 1),
    ("TP8-PP2", 1),
    ("TP4-PP4", 1),
]

REPEATS = 10  # 5 distinct x 10 = 50 requests, 45 of them hits

#: Interleaved cold/warm repetitions; each side's time is their median.
REPETITIONS = 3

#: Pause between HTTP hits in the idle pass.
IDLE_PAUSE_S = 0.05


def _requests() -> list[SimRequest]:
    batch = [
        SimRequest(
            kind="training",
            model="gpt3-13b",
            cluster="mi250x32",
            parallelism=parallelism,
            microbatch_size=microbatch,
            global_batch_size=8,
        )
        for parallelism, microbatch in DISTINCT
    ]
    return batch * REPEATS


async def _serve_batch(requests: list[SimRequest]) -> tuple[float, dict]:
    """Seconds the broker spends on the hits (every request after the
    first pass over ``DISTINCT``), and its metrics."""
    broker = Broker(BrokerConfig(concurrency=2))
    hits_s = 0.0
    try:
        for index, request in enumerate(requests):
            start = time.perf_counter()
            response = await broker.submit(request)
            if index >= len(DISTINCT):
                hits_s += time.perf_counter() - start
            assert response.ok, response
    finally:
        broker.close()
    return hits_s, broker.metrics.to_dict()


def _http_hit_ms(address: str, requests: list[SimRequest],
                 pause_s: float) -> float:
    """Median ms per cache hit over one keep-alive connection, sleeping
    ``pause_s`` after each answer (0: back to back)."""
    host, port = address.rsplit(":", 1)
    connection = http.client.HTTPConnection(host, int(port), timeout=30)
    samples = []
    try:
        for request in requests:
            body = request.to_json()
            start = time.perf_counter()
            connection.request("POST", "/v1/simulate", body=body)
            answer = json.loads(connection.getresponse().read())
            samples.append(time.perf_counter() - start)
            assert answer["cached"], answer
            time.sleep(pause_s)
    finally:
        connection.close()
    return statistics.median(samples) * 1000.0


def test_serve_cache_hit_throughput(tmp_path, monkeypatch):
    import repro.core.sweep as sweep_mod

    threshold = float(
        os.environ.get("REPRO_SERVE_MIN_SPEEDUP", "5.0")
    )
    requests = _requests()

    cold_runs, warm_runs = [], []
    for repetition in range(REPETITIONS):
        # The benchmark owns its store (conftest here does not isolate
        # it); every warm pass starts from an empty store and memo.
        monkeypatch.setenv(
            "REPRO_CACHE_DIR", str(tmp_path / f"serve_cache_{repetition}")
        )
        sweep_mod._CACHE.clear()
        start = time.perf_counter()
        for request in requests[len(DISTINCT):]:
            result = submit(request, cache=False)
            assert result.outcome.makespan_s > 0
        cold_runs.append(time.perf_counter() - start)

        warm_s, metrics = asyncio.run(_serve_batch(requests))
        warm_runs.append(warm_s)
        assert metrics["hit_rate"] >= 0.9 - 1e-9, metrics
    cold_s = statistics.median(cold_runs)
    warm_s = statistics.median(warm_runs)

    # Every request is now a memo hit.
    with BrokerServer(BrokerConfig(concurrency=2, use_processes=False),
                      port=0) as server:
        hit_ms_back_to_back = _http_hit_ms(server.address, requests, 0.0)
        hit_ms_idle = _http_hit_ms(server.address, requests, IDLE_PAUSE_S)

    speedup = cold_s / warm_s
    payload = {
        "benchmark": "serve_cache_hit_throughput",
        "unit": "seconds for the 45 hit requests of the 50-request batch",
        "requests": len(requests),
        "timed_hits": len(requests) - len(DISTINCT),
        "distinct": len(DISTINCT),
        "cache_hit_rate": metrics["hit_rate"],
        "repetitions": REPETITIONS,
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "cold_runs_s": [round(t, 4) for t in cold_runs],
        "warm_runs_s": [round(t, 4) for t in warm_runs],
        "speedup": round(speedup, 2),
        "hit_throughput_rps": round(
            (len(requests) - len(DISTINCT)) / warm_s, 1
        ),
        "p99_latency_s": round(metrics["latency_p99_s"], 5),
        "http_hit_ms_back_to_back": round(hit_ms_back_to_back, 3),
        "http_hit_ms_idle": round(hit_ms_idle, 3),
        "threshold": threshold,
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    assert speedup >= threshold, (
        f"broker answered the 45 hits only {speedup:.2f}x faster "
        f"than cold execution (threshold {threshold}x): {payload}"
    )
