"""Metric names, units and shared helpers of the benchmark."""

from __future__ import annotations

import json
import resource
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent

#: One round of each workload is sized to take about this long at the
#: reference commit on a 2-core x86-64 host; a run repeats its round
#: ``--seconds / ROUND_SECONDS`` times (serve-mix: at most four).
ROUND_SECONDS = {"cold-run": 6.0, "sweep": 7.5, "serve-mix": 7.5}

#: Fresh-interpreter start-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5

#: Counters that must repeat exactly between the two traced passes.
EXACT = (
    "engine.simulator.events", "engine.builder.tasks", "core.store.puts",
    "core.store.put_bytes", "engine.batched.full_sims",
    "optimize.simulated",
)

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "sim_events_per_s": "1/s",
    "configs_per_s": "1/s",
    "slo_attainment": "ratio",
}

LAYER_UNITS = {}
for _name in (
    "api.validate.calls", "core.sweep.probe.memo_hits",
    "core.sweep.probe.store_hits", "core.sweep.probe.misses",
    "engine.builder.calls", "engine.builder.tasks",
    "engine.simulator.runs", "engine.simulator.events",
    "engine.physics.steps", "telemetry.samples", "core.results.calls",
    "core.store.puts", "core.store.gets", "core.store.get_hits",
    "engine.batched.points", "engine.batched.full_sims",
    "optimize.searches", "optimize.raw", "optimize.simulated",
    "serve.broker.hits", "serve.broker.misses", "serve.broker.deduped",
    "serve.broker.errors_total", "serve.broker.retries_total",
    "serve.broker.respawns_total", "serve.broker.degraded_total",
    "serve.workers.queue_depth_max", "loadgen.sent",
):
    LAYER_UNITS[_name] = "count"
for _name in (
    "api.validate.self_ms", "api.submit.self_ms", "core.sweep.self_ms",
    "core.experiment.self_ms", "engine.builder.self_ms",
    "engine.simulator.self_ms", "engine.physics.self_ms",
    "telemetry.self_ms", "core.results.self_ms", "core.store.put_ms",
    "core.store.get_ms", "engine.batched.self_ms", "optimize.prune_ms",
    "optimize.rank_ms", "optimize.self_ms", "serve.broker.self_ms",
    "serve.response.self_ms", "serve.workers.miss_ms",
    "serve.http.self_ms", "serve.http.handler_ms", "serve.http.wire_ms",
    "loadgen.lag_ms_p99",
):
    LAYER_UNITS[_name] = "ms"
LAYER_UNITS.update({
    "core.store.put_bytes": "bytes",
    "engine.simulator.host_us_per_event": "us",
    "engine.batched.replay_ratio": "ratio",
    "trace.unattributed_share": "ratio",
    "trace.overhead_pct": "%",
})

#: Layers whose self time is reported as ``<layer>.self_ms``; the
#: store splits its time by call instead.
SELF_LAYERS = (
    "api.validate", "api.submit", "core.sweep", "core.experiment",
    "engine.builder", "engine.simulator", "engine.physics", "telemetry",
    "core.results", "engine.batched", "optimize", "serve.broker",
    "serve.response",
)


def quantile(values, q):
    """The q-quantile (0..1) with linear interpolation."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


#: Host-speed probe. The shared host's speed drifts by more than half
#: between runs a minute apart, and the program's times drift with it.
#: A run times a fixed loop of interpreter and NumPy work (the two
#: things the simulator spends its time in) PROBE_REPEATS times before
#: every operation (in-process) or every PROBE_GAP_S while requests are
#: in flight (serve-mix), and reports every time-based end-to-end metric
#: at reference speed: ``measured * REFERENCE_S / median(probe)``.
#: REFERENCE_S is the probe's median on the reference host, so the
#: figures read in that host's milliseconds and seconds.
REFERENCE_S = 0.0012
PROBE_REPEATS = 3
PROBE_GAP_S = 0.05

#: ``setup_s`` has its own probe, timed in blocks of this many before
#: every start-up and after the last: the host can change speed between
#: the start-ups and the rounds.
SETUP_PROBE_REPEATS = 20
_PROBE_ARRAY = np.arange(4096, dtype=float)


def _probe_work() -> float:
    table: dict[int, float] = {}
    total = 0.0
    for i in range(3000):
        key = i % 97
        table[key] = table.get(key, 0.0) + i * 0.5
        total += table[key] / (1 + key)
    values = _PROBE_ARRAY
    for _ in range(40):
        values = np.sqrt(values * 1.0001 + 1.0)
    return total + float(values[-1])


def probe(samples: list, repeats: int = PROBE_REPEATS) -> None:
    """Append ``repeats`` probe timings (s) to ``samples``."""
    for _ in range(repeats):
        start = perf_counter()
        _probe_work()
        samples.append(perf_counter() - start)


def host_scale(samples: list) -> float:
    """Factor that converts this run's times to reference speed."""
    return REFERENCE_S / statistics.median(samples)


def hd_quantile(values, q):
    """Harrell-Davis estimate of the q-quantile (0..1): the mean of all
    order statistics weighted by a Beta(q(n+1), (1-q)(n+1)) density.
    With a few dozen unevenly spaced samples it moves far less from run
    to run than the one or two order statistics ``quantile`` uses."""
    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    if n == 1:
        return float(ordered[0])
    a, b = q * (n + 1), (1 - q) * (n + 1)
    per_bin = 64
    t = (np.arange(n * per_bin) + 0.5) / (n * per_bin)
    density = np.exp((a - 1) * np.log(t) + (b - 1) * np.log1p(-t))
    weights = density.reshape(n, per_bin).sum(axis=1)
    return float(weights @ ordered / weights.sum())


def per_op_medians(rounds):
    """Each operation's median over the rounds (``rounds[r][i]``)."""
    return [statistics.median(times) for times in zip(*rounds)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def limits() -> dict:
    with open(HERE / "record.json") as handle:
        return json.load(handle)["latency_limit_ms"]


def finish(metrics: dict, units: dict, failed: list, checks_ok: bool):
    """The result object a run prints as its last line."""
    return {
        "correct": checks_ok and not any(failed),
        "attempted": len(failed),
        "failed": sum(1 for f in failed if f),
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
    }
