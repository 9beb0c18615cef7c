"""Run a chaos scenario against a live broker and score survival.

:func:`run_scenario` stands up the real serving stack — a
:class:`repro.serve.Broker` with a persistent worker pool (plus remote
TCP workers when the scenario asks for them), self-healing switched on
— installs a seeded :class:`~repro.chaos.injection.FaultInjector`, and
drives a request batch through it the way ``repro serve`` traffic
would flow. The outcome is a :class:`SurvivalReport`:

- **availability** — fraction of requests answered ``ok`` (degraded
  answers count: an approximate answer is the point of degraded mode);
- **zero-drop invariant** — every request got *some* structured
  response; an unhandled exception in the client path is a drop and
  fails the scenario outright;
- **p99 under fault** — tail latency with the faults active.

A scenario *survives* when nothing dropped and availability clears the
scenario's ``min_availability`` bar. ``python -m repro chaos`` wraps
this and exits non-zero on failure, which is what CI's chaos-smoke job
runs.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field

from repro.chaos import hooks
from repro.chaos.injection import FaultInjector
from repro.chaos.scenarios import Scenario

__all__ = ["SurvivalReport", "run_scenario"]

#: Client-side concurrency: how many requests are in flight at once
#: (below the default broker capacity, so queue-full shedding only
#: happens when a fault actually slows the pipe down).
_CLIENT_CONCURRENCY = 8

#: Per-request deadline the harness propagates broker → worker.
_REQUEST_TIMEOUT_S = 120.0

#: Parallelism strategies cycled through to build distinct requests
#: (all tile the 32-GPU reference cluster).
_STRATEGIES = ("TP4-PP2", "TP2-PP4", "TP2-PP2", "TP8")


@dataclass
class SurvivalReport:
    """What happened when a scenario ran; JSON-shaped via to_dict."""

    scenario: str
    seed: int
    requests: int
    answered: int = 0
    ok: int = 0
    degraded: int = 0
    rejected: int = 0
    errors: int = 0
    timeouts: int = 0
    drops: int = 0
    duration_s: float = 0.0
    latency_p50_s: float = 0.0
    latency_p99_s: float = 0.0
    availability: float = 0.0
    min_availability: float = 1.0
    survived: bool = False
    injected: dict = field(default_factory=dict)
    pool: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "requests": self.requests,
            "answered": self.answered,
            "ok": self.ok,
            "degraded": self.degraded,
            "rejected": self.rejected,
            "errors": self.errors,
            "timeouts": self.timeouts,
            "drops": self.drops,
            "duration_s": self.duration_s,
            "latency_p50_s": self.latency_p50_s,
            "latency_p99_s": self.latency_p99_s,
            "availability": self.availability,
            "min_availability": self.min_availability,
            "survived": self.survived,
            "injected": dict(self.injected),
            "pool": dict(self.pool),
            "metrics": dict(self.metrics),
        }

    def describe(self) -> str:
        """One-line verdict for logs and the CLI."""
        verdict = "SURVIVED" if self.survived else "FAILED"
        return (
            f"{self.scenario}: {verdict} — {self.ok}/{self.requests} ok "
            f"({self.degraded} degraded, {self.rejected} rejected, "
            f"{self.drops} dropped), availability "
            f"{self.availability:.0%} (bar {self.min_availability:.0%}), "
            f"p99 {self.latency_p99_s:.3f}s"
        )


def build_requests(count: int, distinct: int | None = None,
                   *, model: str = "gpt3-13b",
                   cluster: str = "mi250x32") -> list:
    """A batch of ``count`` requests over ``distinct`` configurations.

    Repeats are intentional: they exercise the cache/dedup paths the
    torn-write scenarios corrupt. Batch sizes and strategies cycle so
    digests differ between the distinct configs.
    """
    from repro.api import SimRequest

    if distinct is None:
        distinct = min(8, max(1, count))
    configs = [
        SimRequest(
            kind="training",
            model=model,
            cluster=cluster,
            parallelism=_STRATEGIES[index % len(_STRATEGIES)],
            global_batch_size=8 * (1 + index // len(_STRATEGIES)),
            timeout_s=_REQUEST_TIMEOUT_S,
        )
        for index in range(distinct)
    ]
    return [configs[index % distinct] for index in range(count)]


def _prefill_store(batch: list) -> None:
    """Store the result of every distinct request in ``batch``, then
    empty the memo, so the next reads of these requests go to disk."""
    from repro.api import submit_many
    from repro.core import sweep

    submit_many(batch)
    sweep._CACHE.clear()


def _percentile(values: list, fraction: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1,
                int(fraction * (len(ordered) - 1) + 0.5))
    return ordered[index]


def _spawn_remote_workers(pool, count: int) -> list:
    """Attach ``count`` TCP workers to the pool over loopback."""
    from repro.serve.workers import serve_worker

    if count <= 0:
        return []
    authkey = b"repro-chaos"
    address = pool.listen(("127.0.0.1", 0), authkey)
    processes = []
    ctx = multiprocessing.get_context()
    for _ in range(count):
        process = ctx.Process(
            target=serve_worker,
            args=(address, authkey),
            kwargs={"reconnect": True, "max_retries": 8},
            daemon=True,
        )
        process.start()
        processes.append(process)
    _await_remotes(pool, count)
    return processes


def _await_remotes(pool, count: int, timeout_s: float = 10.0) -> None:
    """Wait until ``count`` remote workers are attached (or time out)."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if pool.stats()["remote_workers"] >= count:
            break
        time.sleep(0.02)


def run_scenario(
    scenario: Scenario,
    *,
    seed: int = 0,
    requests: int = 50,
    workers: int = 4,
    distinct: int | None = None,
    cache_dir: str | os.PathLike | None = None,
) -> SurvivalReport:
    """Execute one scenario end to end and return its report.

    The broker runs with the full self-healing stack enabled (the
    pool's crash redispatch and respawn, degraded mode, the scenario's
    hedge delay) — the same shape ``repro serve`` deploys — while the
    scenario's :class:`~repro.chaos.injection.FaultPlan` fires through
    the production hook points. ``cache_dir`` redirects the result
    store for the run (recommended: a scratch directory, so corruption
    faults never touch a real cache).
    """
    import asyncio

    from repro.api import SimRequest  # noqa: F401 - validates imports early
    from repro.serve.broker import Broker, BrokerConfig

    report = SurvivalReport(
        scenario=scenario.name,
        seed=seed,
        requests=requests,
        min_availability=scenario.min_availability,
    )
    injector = FaultInjector(scenario.plan, seed=seed)
    saved_cache = os.environ.get("REPRO_CACHE_DIR")
    if cache_dir is not None:
        os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    try:
        from repro.core import sweep as _sweep

        getattr(_sweep, "_CACHE", {}).clear()  # isolate the memo
        batch = build_requests(requests, distinct)
        if scenario.prefill_store:
            _prefill_store(batch)
        # One execution slot per worker, remote ones included: with
        # only the local workers' slots, the least-loaded pick never
        # reaches an idle remote worker.
        config = BrokerConfig(
            concurrency=max(2, workers + scenario.remote_workers),
            queue_limit=16,
            default_timeout_s=_REQUEST_TIMEOUT_S,
            workers=workers,
            hedge_s=scenario.hedge_s,
            degraded=True,
        )
        statuses: list[tuple[str, bool, float]] = []
        drops = 0
        started = time.monotonic()
        with hooks.installed(injector):
            broker_box: dict = {}

            async def _drive() -> None:
                broker = Broker(config)
                broker_box["broker"] = broker
                remotes = await asyncio.get_running_loop().run_in_executor(
                    None, _spawn_remote_workers, broker.pool,
                    scenario.remote_workers if broker.pool else 0,
                )
                broker_box["remotes"] = remotes
                gate = asyncio.Semaphore(_CLIENT_CONCURRENCY)

                async def _one(request) -> tuple[str, bool, float]:
                    async with gate:
                        response = await broker.submit(request)
                    return (response.status, response.degraded,
                            response.duration_s)

                waves = [batch]
                if scenario.prefill_store:
                    # The batch opens with each distinct request once;
                    # those are answered before the repeats are sent,
                    # so every stored entry is read exactly once and
                    # the seed alone fixes how many reads are torn.
                    firsts = len({request.digest() for request in batch})
                    waves = [batch[:firsts], batch[firsts:]]
                results = []
                for wave in waves:
                    results += await asyncio.gather(
                        *(_one(request) for request in wave),
                        return_exceptions=True,
                    )
                for outcome in results:
                    if isinstance(outcome, BaseException):
                        statuses.append(("dropped", False, 0.0))
                    else:
                        statuses.append(outcome)
                broker_box["finished"] = time.monotonic()
                if remotes:
                    # A dropped remote worker re-dials; give it a moment,
                    # so the pool stats show whether it came back.
                    await asyncio.get_running_loop().run_in_executor(
                        None, _await_remotes, broker.pool, len(remotes), 2.0,
                    )
                broker_box["pool_stats"] = (
                    broker.pool.stats() if broker.pool else {}
                )
                broker_box["metrics"] = broker.metrics_dict()

            asyncio.run(_drive())
            report.duration_s = broker_box["finished"] - started
            broker = broker_box.get("broker")
            if broker is not None:
                broker.close()
            for process in broker_box.get("remotes", []):
                process.terminate()
                process.join(timeout=2.0)
        latencies = []
        for status, degraded, duration in statuses:
            if status == "dropped":
                drops += 1
                continue
            report.answered += 1
            latencies.append(duration)
            if status == "ok":
                report.ok += 1
                if degraded:
                    report.degraded += 1
            elif status == "rejected":
                report.rejected += 1
            elif status == "timeout":
                report.timeouts += 1
            else:
                report.errors += 1
        report.drops = drops + (requests - len(statuses))
        report.latency_p50_s = _percentile(latencies, 0.50)
        report.latency_p99_s = _percentile(latencies, 0.99)
        report.availability = (
            report.ok / requests if requests else 1.0
        )
        report.survived = (
            report.drops == 0
            and report.availability >= scenario.min_availability
        )
        report.injected = injector.injected()
        report.pool = broker_box.get("pool_stats", {})
        metrics = broker_box.get("metrics", {})
        report.metrics = {
            key: metrics.get(key)
            for key in (
                "errors_total", "retries_total", "respawns_total",
                "degraded_total", "hits", "memo_hits", "store_hits",
                "misses", "deduped",
            )
            if key in metrics
        }
        return report
    finally:
        if cache_dir is not None:
            if saved_cache is None:
                os.environ.pop("REPRO_CACHE_DIR", None)
            else:
                os.environ["REPRO_CACHE_DIR"] = saved_cache
