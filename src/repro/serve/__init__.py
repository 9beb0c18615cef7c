"""Simulation-as-a-service: a long-running broker over :mod:`repro.api`.

Three front doors, one execution substrate:

- :class:`Broker` — embeddable asyncio object. ``await broker.submit(
  SimRequest(...))`` returns a :class:`SimResponse`.
- :class:`BrokerServer` — stdlib ``http.server`` JSON endpoint
  (``POST /v1/simulate``, ``GET /v1/status``, ``GET /v1/metrics``).
- ``python -m repro serve`` — the CLI wrapper around
  :class:`BrokerServer`.

The broker answers cache hits synchronously from the shared
``.repro_cache`` store, deduplicates identical in-flight requests, and
executes misses under bounded concurrency, per-request deadlines, and
queue-full backpressure. Misses run on a persistent :class:`WorkerPool`
(``BrokerConfig(workers=N)``, default one worker per concurrency slot):
long-lived worker processes (optionally joined by remote TCP workers,
``python -m repro worker``) with per-worker work-stealing deques,
health checks with automatic respawn, and a shared content-addressed
cache. The same pool class runs every ``jobs > 1`` fan-out in the
package (:func:`repro.core.parallel.map_runs`).
``BrokerConfig(slo_target_s=...)`` adds SLO-aware admission: misses
whose predicted wait (queue depth × mean service time) exceeds the
target are rejected up front with a matching Retry-After.

The serve tier self-heals: the worker pool redispatches a crashed
worker's task with full-jitter backoff under one crash budget and
respawns the worker, hedged requests race p99 stragglers (opt-in via
:class:`BrokerConfig`), HTTP → broker → worker deadlines kill overdue
workers, and a degraded mode (opt-in; the CLI turns it on) answers from
the last-good LRU or the closed-form analytic model
(:func:`repro.serve.degraded.analytic_estimate`) instead of 500ing.
:mod:`repro.chaos` injects the faults that prove all of this works.
See docs/api.md, docs/performance.md, and docs/chaos.md.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.serve.broker": (
        "Broker", "BrokerConfig", "BrokerMetrics", "SimResponse",
    ),
    "repro.serve.degraded": ("analytic_estimate",),
    "repro.serve.http": ("BrokerServer",),
    "repro.serve.workers": ("WorkerPool", "serve_worker"),
})

__all__ = [
    "Broker",
    "BrokerConfig",
    "BrokerMetrics",
    "BrokerServer",
    "SimResponse",
    "WorkerPool",
    "analytic_estimate",
    "serve_worker",
]
