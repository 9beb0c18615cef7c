"""The asyncio simulation broker: admission control over shared caches.

One :class:`Broker` owns three request paths, tried in order:

1. **Cache hit** — answered without queueing or a worker: the
   in-process memo inline, then the persistent store
   (:func:`repro.core.sweep.lookup_cached`) on an executor thread. Both
   probes, and every later step, reuse the request's
   :class:`~repro.core.sweep.RunIdentity` (key and digest, built once).
2. **In-flight dedup** — a request whose digest matches a simulation
   already executing awaits that execution's future instead of starting
   a second one; identical concurrent requests simulate exactly once,
   and each answer echoes its own request.
3. **Pooled execution** — the miss queues for a bounded-concurrency
   slot and runs on the broker's persistent
   :class:`repro.serve.workers.WorkerPool`. A per-request deadline
   kills the hosting worker (``timeout`` response); a SIGKILLed/OOMed
   worker's task is redispatched by the pool, and becomes a structured
   ``error`` response once the pool's one crash budget
   (``repro.serve.workers._TASK_ATTEMPTS`` dispatches) is spent; the
   broker keeps serving either way. The broker itself never retries.

Backpressure is explicit: when ``queue_limit`` requests are already
waiting for a slot, new misses are **rejected** immediately (the HTTP
layer maps this to ``429`` + ``Retry-After``) rather than queued without
bound.

**Degraded mode** (off by default so library behaviour is unchanged;
``repro serve`` turns it on — see docs/chaos.md): with
``degraded=True`` an execution that cannot produce a real result
(crash budget exhausted, deadline) is answered approximately instead of
500ing: first from an LRU of last-good results for that digest
(``"stale-cache"``), else from the closed-form
:func:`repro.serve.degraded.analytic_estimate` (``"analytic"``). Such
responses are ``status="ok"`` with ``degraded: true`` so clients can
tell. A request that fails on its own (a payload error) is never
degraded: it gets ``status="error"`` in pool and inline mode alike.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import json
import statistics
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.api import OptimizeRequest, SimRequest, submit
from repro.chaos import hooks as chaos_hooks
from repro.core.parallel import PayloadError, WorkerTimeoutError
from repro.core.results import RunResult

if TYPE_CHECKING:
    from repro.core.sweep import RunIdentity

#: Seconds added to the in-executor backstop beyond the worker deadline,
#: so the pool's own kill path fires first.
_DEADLINE_GRACE_S = 5.0

#: How many recent request latencies feed the percentile counters.
_LATENCY_WINDOW = 2048

#: Digest -> last good result entries kept for stale-cache degraded
#: answers (small: these also live in the memo/store; this LRU only
#: has to survive a store outage).
_LAST_GOOD_LIMIT = 256


@dataclass(frozen=True)
class BrokerConfig:
    """Admission-control knobs for one :class:`Broker`.

    Attributes:
        concurrency: simulations executing at once (worker slots).
        queue_limit: misses allowed to *wait* for a slot before new
            misses are rejected; bounds broker memory.
        default_timeout_s: per-request deadline when the request does
            not carry its own ``timeout_s`` (None = no deadline).
        retry_after_s: hint attached to rejections (HTTP Retry-After).
        use_processes: run misses on a persistent
            :class:`~repro.serve.workers.WorkerPool` (killable
            deadlines, crash isolation). ``False`` executes in-process
            threads — faster for tests, no kill capability.
        cache: serve and populate the shared result cache.
        workers: size of that pool (0 = ``concurrency``). Pool workers
            are spawned once and reused, share the parent's
            ``REPRO_CACHE_DIR`` store, and steal work from each other's
            deques.
        slo_target_s: SLO-aware admission: reject a miss (429 +
            Retry-After) when its predicted wait — queue depth × mean
            service time — already exceeds this bound, instead of
            letting it queue up to ``queue_limit``. None disables.
        service_time_hint_s: seed for the mean-service-time estimate
            before any request has completed (cold-start SLO
            admission).
        hedge_s: hedged-request delay handed to the worker pool
            (``None`` disables; only meaningful with
            ``use_processes``).
        degraded: answer otherwise-failed requests from the last-good
            LRU or the analytic model, marked ``degraded: true``,
            instead of returning ``error``/``timeout``.
    """

    concurrency: int = 2
    queue_limit: int = 16
    default_timeout_s: float | None = 300.0
    retry_after_s: float = 1.0
    use_processes: bool = True
    cache: bool = True
    workers: int = 0
    slo_target_s: float | None = None
    service_time_hint_s: float = 0.0
    hedge_s: float | None = None
    degraded: bool = False

    def __post_init__(self) -> None:
        if self.concurrency < 1:
            raise ValueError(
                f"concurrency must be >= 1, got {self.concurrency}"
            )
        if self.queue_limit < 0:
            raise ValueError(
                f"queue_limit must be >= 0, got {self.queue_limit}"
            )
        if self.workers < 0:
            raise ValueError(
                f"workers must be >= 0, got {self.workers}"
            )
        if self.slo_target_s is not None and self.slo_target_s <= 0:
            raise ValueError(
                f"slo_target_s must be > 0 (or None), "
                f"got {self.slo_target_s}"
            )
        if self.hedge_s is not None and self.hedge_s <= 0:
            raise ValueError(
                f"hedge_s must be > 0 (or None), got {self.hedge_s}"
            )


#: Placeholders :meth:`SimResponse.encode` replaces with the request
#: and result JSON.
_REQUEST_SLOT = "\x00request"
_RESULT_SLOT = "\x00result"
_REQUEST_MARK = json.dumps(_REQUEST_SLOT)
_RESULT_MARK = json.dumps(_RESULT_SLOT)


def result_payload(result: object) -> object:
    """The JSON form a response body gives ``result``: a run summary
    for a :class:`RunResult`, the metrics of a serving outcome, or a
    self-serialising result's ``to_dict()``."""
    if isinstance(result, RunResult):
        from repro.core.artifact import run_summary

        return run_summary(result)
    if (result is not None and not isinstance(result, dict)
            and hasattr(result, "metrics")):
        return dataclasses.asdict(result.metrics())
    if (result is not None and not isinstance(result, dict)
            and hasattr(result, "to_dict")):
        # OptimizeResult and other self-serialising result types.
        return result.to_dict()
    return result


@dataclass(frozen=True)
class SimResponse:
    """One broker answer: a result or a structured failure.

    ``status`` is one of ``"ok"``, ``"error"`` (worker crash or payload
    exception), ``"timeout"`` (deadline hit, worker killed), or
    ``"rejected"`` (queue full — retry after ``retry_after_s``).
    A degraded-mode answer is ``"ok"`` with ``degraded=True`` and
    ``degraded_source`` naming the tier that produced it
    (``"stale-cache"`` or ``"analytic"``).
    """

    status: str
    request: SimRequest | OptimizeRequest
    result: object = None
    error: str | None = None
    cached: bool = False
    deduped: bool = False
    duration_s: float = 0.0
    retry_after_s: float | None = None
    degraded: bool = False
    degraded_source: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> dict:
        """JSON-serialisable form (the HTTP response body)."""
        return self._envelope(
            self.request.to_dict(), self.request.digest(),
            result_payload(self.result),
        )

    def encode(self, request_json: str | None = None,
               digest: str | None = None,
               result_json: str | None = None) -> bytes:
        """The HTTP body: byte for byte ``json.dumps(self.to_dict())``.

        Fragments the caller already holds are spliced in instead of
        being rebuilt: ``request_json`` is ``json.dumps`` of the
        request's dict form, ``digest`` its digest and ``result_json``
        ``json.dumps(result_payload(self.result))``.
        """
        if request_json is None:
            request_json = json.dumps(self.request.to_dict())
        if digest is None:
            digest = self.request.digest()
        if result_json is None:
            result_json = json.dumps(result_payload(self.result))
        # Only the status, the request slot and a hex digest precede
        # the result slot, and the request slot precedes the spliced
        # result, so each first match is the slot itself.
        text = json.dumps(self._envelope(_REQUEST_SLOT, digest,
                                         _RESULT_SLOT))
        text = text.replace(_RESULT_MARK, result_json, 1)
        return text.replace(_REQUEST_MARK, request_json, 1).encode()

    def _envelope(self, request, digest: str, result) -> dict:
        return {
            "status": self.status,
            "request": request,
            "digest": digest,
            "result": result,
            "error": self.error,
            "cached": self.cached,
            "deduped": self.deduped,
            "duration_s": self.duration_s,
            "retry_after_s": self.retry_after_s,
            "degraded": self.degraded,
            "degraded_source": self.degraded_source,
        }


@dataclass
class BrokerMetrics:
    """Monotonic counters + a sliding latency window."""

    requests: int = 0
    hits: int = 0
    memo_hits: int = 0
    store_hits: int = 0
    misses: int = 0
    deduped: int = 0
    rejected: int = 0
    errors: int = 0
    timeouts: int = 0
    degraded: int = 0
    latencies_s: deque = field(
        default_factory=lambda: deque(maxlen=_LATENCY_WINDOW)
    )

    def observe(self, seconds: float) -> None:
        self.latencies_s.append(seconds)

    def percentile(self, fraction: float) -> float:
        if not self.latencies_s:
            return 0.0
        ordered = sorted(self.latencies_s)
        index = min(
            len(ordered) - 1, int(fraction * (len(ordered) - 1) + 0.5)
        )
        return ordered[index]

    def to_dict(self) -> dict:
        total = self.hits + self.misses
        return {
            "requests": self.requests,
            "hits": self.hits,
            "memo_hits": self.memo_hits,
            "store_hits": self.store_hits,
            "misses": self.misses,
            "deduped": self.deduped,
            "rejected": self.rejected,
            "errors": self.errors,
            "timeouts": self.timeouts,
            "degraded": self.degraded,
            "hit_rate": (self.hits / total) if total else 0.0,
            "latency_p50_s": self.percentile(0.50),
            "latency_p90_s": self.percentile(0.90),
            "latency_p99_s": self.percentile(0.99),
            "latency_mean_s": (
                statistics.fmean(self.latencies_s)
                if self.latencies_s
                else 0.0
            ),
        }


def _submit_dict(data: dict) -> object:
    """Worker-side fleet execution (top-level, picklable)."""
    return submit(SimRequest.from_dict(data))


def _inline_runner(request: SimRequest, timeout_s: float | None,
                   identity: RunIdentity | None = None) -> object:
    """In-process execution (``use_processes=False``); no kill path.

    A cacheable request runs under the ``identity`` the broker already
    built for it, so execution re-derives no key. An exception the run
    raises is the request's own, so it surfaces as the
    :class:`PayloadError` a pool worker would report for it.
    """
    try:
        if identity is not None and request.cacheable:
            from repro.core.sweep import cached_run_identified

            return cached_run_identified(identity)
        return submit(request)
    except Exception as error:
        raise PayloadError(f"{type(error).__name__}: {error}") from error


class Broker:
    """Asyncio admission-control front end over :func:`repro.api.submit`.

    Responses are field-by-field identical to calling ``submit()``
    directly — the broker only adds caching, dedup, concurrency limits,
    deadlines, and backpressure around the same execution. Construct it
    inside a running event loop (or via :class:`repro.serve.BrokerServer`,
    which owns a loop); ``runner`` is injectable for tests.
    """

    def __init__(
        self,
        config: BrokerConfig | None = None,
        runner: Callable[[SimRequest, float | None], object] | None = None,
    ) -> None:
        self.config = config or BrokerConfig()
        self.pool = None
        self._runner = runner or _inline_runner
        if runner is None and self.config.use_processes:
            from repro.serve.workers import WorkerPool

            self.pool = WorkerPool(
                self.config.workers or self.config.concurrency
            )
            self._runner = self._pool_runner
        self.metrics = BrokerMetrics()
        self._last_good: OrderedDict[str, object] = OrderedDict()
        self._semaphore = asyncio.Semaphore(self.config.concurrency)
        self._inflight: dict[str, asyncio.Future] = {}
        self._service_s: deque = deque(maxlen=_LATENCY_WINDOW)
        self._admitted = 0
        self._executing = 0
        self._started_at = time.monotonic()

    # -- public API -----------------------------------------------------

    async def submit(
        self, request: SimRequest | OptimizeRequest, *,
        identity: RunIdentity | None = None,
    ) -> SimResponse:
        """Answer one request (cache → dedup → pooled execution).

        ``identity`` is the request's
        :class:`~repro.core.sweep.RunIdentity` when the caller already
        holds it (the HTTP layer keeps one per distinct body); it is
        built here otherwise. Every step below reuses it.
        """
        if not isinstance(request, (SimRequest, OptimizeRequest)):
            raise TypeError(
                f"Broker.submit takes a SimRequest or OptimizeRequest, "
                f"got {type(request).__name__}"
            )
        self.metrics.requests += 1
        started = time.monotonic()
        if identity is None:
            identity = request.identity()

        if self.config.cache and request.cacheable:
            # A memo hit resolves inline: one dict lookup under the
            # identity's key. Only the on-disk store probe pays for an
            # executor hop.
            hit = self._probe_memo(identity)
            if hit is not None:
                self.metrics.memo_hits += 1
            else:
                hit = await asyncio.get_running_loop().run_in_executor(
                    None, self._probe_store, identity
                )
                if hit is not None:
                    self.metrics.store_hits += 1
            if hit is not None:
                self.metrics.hits += 1
                self._remember_good(identity, hit)
                duration = time.monotonic() - started
                self.metrics.observe(duration)
                return SimResponse(
                    status="ok", request=request, result=hit,
                    cached=True, duration_s=duration,
                )

        digest = identity.digest
        pending = self._inflight.get(digest)
        if pending is not None:
            self.metrics.deduped += 1
            response: SimResponse = await asyncio.shield(pending)
            duration = time.monotonic() - started
            self.metrics.observe(duration)
            return dataclasses.replace(
                response, request=request, deduped=True,
                duration_s=duration,
            )

        capacity = self.config.concurrency + self.config.queue_limit
        if self._admitted >= capacity:
            self.metrics.rejected += 1
            return SimResponse(
                status="rejected",
                request=request,
                error=(
                    f"queue full ({self.queue_depth} waiting, limit "
                    f"{self.config.queue_limit}); retry after "
                    f"{self.config.retry_after_s:g}s"
                ),
                retry_after_s=self.config.retry_after_s,
                duration_s=time.monotonic() - started,
            )
        if self.config.slo_target_s is not None:
            predicted = self.estimated_wait_s()
            if predicted > self.config.slo_target_s:
                self.metrics.rejected += 1
                retry_after = max(predicted, self.config.retry_after_s)
                return SimResponse(
                    status="rejected",
                    request=request,
                    error=(
                        f"predicted wait {predicted:.3g}s exceeds the "
                        f"{self.config.slo_target_s:g}s SLO "
                        f"({self.queue_depth} waiting x "
                        f"{self.mean_service_s:.3g}s mean service); "
                        f"retry after {retry_after:.3g}s"
                    ),
                    retry_after_s=retry_after,
                    duration_s=time.monotonic() - started,
                )

        self.metrics.misses += 1
        future: asyncio.Future = (
            asyncio.get_running_loop().create_future()
        )
        self._inflight[digest] = future
        self._admitted += 1
        try:
            response = await self._execute(request, identity)
        finally:
            self._admitted -= 1
            self._inflight.pop(digest, None)
            if not future.done():
                future.set_result(response)
        duration = time.monotonic() - started
        self.metrics.observe(duration)
        return dataclasses.replace(response, duration_s=duration)

    @property
    def queue_depth(self) -> int:
        """Misses admitted but still waiting for an execution slot."""
        return max(0, self._admitted - self._executing)

    @property
    def mean_service_s(self) -> float:
        """Mean execution time of recent misses (hint when no data)."""
        if not self._service_s:
            return self.config.service_time_hint_s
        return statistics.fmean(self._service_s)

    def estimated_wait_s(self) -> float:
        """Predicted wait for a new miss: queue depth × mean service."""
        return self.queue_depth * self.mean_service_s

    def close(self) -> None:
        """Release owned resources (the worker pool, if any)."""
        if self.pool is not None:
            self.pool.close()

    def status_dict(self) -> dict:
        """``GET /v1/status`` body (cheap, synchronous)."""
        data = {
            "status": "ok",
            "uptime_s": time.monotonic() - self._started_at,
            "concurrency": self.config.concurrency,
            "queue_limit": self.config.queue_limit,
            "queue_depth": self.queue_depth,
            "executing": self._executing,
            "in_flight": len(self._inflight),
            "cache": self.config.cache,
            "slo_target_s": self.config.slo_target_s,
            "estimated_wait_s": self.estimated_wait_s(),
            "degraded_mode": self.config.degraded,
        }
        if self.pool is not None:
            data["pool"] = self.pool.stats()
        return data

    def metrics_dict(self) -> dict:
        """``GET /v1/metrics`` body (counters + latency percentiles).

        The ``*_total`` aliases aggregate broker- and pool-level
        counters into the monitoring-facing names docs/chaos.md
        documents: ``errors_total``, ``retries_total`` (the pool's
        redispatches after a worker death or a lost answer),
        ``respawns_total``, ``degraded_total``.
        """
        data = self.metrics.to_dict()
        data["queue_depth"] = self.queue_depth
        data["executing"] = self._executing
        data["in_flight"] = len(self._inflight)
        data["uptime_s"] = time.monotonic() - self._started_at
        data["mean_service_s"] = self.mean_service_s
        data["estimated_wait_s"] = self.estimated_wait_s()
        pool_stats = self.pool.stats() if self.pool is not None else None
        if pool_stats is not None:
            data["pool"] = pool_stats
        data["errors_total"] = self.metrics.errors
        data["retries_total"] = pool_stats["retries"] if pool_stats else 0
        data["respawns_total"] = (
            pool_stats["respawns"] if pool_stats else 0
        )
        data["degraded_total"] = self.metrics.degraded
        return data

    # -- internals ------------------------------------------------------

    def _probe_memo(self, identity: RunIdentity):
        from repro.core.sweep import lookup_memo

        return lookup_memo(*identity.payload, key=identity.key)

    def _probe_store(self, identity: RunIdentity):
        from repro.core.sweep import lookup_cached

        return lookup_cached(*identity.payload, key=identity.key,
                             digest=identity.digest)

    def _timeout_for(self, request: SimRequest) -> float | None:
        if request.timeout_s is not None:
            return request.timeout_s
        return self.config.default_timeout_s

    def _pool_runner(self, request: SimRequest,
                     timeout_s: float | None) -> object:
        """Execute one miss on the worker pool.

        Cacheable payloads run through ``cached_run``, so the worker
        writes the shared on-disk store before returning — the next
        identical request is a store hit. Fleet requests are shipped as
        their dict form and rebuilt in the worker.
        """
        if request.cacheable:
            return self.pool.run(request.to_run_payload(), timeout_s,
                                 hedge_s=self.config.hedge_s)
        return self.pool.run(request.to_dict(), timeout_s,
                             hedge_s=self.config.hedge_s, fn=_submit_dict)

    def _remember_good(self, identity: RunIdentity,
                       result: object) -> None:
        """Feed the stale-cache degraded tier (bounded LRU)."""
        if not self.config.degraded:
            return
        digest = identity.digest
        self._last_good[digest] = result
        self._last_good.move_to_end(digest)
        while len(self._last_good) > _LAST_GOOD_LIMIT:
            self._last_good.popitem(last=False)

    def _degraded_answer(self, request: SimRequest,
                         identity: RunIdentity,
                         error: str) -> SimResponse | None:
        """Best approximate answer, or None when none exists."""
        stale = self._last_good.get(identity.digest)
        if stale is not None:
            return SimResponse(
                status="ok", request=request, result=stale,
                cached=True, degraded=True,
                degraded_source="stale-cache", error=error,
            )
        from repro.serve.degraded import analytic_estimate

        estimate = analytic_estimate(request)
        if estimate is not None:
            return SimResponse(
                status="ok", request=request, result=estimate,
                degraded=True, degraded_source="analytic", error=error,
            )
        return None

    async def _execute(self, request: SimRequest,
                       identity: RunIdentity) -> SimResponse:
        timeout_s = self._timeout_for(request)
        runner = self._runner
        if runner is _inline_runner:
            runner = functools.partial(_inline_runner, identity=identity)
        async with self._semaphore:
            self._executing += 1
            execution_started = time.monotonic()
            failure: SimResponse | None = None
            try:
                delay_s = chaos_hooks.fire(
                    "broker.execute", digest=identity.digest
                ).get("delay_s")
                if delay_s:
                    await asyncio.sleep(float(delay_s))
                call = asyncio.get_running_loop().run_in_executor(
                    None, runner, request, timeout_s
                )
                if timeout_s is not None:
                    # Backstop only: the pool enforces the real
                    # deadline by killing the worker.
                    call = asyncio.wait_for(
                        call, timeout_s + _DEADLINE_GRACE_S
                    )
                result = await call
            except (WorkerTimeoutError, asyncio.TimeoutError) as error:
                self.metrics.timeouts += 1
                message = (
                    str(error)
                    or f"request exceeded its {timeout_s:g}s deadline"
                )
                failure = SimResponse(
                    status="timeout", request=request, error=message
                )
            except PayloadError as error:
                # Deterministic: degrading would mask a real bug.
                self.metrics.errors += 1
                return SimResponse(
                    status="error",
                    request=request,
                    error=f"{type(error).__name__}: {error}",
                )
            except Exception as error:
                failure = SimResponse(
                    status="error",
                    request=request,
                    error=f"{type(error).__name__}: {error}",
                )
            finally:
                self._executing -= 1
            if failure is not None:
                if self.config.degraded:
                    answer = self._degraded_answer(
                        request, identity, failure.error or failure.status
                    )
                    if answer is not None:
                        self.metrics.degraded += 1
                        return answer
                if failure.status == "error":
                    self.metrics.errors += 1
                return failure
            self._service_s.append(
                time.monotonic() - execution_started
            )
            if self.config.cache and request.cacheable:
                from repro.core.sweep import seed_memo

                seed_memo(*identity.payload, result, key=identity.key)
            self._remember_good(identity, result)
            return SimResponse(status="ok", request=request,
                               result=result)
