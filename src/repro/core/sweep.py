"""Sweep harness: run a grid of configurations and tabulate results.

Benchmarks use this to regenerate the paper's multi-configuration figures
(2, 4, 9, 10, 13, 14, 23). Results are memoised twice over: per process
(so figures that share configurations do not re-simulate) and on disk via
:mod:`repro.core.store` (so benchmark reruns across processes reuse
earlier simulations). Sweep points can also fan out over worker
processes; see :func:`run_sweep`'s ``jobs`` argument.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Sequence

from repro.comm.message import TRANSFER_TIMES
from repro.core.experiment import execute_inference, execute_training
from repro.core.parallel import ExecutionReport
from repro.core.results import RunResult
from repro.core.store import persistence_enabled, result_store
from repro.engine.physics import STEP_PROPAGATORS
from repro.hardware.topology import PATHS
from repro.parallelism.strategy import OptimizationConfig

_CACHE: dict[tuple, RunResult] = {}

#: Salt of every key digest: the store schema version up to v5, frozen
#: there because key digests are also public request identities
#: (``SimRequest.digest``, ``OptimizeResult.request_digest``). A schema
#: bump orphans stale entries through the store's version directory.
_KEY_SALT = 5

#: Per-dataclass-type field-name memo for :func:`freeze`.
#: ``dataclasses.fields()`` walks the MRO and allocates on every call;
#: a sweep freezes the same handful of settings types thousands of
#: times, so caching the name tuple per type is a measurable win on
#: cache-key construction (pinned in benchmarks/test_perf_regression.py).
_FIELD_NAMES: dict[type, tuple[str, ...]] = {}


def _field_names(tp: type) -> tuple[str, ...]:
    names = _FIELD_NAMES.get(tp)
    if names is None:
        names = tuple(f.name for f in dataclasses.fields(tp))
        _FIELD_NAMES[tp] = names
    return names


#: Exact types :func:`freeze` returns as they are. Subclasses
#: (``IntEnum``, ``np.float64``, ...) are not listed, so they keep
#: taking the general branches below and freeze as before.
_SCALARS = frozenset({str, int, float, bool, bytes, type(None)})


def freeze(value):
    """Deterministic, hashable form of a run-configuration value.

    Recurses through dataclasses (``SimSettings``, ``OptimizationConfig``,
    catalog specs, ...), mappings, sequences, sets, and enums; scalars
    pass through. The result is stable across processes, which makes it
    usable both as an in-memory dict key and as input to the on-disk
    digest.
    """
    if type(value) in _SCALARS:
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (
            type(value).__name__,
            tuple(
                (name, freeze(getattr(value, name)))
                for name in _field_names(type(value))
            ),
        )
    if isinstance(value, enum.Enum):
        return (type(value).__name__, value.name)
    if isinstance(value, dict):
        return (
            "dict",
            tuple(
                (freeze(k), freeze(v)) for k, v in sorted(value.items())
            ),
        )
    if isinstance(value, (list, tuple)):
        return tuple(freeze(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return ("set", tuple(sorted(freeze(item) for item in value)))
    if isinstance(value, (str, int, float, bool, bytes)) or value is None:
        return value
    # Last resort for exotic values: fall back to repr, which keeps the
    # key usable (hashable) at the price of possible cache misses.
    return ("repr", repr(value))


def cache_key(kind: str, kwargs: dict) -> tuple:
    """The in-process memo key of one run payload (request digests in
    :mod:`repro.api` and the broker's fast path address the store with
    its :func:`key_digest`)."""
    return (kind, freeze(kwargs))


def key_digest(key: tuple) -> str:
    """Stable hex digest of a cache key (on-disk addressing within the
    store's schema-version directory)."""
    payload = repr((_KEY_SALT, key)).encode()
    return hashlib.sha256(payload).hexdigest()


class RunIdentity(NamedTuple):
    """A request's cache address, computed once and carried beside it.

    ``payload`` is the ``(kind, kwargs)`` run payload, ``key`` its memo
    key and ``digest`` the public request digest (for cacheable kinds,
    also the store address). Kinds the store does not cover carry no
    payload and no key. An identity is a snapshot taken when it is
    built: it never reads the request again.
    """

    payload: tuple[str, dict] | None
    key: tuple | None
    digest: str


def identify(kind: str, kwargs: dict) -> RunIdentity:
    """The :class:`RunIdentity` of one run payload: one key, one
    digest."""
    key = cache_key(kind, kwargs)
    return RunIdentity((kind, kwargs), key, key_digest(key))


def _fetch(kind: str, kwargs: dict, key: tuple | None = None,
           digest: str | None = None,
           runner: Callable[..., RunResult] | None = None
           ) -> RunResult | None:
    """The memo-then-store step every cached path takes.

    Returns the memo's result, else the store's (promoted into the
    memo), else, given a ``runner``, a fresh run written to both;
    ``None`` when nothing answered and there is no runner. ``key`` and
    ``digest`` are the payload's when the caller holds them; a missing
    digest is derived only when the store is read.
    """
    if key is None:
        key = cache_key(kind, kwargs)
    result = _CACHE.get(key)
    if result is not None:
        return result
    store = result_store() if persistence_enabled() else None
    if store is not None:
        if digest is None:
            digest = key_digest(key)
        result = store.get(digest)
    if result is None:
        if runner is None:
            return None
        result = runner(**kwargs)
        if store is not None:
            store.put(digest, result)
    _CACHE[key] = result
    return result


def _runner_for(kind: str) -> Callable[..., RunResult]:
    if kind == "train":
        return execute_training
    if kind == "infer":
        return execute_inference
    if kind == "serve":
        # Deferred: the serving engine imports the models/hardware
        # layers, which in turn import this module.
        from repro.inferserve.engine import execute_serving

        return execute_serving
    if kind == "optimize":
        # Deferred for the same reason: the optimizer sits on top of
        # the whole run stack. Payload: the OptimizeRequest dict form,
        # so the stored OptimizeResult is addressed by every search knob.
        from repro.optimize.search import run_optimize_payload

        return run_optimize_payload
    from repro.suggest import unknown_name_message

    raise ValueError(
        unknown_name_message(
            "run kind", kind, ("train", "infer", "serve", "optimize")
        )
    )


def cached_run(kind: str, **kwargs) -> RunResult:
    """Memoised execution of one ``"train"`` / ``"infer"`` /
    ``"serve"`` / ``"optimize"`` payload.

    The canonical cached entry point: results are served from (in
    order) the in-process memo, the persistent ``.repro_cache`` store,
    and a fresh simulation. Pass models, clusters, and strategies by
    catalog name for the most compact keys (full config objects also
    work). Worker processes, :func:`repro.api.submit`, and the
    ``repro.serve`` broker all execute through here, so every consumer
    shares one cache address space.
    """
    return _fetch(kind, kwargs, runner=_runner_for(kind))


def cached_run_identified(identity: RunIdentity) -> RunResult:
    """:func:`cached_run` of a payload whose key and digest are already
    known (the broker's in-process misses)."""
    kind, kwargs = identity.payload
    return _fetch(kind, kwargs, identity.key, identity.digest,
                  _runner_for(kind))


def lookup_memo(kind: str, kwargs: dict,
                key: tuple | None = None) -> RunResult | None:
    """Memo-only probe: a dict lookup, no disk I/O, never simulates.

    Cheap enough to call from latency-sensitive code (the broker runs
    it inline on the event loop before paying for an executor hop to
    the on-disk store). ``key`` skips building the payload's key when
    the caller already holds it.
    """
    return _CACHE.get(cache_key(kind, kwargs) if key is None else key)


def lookup_cached(kind: str, kwargs: dict, key: tuple | None = None,
                  digest: str | None = None) -> RunResult | None:
    """Cache-only probe: in-process memo, then the on-disk store.

    Never simulates. The broker's cache-hit fast path uses this to
    answer requests synchronously; a store hit is promoted into the
    memo so repeat lookups stay in memory. ``key`` and ``digest`` are
    the payload's, when the caller already holds them.
    """
    return _fetch(kind, kwargs, key, digest)


def seed_memo(kind: str, kwargs: dict, result: RunResult,
              key: tuple | None = None) -> None:
    """Install a result in the in-process memo (worker fan-out output).

    Pool workers simulate in their own process; the parent seeds its
    memo with what they returned so later same-process consumers skip
    even the store read.
    """
    _CACHE.setdefault(cache_key(kind, kwargs) if key is None else key,
                      result)


def _probe(identity: RunIdentity, cache: bool) -> RunResult | None:
    """One batch probe: the memo, then (with ``cache``) the store; a
    store hit is promoted into the memo. Also bound as
    ``repro.engine.batched._probe``, the name the benchmark tracer
    counts batch probes under."""
    if not cache:
        return _CACHE.get(identity.key)
    return _fetch(*identity.payload, identity.key, identity.digest)


def cached_batch(
    payloads: Sequence[tuple[str, dict]],
    execute: Callable[..., Iterable[tuple[int, RunResult]]],
    report: ExecutionReport | None = None,
    cache: bool = True,
    stored: bool = False,
) -> list:
    """The one cache path of a batch of run payloads.

    Each distinct payload is keyed once (one :class:`RunIdentity`) and
    probed once: the memo, then, with ``cache``, the persistent store.
    ``execute(misses, part)`` computes the rest, in first-seen order,
    yielding ``(index into misses, result)`` as results come; ``part``
    is an :class:`~repro.core.parallel.ExecutionReport` it fills in
    with miss indices. Each answer is written to the memo once, and
    each computed one to the store once (with ``cache``), unless
    ``stored`` says ``execute`` wrote it already (pool workers run
    :func:`cached_run`).

    Returns results in input order; duplicates share one object.
    ``report`` receives input positions: ``cached`` lists those the
    cache answered, ``retried`` and ``fell_back`` those whose payload
    ``part`` lists.
    """
    keys = [cache_key(kind, kwargs) for kind, kwargs in payloads]
    identities: dict[tuple, RunIdentity] = {}
    for key, (kind, kwargs) in zip(keys, payloads):
        if key not in identities:
            identities[key] = RunIdentity((kind, kwargs), key,
                                          key_digest(key))
    answers: dict[tuple, RunResult] = {}
    misses: list[RunIdentity] = []
    for key, identity in identities.items():
        hit = _probe(identity, cache)
        if hit is None:
            misses.append(identity)
        else:
            answers[key] = hit
    if report is not None:
        report.cached.extend(i for i, key in enumerate(keys)
                             if key in answers)
    if misses:
        store = (result_store() if cache and not stored
                 and persistence_enabled() else None)
        part = ExecutionReport()
        for index, result in execute(misses, part):
            identity = misses[index]
            if store is not None:
                store.put(identity.digest, result)
            seed_memo(*identity.payload, result, key=identity.key)
            answers[identity.key] = result
        if report is not None:
            for name in ("retried", "fell_back"):
                hit = {misses[i].key for i in getattr(part, name)}
                getattr(report, name).extend(
                    i for i, key in enumerate(keys) if key in hit
                )
    return [answers[key] for key in keys]


def clear_cache() -> None:
    """Drop all memoised results, in-memory and persistent.

    Tests rely on this for isolation, so it clears both layers: the
    per-process memo and the on-disk store the process would read from.
    It also empties the per-cluster tables (paths, transfer times,
    thermal propagators), so the next run starts cold.
    """
    _CACHE.clear()
    PATHS.clear()
    TRANSFER_TIMES.clear()
    STEP_PROPAGATORS.clear()
    result_store().clear()


@dataclass(frozen=True)
class SweepPoint:
    """One grid point of a sweep."""

    model: str
    cluster: str
    parallelism: str
    optimizations: OptimizationConfig = field(
        default_factory=OptimizationConfig
    )
    microbatch_size: int = 1

    @property
    def label(self) -> str:
        return (
            f"{self.model}|{self.cluster}|{self.parallelism}"
            f"|mb{self.microbatch_size}|{self.optimizations.label}"
        )


def _point_kwargs(
    point: SweepPoint, global_batch_size: int, iterations: int, settings
) -> dict:
    kwargs = dict(
        model=point.model,
        cluster=point.cluster,
        parallelism=point.parallelism,
        optimizations=point.optimizations,
        microbatch_size=point.microbatch_size,
        global_batch_size=global_batch_size,
        iterations=iterations,
    )
    if settings is not None:
        kwargs["settings"] = settings
    return kwargs


def run_sweep(
    points: Iterable[SweepPoint],
    global_batch_size: int = 128,
    iterations: int = 2,
    on_result: Callable[[SweepPoint, RunResult], None] | None = None,
    jobs: int = 1,
    settings=None,
) -> dict[SweepPoint, RunResult]:
    """Run every distinct sweep point (memoised) and return results.

    Duplicate points — common when figure grids overlap — are skipped
    before simulating, so each configuration runs (and reports via
    ``on_result``) exactly once.

    Args:
        points: grid to simulate.
        global_batch_size / iterations: shared run shape.
        on_result: progress callback, invoked in point order.
        jobs: worker processes; 1 keeps the exact serial path, values
            below 1 (or None) pick :func:`repro.core.parallel.default_jobs`.
            Results are independent of ``jobs``.
        settings: optional :class:`~repro.engine.simulator.SimSettings`
            forwarded to every run.
    """
    from repro.core.parallel import ExecutionReport, map_runs, resolve_jobs

    ordered = list(dict.fromkeys(points))
    jobs = 1 if jobs == 1 else resolve_jobs(jobs)
    payloads = [
        (
            "train",
            _point_kwargs(point, global_batch_size, iterations, settings),
        )
        for point in ordered
    ]
    report = ExecutionReport()
    outputs = map_runs(payloads, jobs, report)
    if report.crashed:
        print(
            f"warning: sweep survived worker crashes "
            f"({report.describe()})",
            file=sys.stderr,
        )

    results: dict[SweepPoint, RunResult] = {}
    for point, result in zip(ordered, outputs):
        results[point] = result
        if on_result is not None:
            on_result(point, result)
    return results


def normalize_by_best(
    values: dict[SweepPoint, float]
) -> dict[SweepPoint, float]:
    """Normalise a metric per model, best configuration = 1.0.

    Matches the paper's per-model efficiency normalisation in Figures 4,
    9, 10, 13, 14.
    """
    best_per_model: dict[str, float] = {}
    for point, value in values.items():
        best = best_per_model.get(point.model, 0.0)
        best_per_model[point.model] = max(best, value)
    return {
        point: (
            value / best_per_model[point.model]
            if best_per_model[point.model] > 0
            else 0.0
        )
        for point, value in values.items()
    }
