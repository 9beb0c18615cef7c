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
from typing import Callable, Iterable

from repro.core.experiment import execute_inference, execute_training
from repro.core.results import RunResult
from repro.core.store import persistence_enabled, result_store
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


def freeze(value):
    """Deterministic, hashable form of a run-configuration value.

    Recurses through dataclasses (``SimSettings``, ``OptimizationConfig``,
    catalog specs, ...), mappings, sequences, sets, and enums; scalars
    pass through. The result is stable across processes, which makes it
    usable both as an in-memory dict key and as input to the on-disk
    digest.
    """
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


def _cache_key(kind: str, kwargs: dict) -> tuple:
    return (kind, freeze(kwargs))


#: Public spelling of the cache-key constructor (request digests in
#: :mod:`repro.api` and the broker's fast path address the store with it).
cache_key = _cache_key


def key_digest(key: tuple) -> str:
    """Stable hex digest of a cache key (on-disk addressing within the
    store's schema-version directory)."""
    payload = repr((_KEY_SALT, key)).encode()
    return hashlib.sha256(payload).hexdigest()


def _cached_run(kind: str, runner: Callable[..., RunResult],
                kwargs: dict) -> RunResult:
    key = _cache_key(kind, kwargs)
    result = _CACHE.get(key)
    if result is not None:
        return result
    store = result_store() if persistence_enabled() else None
    digest = key_digest(key) if store is not None else ""
    if store is not None:
        result = store.get(digest)
    if result is None:
        result = runner(**kwargs)
        if store is not None:
            store.put(digest, result)
    _CACHE[key] = result
    return result


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
    if kind == "train":
        return _cached_run(kind, execute_training, kwargs)
    if kind == "infer":
        return _cached_run(kind, execute_inference, kwargs)
    if kind == "serve":
        # Deferred: the serving engine imports the models/hardware
        # layers, which in turn import this module.
        from repro.inferserve.engine import execute_serving

        return _cached_run(kind, execute_serving, kwargs)
    if kind == "optimize":
        # Deferred for the same reason: the optimizer sits on top of
        # the whole run stack. Payload: the OptimizeRequest dict form,
        # so the stored OptimizeResult is addressed by every search knob.
        from repro.optimize.search import run_optimize_payload

        return _cached_run(kind, run_optimize_payload, kwargs)
    from repro.suggest import unknown_name_message

    raise ValueError(
        unknown_name_message(
            "run kind", kind, ("train", "infer", "serve", "optimize")
        )
    )


def lookup_memo(kind: str, kwargs: dict) -> RunResult | None:
    """Memo-only probe: a dict lookup, no disk I/O, never simulates.

    Cheap enough to call from latency-sensitive code (the broker runs
    it inline on the event loop before paying for an executor hop to
    the on-disk store).
    """
    return _CACHE.get(_cache_key(kind, kwargs))


def lookup_cached(kind: str, kwargs: dict) -> RunResult | None:
    """Cache-only probe: in-process memo, then the on-disk store.

    Never simulates. The broker's cache-hit fast path uses this to
    answer requests synchronously; a store hit is promoted into the
    memo so repeat lookups stay in memory.
    """
    key = _cache_key(kind, kwargs)
    result = _CACHE.get(key)
    if result is not None:
        return result
    if not persistence_enabled():
        return None
    result = result_store().get(key_digest(key))
    if result is not None:
        _CACHE[key] = result
    return result


def seed_memo(kind: str, kwargs: dict, result: RunResult) -> None:
    """Install a result in the in-process memo (worker fan-out output).

    Pool workers simulate in their own process; the parent seeds its
    memo with what they returned so later same-process consumers skip
    even the store read.
    """
    _CACHE.setdefault(_cache_key(kind, kwargs), result)


def clear_cache() -> None:
    """Drop all memoised results, in-memory and persistent.

    Tests rely on this for isolation, so it clears both layers: the
    per-process memo and the on-disk store the process would read from.
    """
    _CACHE.clear()
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

    ordered: list[SweepPoint] = []
    seen: set[SweepPoint] = set()
    for point in points:
        if point not in seen:
            seen.add(point)
            ordered.append(point)

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
    for point, payload, result in zip(ordered, payloads, outputs):
        # Seed the in-process memo so later figures reuse worker output.
        seed_memo("train", payload[1], result)
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
