"""Process-parallel execution of simulation runs.

:func:`map_runs` and :func:`map_calls` return results in input order
regardless of which worker finishes first, so parallel sweeps are
deterministic: ``jobs`` changes wall-clock time, never results.
``jobs=1`` (the default everywhere) never starts a process and keeps
the exact serial code path.

With ``jobs > 1`` a batch runs on a per-call
:class:`repro.serve.workers.WorkerPool` — the one mechanism that runs
work in other processes, shared with :func:`repro.api.submit_many` and
the ``repro.serve`` broker, so every fan-out has the same crash policy.
A worker process that dies (SIGKILL, OOM reaper, native crash) breaks
only its own payload, not the sweep: the payload is retried on another
worker, and anything that still cannot complete — a "poisoned" payload
that kills whatever worker picks it up — falls back to in-process
execution. A host that cannot start processes at all runs the whole
batch in-process. What happened is reported through the optional
:class:`ExecutionReport` argument. An exception raised *by* a payload
is not retried (it is deterministic): it surfaces as
:class:`PayloadError` carrying the original ``Type: message`` text.

Workers run :func:`repro.core.sweep.cached_run`, so they share the
persistent on-disk store with the parent: a worker's simulation is
written once (atomically) and every later process reads it back.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterable, Sequence

#: Payload shape: ("train" | "infer", kwargs-dict for the cached runner).
RunPayload = tuple[str, dict]


@dataclass
class ExecutionReport:
    """How a fan-out actually executed (crash recovery bookkeeping).

    Attributes:
        retried: input indices whose worker died at least once.
        fell_back: input indices that then ran in-process (their retry
            budget ran out, or no worker process could be started).
    """

    retried: list[int] = field(default_factory=list)
    fell_back: list[int] = field(default_factory=list)

    @property
    def crashed(self) -> bool:
        """Whether any worker process died during the fan-out."""
        return bool(self.retried or self.fell_back)

    def describe(self) -> str:
        """One-line summary for logs/CLI warnings."""
        return (
            f"{len(self.retried)} payload(s) retried after a worker "
            f"crash, {len(self.fell_back)} completed in-process"
        )


def default_jobs() -> int:
    """Default worker count: leave one core for the parent process."""
    return max(1, (os.cpu_count() or 2) - 1)


def resolve_jobs(jobs: int | None) -> int:
    """Map a user-facing ``--jobs`` value to a worker count.

    ``None`` or values below 1 mean "auto" (:func:`default_jobs`).
    """
    if jobs is None or jobs < 1:
        return default_jobs()
    return jobs


def _run_payload(payload: RunPayload):
    """Top-level worker entry point (must be picklable)."""
    from repro.core.sweep import cached_run

    kind, kwargs = payload
    return cached_run(kind, **kwargs)


def _pool_map(fn, items: list, jobs: int,
              report: ExecutionReport | None) -> list:
    """``[fn(item) for item in items]`` on a per-call worker pool.

    A host that cannot start processes runs the batch in-process.
    """
    from repro.serve.workers import WorkerPool

    try:
        pool = WorkerPool(min(jobs, len(items)))
    except (OSError, NotImplementedError):
        if report is not None:
            report.fell_back.extend(range(len(items)))
        return [fn(item) for item in items]
    with pool:
        return pool.map(items, report, fn=fn)


def map_runs(
    payloads: Sequence[RunPayload],
    jobs: int,
    report: ExecutionReport | None = None,
) -> list:
    """Run every payload and return results in input order.

    With ``jobs <= 1`` (or a single payload) payloads stay in-process
    and route through :func:`repro.engine.batched.evaluate_grid`, which
    groups configs sharing a task graph into one graph build plus
    vectorized replays or simulations on it (cache semantics identical to
    :func:`repro.core.sweep.cached_run`; non-batchable payloads take the
    exact serial path). Otherwise payloads fan out over worker processes
    with the crash recovery described in the module docstring;
    ``report`` (when given) is filled in with any retried / fallen-back
    indices.
    """
    payloads = list(payloads)
    if jobs <= 1 or len(payloads) <= 1:
        from repro.engine.batched import evaluate_grid

        return evaluate_grid(payloads)
    return _pool_map(_run_payload, payloads, jobs, report)


class WorkerCrashError(RuntimeError):
    """A worker process died before reporting a result."""


class WorkerTimeoutError(RuntimeError):
    """A worker process hit its deadline and was killed."""


class PayloadError(RuntimeError):
    """The payload itself raised in a worker; message is the original
    ``Type: message`` text (deterministic, not retried)."""


def run_request_payload(payload: RunPayload):
    """Top-level worker entry for one run payload (picklable).

    The worker executes through :func:`repro.core.sweep.cached_run`, so
    its result lands in the shared on-disk store before the bytes come
    back over the pipe — the parent's next identical request is a
    store hit.
    """
    return _run_payload(payload)


def map_calls(
    fn,
    items: Iterable,
    jobs: int,
    report: ExecutionReport | None = None,
) -> list:
    """Generic deterministic fan-out: ``[fn(item) for item in items]``.

    ``fn`` must be a picklable top-level callable. Used for pre-profiling
    job shapes and other non-RunResult work; the same serial-fallback and
    crash-recovery rules as :func:`map_runs` apply.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    return _pool_map(fn, items, jobs, report)
