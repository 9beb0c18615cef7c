"""Process-parallel execution of simulation runs.

:func:`map_runs` fans a list of run payloads over a
``ProcessPoolExecutor`` and returns results in input order regardless of
which worker finishes first, so parallel sweeps are deterministic:
``jobs`` changes wall-clock time, never results. ``jobs=1`` (the default
everywhere) bypasses the pool entirely and preserves the exact serial
code path.

The fan-out is crash-proof: a worker process that dies (SIGKILL, OOM
reaper, native crash) breaks only its own payloads, not the sweep. Every
payload stranded by a broken pool is retried once in a fresh pool, and
anything that still cannot complete there — a "poisoned" payload that
kills whatever worker picks it up — falls back to in-process execution.
What happened is reported through the optional :class:`ExecutionReport`
argument. Ordinary exceptions raised *by* a payload are not retried;
they propagate, as they are deterministic.

Workers run :func:`repro.core.sweep.cached_run`, so they share the
persistent on-disk store with the parent: a worker's simulation is
written once (atomically) and every later process reads it back.

:func:`run_supervised` is the single-payload sibling the
``repro.serve`` broker uses: one dedicated child process per payload,
with a hard deadline (the child is killed, not abandoned) and crash
detection, so a SIGKILLed or hung simulation becomes a structured
error instead of taking the broker down.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Sequence

#: Payload shape: ("train" | "infer", kwargs-dict for the cached runner).
RunPayload = tuple[str, dict]

#: One initial attempt plus one retry in a fresh pool.
_POOL_ATTEMPTS = 2


@dataclass
class ExecutionReport:
    """How a fan-out actually executed (crash recovery bookkeeping).

    Attributes:
        retried: input indices whose worker died and were re-submitted
            to a fresh pool.
        fell_back: input indices that also failed the retry (or could
            never be pooled) and ran in-process instead.
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


def _fan_out(fn, items: list, jobs: int,
             report: ExecutionReport | None) -> list:
    """Pool fan-out with crash recovery; results in input order.

    Indices stranded by a dead worker are retried once in a fresh pool,
    then executed in-process. Platforms that cannot spawn processes at
    all skip straight to the serial path.
    """
    workers = min(jobs, len(items))
    results: list = [None] * len(items)
    pending = list(range(len(items)))
    for attempt in range(_POOL_ATTEMPTS):
        try:
            pool = ProcessPoolExecutor(
                max_workers=min(workers, len(pending))
            )
        except (OSError, PermissionError, NotImplementedError):
            break
        broken: list[int] = []
        with pool:
            futures = []
            try:
                for index in pending:
                    futures.append((index, pool.submit(fn, items[index])))
            except (BrokenExecutor, RuntimeError, OSError):
                submitted = {index for index, _ in futures}
                broken.extend(i for i in pending if i not in submitted)
            for index, future in futures:
                try:
                    results[index] = future.result()
                except (BrokenExecutor, OSError):
                    broken.append(index)
        if broken and attempt == 0 and report is not None:
            report.retried = sorted(broken)
        pending = sorted(broken)
        if not pending:
            return results
    if report is not None:
        report.fell_back = list(pending)
    for index in pending:
        results[index] = fn(items[index])
    return results


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
    return _fan_out(_run_payload, payloads, jobs, report)


class WorkerCrashError(RuntimeError):
    """A supervised worker process died before reporting a result."""


class WorkerTimeoutError(RuntimeError):
    """A supervised worker process hit its deadline and was killed."""


class PayloadError(RuntimeError):
    """The supervised payload itself raised; message is the original
    ``Type: message`` text (deterministic, not retried)."""


def _supervised_entry(fn, arg, connection) -> None:
    """Child-side of :func:`run_supervised` (must be picklable)."""
    try:
        connection.send(("ok", fn(arg)))
    except BaseException as error:  # report, never hang the parent
        try:
            connection.send(("error", f"{type(error).__name__}: {error}"))
        except (BrokenPipeError, OSError, TypeError, ValueError):
            pass
    finally:
        connection.close()


def run_supervised(fn, arg, timeout_s: float | None = None):
    """Run ``fn(arg)`` in a dedicated, killable child process.

    Unlike the pool fan-out above — which retries stranded payloads —
    this is the request-scoped primitive: one payload, one child, one
    deadline. The result (which must be picklable) is shipped back over
    a pipe. Three failure shapes become three exception types:

    - the child misses the deadline → it is killed and
      :class:`WorkerTimeoutError` is raised (no orphaned simulation);
    - the child dies without reporting (SIGKILL, OOM, native crash) →
      :class:`WorkerCrashError`;
    - ``fn`` raises → :class:`PayloadError` carrying the original
      ``Type: message`` text.
    """
    context = multiprocessing.get_context()
    receiver, sender = context.Pipe(duplex=False)
    process = context.Process(
        target=_supervised_entry, args=(fn, arg, sender), daemon=True
    )
    process.start()
    sender.close()
    from repro.chaos import hooks as chaos_hooks

    if chaos_hooks.fire("parallel.supervised", pid=process.pid).get("kill"):
        process.kill()
    message = None
    timed_out = False
    try:
        if timeout_s is None or receiver.poll(timeout_s):
            try:
                message = receiver.recv()
            except (EOFError, OSError):
                message = None
        else:
            timed_out = True
    finally:
        if process.is_alive():
            process.kill()
        process.join()
        receiver.close()
    if timed_out:
        raise WorkerTimeoutError(
            f"worker exceeded its {timeout_s:g}s deadline and was killed"
        )
    if message is None:
        raise WorkerCrashError(
            "worker process died without reporting a result "
            f"(exit code {process.exitcode})"
        )
    status, value = message
    if status == "ok":
        return value
    raise PayloadError(value)


def run_request_payload(payload: RunPayload):
    """Top-level supervised entry for one run payload (picklable).

    The child executes through :func:`repro.core.sweep.cached_run`, so
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
    return _fan_out(fn, items, jobs, report)
