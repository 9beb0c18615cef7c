"""Persistent worker pool: the one way work runs in another process.

:class:`WorkerPool` keeps N worker processes alive across tasks and is
the only process-execution mechanism in the package: the ``repro.serve``
broker holds one for its misses, and :func:`repro.core.parallel.map_runs`
/ :func:`~repro.core.parallel.map_calls` (so sweeps, campaigns, the
optimizer and :func:`repro.api.submit_many`) build one per ``jobs > 1``
batch. Workers are spawned once and reused, so a 50-request batch pays
interpreter+import start-up N times, not 50.

Scheduling is parent-side work stealing: every worker owns a deque,
:meth:`WorkerPool.submit` appends to the least-loaded one, and a worker
that drains its own deque steals from the *back* of the longest other
deque — long sweep shards migrate to idle workers instead of serialising
behind a slow one. All deque state lives in the dispatcher thread's
lock, so there is no shared memory to corrupt.

Self-healing (see docs/chaos.md for the full policy map):

- **Crash retries with backoff.** A SIGKILLed / OOMed worker wakes the
  dispatcher immediately (its process sentinel is in the ``wait()``
  set); its in-flight task is re-queued on another worker after a
  full-jitter backoff delay, and the worker is respawned in place. A
  lost answer is re-queued the same way. This is the package's only
  crash-retry budget: a task that has been dispatched
  :data:`_TASK_ATTEMPTS` times resolves to
  :class:`repro.core.parallel.WorkerCrashError` (the broker then answers
  degraded or with a structured error; :meth:`WorkerPool.map` falls
  back in-process, so batches never drop requests).
- **Deadlines.** :meth:`WorkerPool.run` kills the worker hosting an
  overdue task and raises :class:`~repro.core.parallel.
  WorkerTimeoutError`; a task whose deadline expires while still
  *queued* is failed immediately without wasting a worker.
- **Hedging.** ``run(..., hedge_s=...)`` races a duplicate dispatch
  against a straggling first attempt; the first answer wins and the
  loser is discarded (de-queued if still waiting, ignored if running).

Fault injection enters through :mod:`repro.chaos.hooks` call sites
(``pool.dispatch``, ``pool.result``) — one dict lookup when no chaos
handler is installed, byte-identical behaviour to a hook-free pool.

:meth:`~WorkerPool.run` and :meth:`~WorkerPool.map` execute
:func:`repro.core.parallel.run_request_payload` by default, i.e.
through ``cached_run`` — workers share the parent's content-addressed
``.repro_cache`` store (same ``REPRO_CACHE_DIR``), so anything a worker
simulates is a store hit for every later process. Both take any other
picklable top-level callable as ``fn``.

Remote workers: :meth:`WorkerPool.listen` opens an authenticated TCP
socket and :func:`serve_worker` (``python -m repro worker``) connects a
worker loop from another host. Remote workers speak the same protocol
and join the same stealing pool; they are not respawned on death (their
queued work redistributes locally), but ``serve_worker(reconnect=True)``
re-dials a lost broker with capped, jittered backoff instead of dying.
"""

from __future__ import annotations

import atexit
import multiprocessing
import pickle
import random
import socket
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures import wait as wait_futures
from multiprocessing.connection import Client, Listener, wait

from repro.chaos import hooks as chaos_hooks
from repro.chaos.policies import RetryPolicy
from repro.core.parallel import (
    ExecutionReport,
    PayloadError,
    WorkerCrashError,
    WorkerTimeoutError,
    default_jobs,
    run_request_payload,
)

#: Dispatches per task across worker deaths and lost answers before it
#: resolves to :class:`WorkerCrashError` (1 initial + 5 retries; the
#: caller then falls back in-process or reports the crash). The one
#: crash-retry budget of the broker and of every ``map_runs`` pool. At
#: 4, one task of the ``lost-answers`` chaos scenario sometimes loses 4
#: answers in a row; docs/chaos.md has the ablation that sets 6.
#: Tests pass a faster policy through ``WorkerPool(retry=...)``.
_TASK_ATTEMPTS = 6

#: Default full-jitter backoff for task redispatch after a failure.
_DEFAULT_RETRY = RetryPolicy(attempts=_TASK_ATTEMPTS, base_s=0.02,
                             cap_s=0.5)

#: Default reconnect backoff for :func:`serve_worker`.
_RECONNECT_RETRY = RetryPolicy(attempts=2, base_s=0.5, cap_s=30.0)

#: Dispatcher wake-up period for liveness checks when nothing fires.
_HEALTH_INTERVAL_S = 0.5

#: Recent task durations feeding :attr:`WorkerPool.mean_service_s`.
_SERVICE_WINDOW = 64


def _worker_loop(conn) -> str:
    """Worker side: receive ``(task_id, fn, arg)``, answer
    ``(task_id, status, value)``.

    Returns ``"shutdown"`` when the pool sent the explicit ``None``
    goodbye, ``"lost"`` when the connection died (EOF / reset) — the
    distinction drives :func:`serve_worker`'s reconnect decision.
    """
    reason = "lost"
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            reason = "shutdown"
            break
        task_id, fn, arg = message
        try:
            outcome = ("ok", fn(arg))
        except BaseException as error:  # report, never kill the loop
            outcome = ("error", f"{type(error).__name__}: {error}")
        try:
            conn.send((task_id, *outcome))
        except (BrokenPipeError, OSError, TypeError, ValueError):
            break
    try:
        conn.close()
    except OSError:
        pass
    return reason


def _delayed_call(arg):
    """Chaos straggler wrapper: sleep, then run the real payload
    (top-level so it pickles across the worker pipe)."""
    delay_s, fn, inner = arg
    time.sleep(delay_s)
    return fn(inner)


def serve_worker(
    address: tuple[str, int],
    authkey: bytes,
    *,
    reconnect: bool = False,
    retry: RetryPolicy | None = None,
    max_retries: int | None = None,
    on_event=None,
    _connect=Client,
    _sleep=time.sleep,
) -> None:
    """Run one remote worker: connect to a pool's listener and serve.

    The other side is :meth:`WorkerPool.listen`; ``python -m repro
    worker`` wraps this. Blocks until the pool says goodbye (an
    explicit shutdown message).

    With ``reconnect=True`` a *lost* connection — broker crash or
    restart, network partition — is re-dialled with capped full-jitter
    backoff (``retry`` supplies base/cap; attempts are unlimited unless
    ``max_retries`` bounds consecutive failed dials) instead of killing
    the worker. A clean pool shutdown still ends the loop. ``on_event``
    (if given) receives one structured dict per connection-state change
    — the CLI logs them as warnings. Authentication failures are never
    retried: a wrong key stays wrong.
    """
    policy = retry or _RECONNECT_RETRY
    notify = on_event or (lambda event: None)
    label = f"{address[0]}:{address[1]}"
    rng = random.Random(0x7EC0)
    failures = 0
    while True:
        try:
            conn = _connect(address, authkey=authkey)
        except multiprocessing.AuthenticationError:
            raise
        except (ConnectionError, EOFError, OSError) as error:
            if not reconnect or (
                max_retries is not None and failures >= max_retries
            ):
                raise
            delay = policy.delay_s(failures, rng)
            failures += 1
            notify({
                "event": "reconnect_wait",
                "address": label,
                "attempt": failures,
                "sleep_s": round(delay, 3),
                "error": f"{type(error).__name__}: {error}",
            })
            _sleep(delay)
            continue
        failures = 0
        notify({"event": "connected", "address": label})
        reason = _worker_loop(conn)
        if reason == "shutdown" or not reconnect:
            notify({"event": "shutdown", "address": label})
            return
        notify({"event": "disconnected", "address": label})


class _Task:
    """One queued unit of work and its parent-side future."""

    __slots__ = ("id", "fn", "arg", "future", "attempts", "abandoned",
                 "started_at", "not_before", "deadline_at")

    def __init__(self, task_id: int, fn, arg,
                 deadline_at: float | None = None) -> None:
        self.id = task_id
        self.fn = fn
        self.arg = arg
        self.future: Future = Future()
        self.attempts = 0
        self.abandoned: str | None = None  # kill reason, if killed
        self.started_at = 0.0
        self.not_before = 0.0  # backoff gate for retried tasks
        self.deadline_at = deadline_at


class _Worker:
    """Parent-side handle: process (local only), pipe, deque, in-flight."""

    __slots__ = ("wid", "process", "conn", "queue", "inflight", "remote")

    def __init__(self, wid: int, process, conn, remote: bool) -> None:
        self.wid = wid
        self.process = process
        self.conn = conn
        self.queue: deque[_Task] = deque()
        self.inflight: _Task | None = None
        self.remote = remote

    def hang_up(self) -> None:
        """Close the pool's end of the connection. A remote worker's
        socket is shut down first: local workers forked after it
        connected hold copies of its descriptor, so closing this one
        alone would never reach the peer."""
        if self.remote:
            try:
                with socket.fromfd(self.conn.fileno(), socket.AF_INET,
                                   socket.SOCK_STREAM) as sock:
                    sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already closed, or the peer is gone
        try:
            self.conn.close()
        except OSError:
            pass


class WorkerPool:
    """N persistent workers behind per-worker work-stealing deques.

    Args:
        workers: local worker processes to spawn (default
            :func:`~repro.core.parallel.default_jobs`; 0 is allowed when
            the pool is fed purely by remote workers via
            :meth:`listen`). Raises ``OSError`` when a process cannot
            be started.
        respawn: replace local workers that die; in-flight work is
            retried either way.
        retry: per-task redispatch budget + backoff after a worker
            death or a lost answer (default: :data:`_TASK_ATTEMPTS`
            attempts, full-jitter 20ms..0.5s).
    """

    def __init__(self, workers: int | None = None,
                 respawn: bool = True, *,
                 retry: RetryPolicy | None = None) -> None:
        if workers is None:
            workers = default_jobs()
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self._ctx = multiprocessing.get_context()
        self._respawn = respawn
        self._retry = retry or _DEFAULT_RETRY
        self._rng = random.Random(0xC4A05)
        self._lock = threading.Lock()
        self._workers: dict[int, _Worker] = {}
        self._next_wid = 0
        self._next_task = 0
        self._dispatches = 0
        self._closed = False
        self._listener: Listener | None = None
        self._service_s: deque[float] = deque(maxlen=_SERVICE_WINDOW)
        self.steals = 0
        self.respawns = 0
        self.completed = 0
        self.retries = 0
        self.hedges = 0
        self.hedge_wins = 0
        self.expired = 0
        self._wake_r, self._wake_w = self._ctx.Pipe(duplex=False)
        with self._lock:
            try:
                for _ in range(workers):
                    self._spawn_locked()
            except BaseException:
                for worker in self._workers.values():
                    worker.process.kill()  # reap the ones that started
                    worker.process.join()
                raise
        self._dispatcher = threading.Thread(
            target=self._loop, name="repro-worker-pool", daemon=True
        )
        self._dispatcher.start()
        # A pool left open must not respawn its workers while the
        # interpreter exits (multiprocessing terminates them first).
        atexit.register(self.close)

    # -- lifecycle ------------------------------------------------------

    def _spawn_locked(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_loop, args=(child_conn,), daemon=True,
            name=f"repro-worker-{self._next_wid}",
        )
        process.start()
        child_conn.close()
        worker = _Worker(self._next_wid, process, parent_conn,
                         remote=False)
        self._workers[worker.wid] = worker
        self._next_wid += 1
        return worker

    def listen(self, address: tuple[str, int],
               authkey: bytes) -> tuple[str, int]:
        """Accept remote workers on ``address``; returns the bound
        ``(host, port)`` (useful with port 0)."""
        with self._lock:
            if self._listener is not None:
                raise RuntimeError("pool is already listening")
            self._listener = Listener(address, authkey=authkey)
            bound = self._listener.address
        accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-worker-accept",
            daemon=True,
        )
        accept_thread.start()
        return bound

    def _accept_loop(self) -> None:
        listener = self._listener
        while not self._closed and listener is not None:
            try:
                conn = listener.accept()
            except (OSError, EOFError, multiprocessing.AuthenticationError):
                if self._closed:
                    break
                continue
            with self._lock:
                worker = _Worker(self._next_wid, None, conn, remote=True)
                self._workers[worker.wid] = worker
                self._next_wid += 1
            self._wake()

    def close(self) -> None:
        """Stop dispatching, terminate workers, fail queued tasks."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers.values())
            if self._listener is not None:
                try:
                    self._listener.close()
                except OSError:
                    pass
        atexit.unregister(self.close)
        self._wake()
        self._dispatcher.join(timeout=5.0)
        for worker in workers:
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError, TypeError, ValueError):
                pass
            try:
                worker.conn.close()
            except OSError:
                pass
            if worker.process is not None:
                worker.process.join(timeout=1.0)
                if worker.process.is_alive():
                    worker.process.kill()
                    worker.process.join()
            for task in list(worker.queue):
                if not task.future.done():
                    task.future.set_exception(
                        WorkerCrashError("worker pool closed")
                    )
            if (worker.inflight is not None
                    and not worker.inflight.future.done()):
                worker.inflight.future.set_exception(
                    WorkerCrashError("worker pool closed")
                )

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- submission -----------------------------------------------------

    def submit(self, fn, arg, *, target: int | None = None,
               deadline_at: float | None = None) -> Future:
        """Queue ``fn(arg)`` (both picklable) on the least-loaded worker.

        ``target`` pins the task to one worker's deque (tests exercise
        stealing with it); stealing may still move the task.
        ``deadline_at`` (monotonic clock) fails the task with
        :class:`WorkerTimeoutError` if it is still queued past the
        deadline, instead of wasting a worker on an already-late
        answer.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            if not self._workers:
                raise WorkerCrashError("worker pool has no live workers")
            task = _Task(self._next_task, fn, arg, deadline_at)
            self._next_task += 1
            if target is not None and target in self._workers:
                worker = self._workers[target]
            else:
                worker = self._least_loaded_locked()
            worker.queue.append(task)
        self._wake()
        return task.future

    def run(self, payload,
            timeout_s: float | None = None,
            hedge_s: float | None = None, *,
            fn=run_request_payload):
        """Execute ``fn(payload)`` synchronously (the broker path).

        Raises :class:`WorkerTimeoutError` after killing the hosting
        worker(s) when the deadline passes, :class:`WorkerCrashError`
        when every attempt's workers died, and :class:`PayloadError`
        when the payload itself raised.

        ``hedge_s`` arms a hedged request: if the first dispatch has
        not answered after ``hedge_s`` seconds, a duplicate is queued
        on another worker and the first answer wins (the straggler's
        is discarded). Payload execution is deterministic and cached,
        so the duplicate is harmless — at worst it recomputes what the
        winner just cached (a non-default ``fn`` must be as idempotent
        to be hedged).
        """
        start = time.monotonic()
        deadline_at = None if timeout_s is None else start + timeout_s
        hedge_at = None if hedge_s is None else start + hedge_s
        futures = [self.submit(fn, payload, deadline_at=deadline_at)]
        primary = futures[0]
        crash: BaseException | None = None
        while True:
            now = time.monotonic()
            if deadline_at is not None and now >= deadline_at:
                message = (
                    f"worker exceeded its {timeout_s:g}s deadline and "
                    "was killed"
                )
                for future in futures:
                    if not future.done():
                        self._kill_future(future, message)
                raise WorkerTimeoutError(message) from None
            waits = []
            if deadline_at is not None:
                waits.append(deadline_at - now)
            if hedge_at is not None:
                waits.append(max(0.0, hedge_at - now))
            done, pending = wait_futures(
                futures,
                timeout=min(waits) if waits else None,
                return_when=FIRST_COMPLETED,
            )
            winner = None
            for future in done:
                error = future.exception()
                if error is None:
                    winner = future
                    break
                crash = error
            if winner is not None:
                if winner is not primary:
                    self.hedge_wins += 1
                for future in futures:
                    if future is not winner and not future.done():
                        self._discard(future)
                status, value = winner.result()
                if status == "ok":
                    return value
                raise PayloadError(value)
            futures = [f for f in futures if not f.done()]
            if not futures:
                raise crash if crash is not None else WorkerCrashError(
                    "worker pool returned no result"
                )
            if (hedge_at is not None
                    and time.monotonic() >= hedge_at):
                hedge_at = None  # at most one hedge per request
                try:
                    futures.append(self.submit(
                        fn, payload, deadline_at=deadline_at
                    ))
                    self.hedges += 1
                except (WorkerCrashError, RuntimeError):
                    pass

    def map(self, payloads: list, report: ExecutionReport | None = None,
            fn=run_request_payload) -> list:
        """``[fn(payload) for payload in payloads]`` through the pool.

        Results come back in input order. A payload whose worker died is
        retried on another worker, and anything that still cannot
        complete runs in-process — the batch never drops a request.
        ``report`` lists every index whose worker died at least once in
        ``retried``, and those that then ran in-process in
        ``fell_back``. A payload's own exception raises
        :class:`PayloadError`.
        """
        futures: list[Future | None] = []
        for payload in payloads:
            try:
                futures.append(self.submit(fn, payload))
            except WorkerCrashError:
                futures.append(None)
        results = []
        for index, (payload, future) in enumerate(zip(payloads, futures)):
            retried = fell_back = False
            if future is None:
                fell_back = True
            else:
                try:
                    status, value = future.result()
                    retried = future.repro_retried  # type: ignore[attr-defined]
                except (WorkerCrashError, WorkerTimeoutError):
                    retried = fell_back = True
            if report is not None:
                if retried:
                    report.retried.append(index)
                if fell_back:
                    report.fell_back.append(index)
            if fell_back:
                results.append(fn(payload))
            elif status == "ok":
                results.append(value)
            else:
                raise PayloadError(value)
        return results

    # -- introspection --------------------------------------------------

    @property
    def mean_service_s(self) -> float:
        """Mean duration of recently completed tasks (0 with no data)."""
        with self._lock:
            if not self._service_s:
                return 0.0
            return sum(self._service_s) / len(self._service_s)

    @property
    def queue_depth(self) -> int:
        """Tasks queued across all deques (excluding in-flight)."""
        with self._lock:
            return sum(len(w.queue) for w in self._workers.values())

    def stats(self) -> dict:
        """Counters for ``/v1/status`` / ``/v1/metrics`` and tests."""
        with self._lock:
            live = [w for w in self._workers.values()]
            return {
                "workers": len(live),
                "remote_workers": sum(1 for w in live if w.remote),
                "busy": sum(1 for w in live if w.inflight is not None),
                "queued": sum(len(w.queue) for w in live),
                "steals": self.steals,
                "respawns": self.respawns,
                "completed": self.completed,
                "retries": self.retries,
                "hedges": self.hedges,
                "hedge_wins": self.hedge_wins,
                "expired": self.expired,
                "mean_service_s": (
                    sum(self._service_s) / len(self._service_s)
                    if self._service_s else 0.0
                ),
            }

    # -- dispatcher internals -------------------------------------------

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"w")
        except (BrokenPipeError, OSError):
            pass

    def _least_loaded_locked(self) -> _Worker:
        return min(
            self._workers.values(),
            key=lambda w: len(w.queue)
            + (1 if w.inflight is not None else 0),
        )

    def _kill_future(self, future: Future, reason: str) -> None:
        """Abandon the task behind ``future`` (deadline enforcement)."""
        with self._lock:
            for worker in self._workers.values():
                task = worker.inflight
                if task is not None and task.future is future:
                    task.abandoned = reason
                    if worker.process is not None:
                        worker.process.kill()
                    else:
                        worker.hang_up()
                    return
                for queued in list(worker.queue):
                    if queued.future is future:
                        worker.queue.remove(queued)
                        return

    def _discard(self, future: Future) -> None:
        """Forget a hedge loser: de-queue it if still waiting; a
        dispatched loser simply completes into an unread future."""
        with self._lock:
            for worker in self._workers.values():
                for queued in list(worker.queue):
                    if queued.future is future:
                        worker.queue.remove(queued)
                        return

    def _requeue_locked(self, task: _Task, reason: str) -> None:
        """Give a failed task another attempt (with jittered backoff)
        or fail it once the retry budget is spent."""
        if task.future.done():
            return
        if task.attempts >= self._retry.attempts or not self._workers:
            task.future.set_exception(WorkerCrashError(
                f"worker process died without reporting a result "
                f"({reason}; {task.attempts} attempt(s))"
            ))
            return
        self.retries += 1
        task.not_before = time.monotonic() + self._retry.delay_s(
            max(0, task.attempts - 1), self._rng
        )
        self._least_loaded_locked().queue.appendleft(task)

    def _loop(self) -> None:
        while True:
            with self._lock:
                if self._closed:
                    return
                waitables = [self._wake_r]
                sentinels = {}
                timeout = _HEALTH_INTERVAL_S
                now = time.monotonic()
                for worker in self._workers.values():
                    waitables.append(worker.conn)
                    if worker.process is not None:
                        sentinels[worker.process.sentinel] = worker
                    for task in worker.queue:
                        if task.not_before > now:
                            timeout = min(
                                timeout,
                                max(0.01, task.not_before - now),
                            )
                waitables.extend(sentinels)
            try:
                ready = wait(waitables, timeout=timeout)
            except OSError:
                ready = []
            with self._lock:
                if self._closed:
                    return
                dead: list[_Worker] = []
                for item in ready:
                    if item is self._wake_r:
                        while self._wake_r.poll():
                            self._wake_r.recv()
                        continue
                    if item in sentinels:
                        dead.append(sentinels[item])
                        continue
                    worker = next(
                        (w for w in self._workers.values()
                         if w.conn is item),
                        None,
                    )
                    if worker is None:
                        continue
                    if not self._drain_locked(worker):
                        dead.append(worker)
                # Liveness backstop for workers that died silently.
                for worker in self._workers.values():
                    if (worker.process is not None
                            and not worker.process.is_alive()
                            and worker not in dead):
                        dead.append(worker)
                for worker in dead:
                    self._bury_locked(worker)
                self._dispatch_locked()

    def _drain_locked(self, worker: _Worker) -> bool:
        """Consume results from one worker; False if the pipe died."""
        try:
            while worker.conn.poll():
                task_id, status, value = worker.conn.recv()
                task = worker.inflight
                if task is None or task.id != task_id:
                    continue  # stale answer from an abandoned task
                directive = chaos_hooks.fire(
                    "pool.result", worker=worker.wid, task=task_id
                )
                if directive.get("drop"):
                    worker.inflight = None
                    self._requeue_locked(task, "answer lost in transit")
                    continue
                worker.inflight = None
                self.completed += 1
                self._service_s.append(
                    time.monotonic() - task.started_at
                )
                if not task.future.done():
                    task.future.repro_retried = (  # type: ignore[attr-defined]
                        task.attempts > 1
                    )
                    task.future.set_result((status, value))
        except (EOFError, OSError):
            return False
        return True

    def _bury_locked(self, worker: _Worker) -> None:
        """Handle one dead worker: requeue/fail work, maybe respawn."""
        if worker.wid not in self._workers:
            return
        del self._workers[worker.wid]
        worker.hang_up()
        if worker.process is not None:
            worker.process.join(timeout=0.1)
        # Respawn before requeueing so a single-worker pool still has a
        # live worker to retry the dead one's work on.
        if (self._respawn and not worker.remote and not self._closed):
            self._spawn_locked()
            self.respawns += 1
        task = worker.inflight
        worker.inflight = None
        if task is not None and not task.future.done():
            if task.abandoned is not None:
                task.future.set_exception(
                    WorkerTimeoutError(task.abandoned)
                )
            else:
                self._requeue_locked(task, "worker process died")
        for queued in worker.queue:
            if self._workers:
                min(
                    self._workers.values(),
                    key=lambda w: len(w.queue),
                ).queue.append(queued)
            elif not queued.future.done():
                queued.future.set_exception(WorkerCrashError(
                    "worker pool has no live workers"
                ))

    def _take_locked(self, queue: deque, now: float,
                     from_left: bool) -> _Task | None:
        """Pop the next dispatchable task from one deque, failing any
        whose deadline already passed; ``None`` when nothing is
        eligible (a backing-off task stays put)."""
        while queue:
            task = queue.popleft() if from_left else queue.pop()
            if task.future.done():  # cancelled/abandoned while queued
                continue
            if (task.deadline_at is not None
                    and now >= task.deadline_at):
                self.expired += 1
                task.future.set_exception(WorkerTimeoutError(
                    "request deadline expired while queued; "
                    "never dispatched"
                ))
                continue
            if task.not_before > now:
                (queue.appendleft if from_left else queue.append)(task)
                return None
            return task
        return None

    def _dispatch_locked(self) -> None:
        """Give every idle worker a task: own deque first, then steal."""
        now = time.monotonic()
        for worker in list(self._workers.values()):
            if worker.wid not in self._workers:
                continue  # buried by a drop_conn directive this pass
            if worker.inflight is not None:
                continue
            task = self._take_locked(worker.queue, now, from_left=True)
            if task is None and not worker.queue:
                victim = max(
                    (w for w in self._workers.values()
                     if w.queue and w is not worker),
                    key=lambda w: len(w.queue),
                    default=None,
                )
                if victim is not None:
                    task = self._take_locked(
                        victim.queue, now, from_left=False
                    )
                    if task is not None:
                        self.steals += 1
            if task is None:
                continue
            task.attempts += 1
            task.started_at = now
            worker.inflight = task
            self._dispatches += 1
            directive = chaos_hooks.fire(
                "pool.dispatch",
                worker=worker.wid,
                task=task.id,
                remote=worker.remote,
                dispatch=self._dispatches - 1,
            )
            fn, arg = task.fn, task.arg
            delay_s = directive.get("delay_s")
            if delay_s:
                fn, arg = _delayed_call, (float(delay_s), fn, arg)
            try:
                worker.conn.send((task.id, fn, arg))
            except (BrokenPipeError, OSError, pickle.PicklingError,
                    AttributeError, TypeError, ValueError) as error:
                worker.inflight = None
                if not isinstance(error, (BrokenPipeError, OSError)):
                    # Unpicklable task: fail it, keep the worker.
                    task.future.set_exception(PayloadError(
                        f"{type(error).__name__}: {error}"
                    ))
                else:
                    self._bury_locked(worker)
                    return
                continue
            if directive.get("kill") and worker.process is not None:
                worker.process.kill()
            if directive.get("drop_conn"):
                self._bury_locked(worker)
