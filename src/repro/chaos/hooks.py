"""Hook points: the monkeypatch-free seam fault injection acts through.

Production modules (:mod:`repro.core.store`, :mod:`repro.serve.broker`,
:mod:`repro.serve.workers`) call :func:`fire` at named **sites** with a
small context dict. With no handler installed — the default, always,
in production — :func:`fire` is one attribute load and a ``None``
check, and every call site behaves exactly as if the hook did not
exist. A chaos run installs a handler
(:class:`repro.chaos.injection.FaultInjector`) that inspects the site
and returns a **directive** dict the call site interprets.

Sites and their directive contracts (a handler may always return
``None`` for "no action"; unknown keys are ignored by call sites):

``store.get``
    Fired before a cache entry is read. Context: ``path`` (Path),
    ``digest``. The handler may corrupt/truncate the file on disk as a
    side effect (torn-write injection); no directive keys.
``store.put``
    Fired after an entry is atomically installed. Context: ``path``,
    ``digest``. The handler may truncate the just-written file
    (simulating a torn write that beat the rename protection, e.g.
    bit-rot or an fsync-less power cut); no directive keys.
``pool.dispatch``
    Fired as a worker is handed a task, before the pipe send. Context:
    ``worker`` (wid), ``task`` (task id), ``remote`` (bool),
    ``dispatch`` (monotonic per-pool dispatch counter). Directive keys:
    ``kill`` (SIGKILL the hosting local worker right after the send —
    a mid-task crash), ``drop_conn`` (close the worker's connection —
    a TCP drop / partition for remote workers), ``delay_s`` (wrap the
    payload so the worker sleeps first — a slow-worker straggler).
``pool.result``
    Fired when a worker's answer is consumed. Context: ``worker``,
    ``task``. Directive key: ``drop`` (discard the answer as if the
    pipe lost it; the task is then recovered by the crash path).
``broker.execute``
    Fired as the broker starts executing a miss. Context: ``digest``,
    ``attempt`` (0-based). Directive keys: ``fail`` (a message — the
    execution raises ``WorkerCrashError(fail)`` without running,
    simulating an unhealthy pool), ``delay_s`` (sleep before running —
    queue-saturation storms).

The registry is intentionally process-global (workers are processes;
each installs its own handler if needed) and thread-safe by virtue of
being a single reference swap.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional

#: Handler signature: ``handler(site, context) -> directive | None``.
ChaosHandler = Callable[[str, Mapping], Optional[Mapping]]

_handler: ChaosHandler | None = None


def fire(site: str, **context) -> Mapping:
    """Consult the installed handler at one hook site.

    Returns the handler's directive dict, or an empty mapping when no
    handler is installed (the hot path: one load + one comparison) or
    the handler returned ``None``. Call sites must treat unknown keys
    as absent so handlers stay forward-compatible.
    """
    handler = _handler
    if handler is None:
        return _NO_DIRECTIVE
    directive = handler(site, context)
    return directive if directive is not None else _NO_DIRECTIVE


_NO_DIRECTIVE: Mapping = {}


def install(handler: ChaosHandler) -> None:
    """Install ``handler`` as the process-wide chaos handler.

    Only one handler is active at a time; installing over an existing
    one raises so scenarios cannot silently stack.
    """
    global _handler
    if _handler is not None and handler is not _handler:
        raise RuntimeError(
            "a chaos handler is already installed; uninstall() it first"
        )
    _handler = handler


def uninstall() -> None:
    """Remove the active handler (idempotent)."""
    global _handler
    _handler = None


def active() -> ChaosHandler | None:
    """The currently installed handler, if any."""
    return _handler


class installed:
    """Context manager: install a handler for the block, then restore.

    ::

        with hooks.installed(injector):
            ...  # faults fire
    """

    def __init__(self, handler: ChaosHandler) -> None:
        self._handler = handler

    def __enter__(self) -> ChaosHandler:
        install(self._handler)
        return self._handler

    def __exit__(self, *exc_info) -> None:
        uninstall()
