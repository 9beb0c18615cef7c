"""Persistent content-addressed result store.

Simulation results are deterministic functions of their configuration, so
a :class:`RunResult` can be stored on disk under a stable hash of the
inputs and reused across processes: benchmark reruns and figure
regeneration then cost a pickle load instead of a simulation.

Layout (one file per result, content-addressed)::

    .repro_cache/
        v1/                 <- SCHEMA_VERSION directory
            ab/
                ab12...ef.pkl

The schema version names the directory, so bumping
:data:`SCHEMA_VERSION` (whenever ``RunResult`` or the simulator's
observable outputs change shape) orphans every stale entry instead of
deserialising garbage. Key digests do not change with it: they double as
public request identities. Writes go through a temporary file in
the destination directory followed by :func:`os.replace`, which makes
concurrent writers (parallel sweep workers) safe: readers only ever see
complete files, and the last writer of identical content wins.

The store root defaults to ``.repro_cache`` under the current working
directory and can be redirected with the ``REPRO_CACHE_DIR`` environment
variable (tests and CI point it at scratch space).
"""

from __future__ import annotations

import os
import pickle
import tempfile
from dataclasses import dataclass
from pathlib import Path

from repro.chaos import hooks as chaos_hooks
from repro.core.results import RunResult

#: Bump when RunResult / SimOutcome / telemetry change observable shape.
#: v2: SimOutcome grew power_control (powerctl setpoint trace) and
#: SimSettings grew the power_control config field.
#: v3: SimOutcome grew fault_trace and SimSettings grew the
#: fault_timeline / collective_timeout_s fields (repro.resilience).
#: v4: the ``"serve"`` run kind joined the cache address space
#: (repro.inferserve ServingConfig payloads and ServingOutcome values).
#: v5: grid evaluation batches through ``repro.engine.batched`` and the
#: multi-worker serve tier shares the store across worker processes; the
#: bump draws a clean line under entries written by pre-batched trees.
#: v6: kernel records and telemetry stored as columns.
SCHEMA_VERSION = 6

DEFAULT_DIR = ".repro_cache"

_ENV_VAR = "REPRO_CACHE_DIR"

_enabled = True

#: Types :meth:`ResultStore.get` will hand back; any other payload is
#: quarantined as corrupt. ``RunResult`` is always registered; other
#: run kinds register their value types at definition time (the runner
#: module is always imported before its results are looked up, so
#: registration precedes every ``get``).
_RESULT_TYPES: tuple[type, ...] = (RunResult,)


def register_result_type(tp: type) -> type:
    """Allow ``tp`` instances through :meth:`ResultStore.get`.

    Run kinds whose cached value is not a :class:`RunResult` (serving
    outcomes, optimize search results) call this next to the class
    definition. Returns ``tp`` so it can be used as a decorator.
    Idempotent.
    """
    global _RESULT_TYPES
    if not isinstance(tp, type):
        raise TypeError(f"register_result_type takes a class, got {tp!r}")
    if tp not in _RESULT_TYPES:
        _RESULT_TYPES = _RESULT_TYPES + (tp,)
    return tp


@dataclass(frozen=True)
class StoreStats:
    """Summary of a store's on-disk contents."""

    root: str
    schema_version: int
    entries: int
    total_bytes: int
    stale_entries: int
    quarantined_entries: int = 0
    #: ``(version_label, entry_count)`` per schema directory found on
    #: disk, e.g. ``(("v4", 12), ("v5", 80))`` — makes mixed-version
    #: caches visible after a schema bump.
    entries_by_version: tuple[tuple[str, int], ...] = ()

    @property
    def total_mb(self) -> float:
        """Total size in MiB."""
        return self.total_bytes / (1024 * 1024)


class ResultStore:
    """Content-addressed on-disk RunResult cache."""

    def __init__(self, root: str | os.PathLike | None = None) -> None:
        if root is None:
            root = os.environ.get(_ENV_VAR) or DEFAULT_DIR
        self.root = Path(root)

    # -- paths ----------------------------------------------------------

    @property
    def version_dir(self) -> Path:
        """Directory holding current-schema entries."""
        return self.root / f"v{SCHEMA_VERSION}"

    def path_for(self, digest: str) -> Path:
        """On-disk location of one digest's entry."""
        return self.version_dir / digest[:2] / f"{digest}.pkl"

    # -- access ---------------------------------------------------------

    def get(self, digest: str) -> RunResult | None:
        """Load a stored result, or None on miss/corruption.

        A file that exists but fails to unpickle (truncated write,
        bit-rot, incompatible source tree) — or unpickles to a type no
        run kind registered via :func:`register_result_type` — is
        quarantined to ``<entry>.pkl.corrupt`` so the caller recomputes
        — and the next :meth:`put` can reinstall a healthy entry —
        instead of hitting the same broken bytes on every lookup.
        """
        path = self.path_for(digest)
        chaos_hooks.fire("store.get", path=path, digest=digest)
        try:
            with open(path, "rb") as handle:
                result = pickle.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, KeyError, TypeError, ValueError):
            self._quarantine(path)
            return None
        if isinstance(result, _RESULT_TYPES):
            return result
        self._quarantine(path)
        return None

    @staticmethod
    def _quarantine(path: Path) -> None:
        """Move a broken entry aside so it stops shadowing the digest."""
        try:
            os.replace(path, path.with_suffix(path.suffix + ".corrupt"))
        except OSError:
            # Concurrent quarantine or read-only store: the miss still
            # stands; worst case the entry is retried next lookup.
            pass

    def put(self, digest: str, result: RunResult) -> None:
        """Atomically persist one result.

        The payload is pickled into a temporary file in the destination
        directory and moved into place with :func:`os.replace`, so a
        concurrent reader never observes a partial file and concurrent
        writers of the same digest simply race to install identical
        content.
        """
        path = self.path_for(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{digest[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
            chaos_hooks.fire("store.put", path=path, digest=digest)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    # -- maintenance ----------------------------------------------------

    def stats(self) -> StoreStats:
        """Entry count and size of the store (current + stale schemas).

        ``entries_by_version`` breaks the counts down per schema
        directory (``v4``, ``v5``, ...), so mixed-version caches left
        behind by a schema bump are visible at a glance.
        """
        entries = 0
        total_bytes = 0
        stale = 0
        quarantined = 0
        by_version: dict[str, int] = {}
        if self.root.is_dir():
            for path in self.root.rglob("*.pkl"):
                size = path.stat().st_size
                total_bytes += size
                if self.version_dir in path.parents:
                    entries += 1
                else:
                    stale += 1
                version = path.relative_to(self.root).parts[0]
                by_version[version] = by_version.get(version, 0) + 1
            quarantined = sum(
                1 for _ in self.root.rglob("*.corrupt")
            )
        return StoreStats(
            root=str(self.root),
            schema_version=SCHEMA_VERSION,
            entries=entries,
            total_bytes=total_bytes,
            stale_entries=stale,
            quarantined_entries=quarantined,
            entries_by_version=tuple(
                sorted(by_version.items())
            ),
        )

    def clear(self) -> int:
        """Delete every stored entry (all schema versions); return count."""
        removed = 0
        if not self.root.is_dir():
            return removed
        for path in sorted(
            self.root.rglob("*"), key=lambda p: len(p.parts), reverse=True
        ):
            if path.is_file():
                path.unlink()
                removed += 1 if path.suffix == ".pkl" else 0
            elif path.is_dir():
                try:
                    path.rmdir()
                except OSError:
                    pass
        return removed


def result_store() -> ResultStore:
    """The process-default store (honours ``REPRO_CACHE_DIR``)."""
    return ResultStore()


def persistence_enabled() -> bool:
    """Whether cached_run_* consult the on-disk layer."""
    return _enabled


def set_persistence(enabled: bool) -> None:
    """Globally enable/disable the on-disk layer (benchmarks disable it
    so timings measure simulation, not pickle loads)."""
    global _enabled
    _enabled = bool(enabled)


class persistence_disabled:
    """Context manager: suspend the on-disk layer within the block."""

    def __enter__(self) -> None:
        self._prior = persistence_enabled()
        set_persistence(False)

    def __exit__(self, *exc_info) -> None:
        set_persistence(self._prior)
