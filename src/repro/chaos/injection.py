"""Seeded fault injection: a :class:`FaultInjector` behind the hooks.

A :class:`FaultPlan` declares *which* faults to inject — worker kills
and connection drops by dispatch ordinal, stragglers / dropped answers
/ torn cache writes / execution stalls by seeded rate — and a
:class:`FaultInjector` turns the plan into hook directives
(:mod:`repro.chaos.hooks`): install it and the production call sites in
the store, the supervisor, the worker pool, and the broker start
failing on cue.

Determinism: ordinal triggers (``kill_local_dispatches`` et al.) fire
on the Nth dispatch of their class regardless of thread scheduling.
Rate triggers draw from per-site ``random.Random(seed ^ hash(site))``
streams, so two runs with the same seed and the same per-site call
sequence inject identically; sites that race each other (parallel
store probes) stay independent instead of perturbing each other's
streams.

The injector records everything it does (:attr:`FaultInjector.counts`,
:attr:`FaultInjector.events`) so a chaos report can say not just "the
system survived" but "survived *what*".
"""

from __future__ import annotations

import os
import threading
from collections import Counter
from dataclasses import dataclass, fields
from random import Random
from typing import Mapping, Optional

__all__ = ["FaultInjector", "FaultPlan", "torn_write"]


@dataclass(frozen=True)
class FaultPlan:
    """What to inject, declaratively. All fields default to "off".

    Ordinal triggers (0-based, deterministic under any scheduling):

    Attributes:
        kill_local_dispatches: SIGKILL the local worker hosting the
            Nth dispatch *to a local worker*, right after the task is
            handed over (a mid-task crash).
        drop_remote_dispatches: close the connection carrying the Nth
            dispatch *to a remote worker* (a TCP drop / partition).

    Rate triggers (seeded Bernoulli draws per event):

    Attributes:
        straggler_rate / straggler_delay_s: wrap a dispatched payload
            in a ``straggler_delay_s`` sleep (a slow worker).
        result_drop_rate: discard a worker's answer in transit (the
            task is recovered by the crash path).
        corrupt_read_rate: truncate a cache entry just before it is
            read (a torn write discovered at read time).
        corrupt_write_rate: truncate a cache entry just after it was
            atomically installed (bit-rot / fsync-less power cut).
        execute_delay_rate / execute_delay_s: stall the broker before
            it executes a miss (queue-saturation storms).
    """

    kill_local_dispatches: tuple[int, ...] = ()
    drop_remote_dispatches: tuple[int, ...] = ()
    straggler_rate: float = 0.0
    straggler_delay_s: float = 0.25
    result_drop_rate: float = 0.0
    corrupt_read_rate: float = 0.0
    corrupt_write_rate: float = 0.0
    execute_delay_rate: float = 0.0
    execute_delay_s: float = 0.1

    def __post_init__(self) -> None:
        for name in (
            "straggler_rate", "result_drop_rate", "corrupt_read_rate",
            "corrupt_write_rate", "execute_delay_rate",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"{name} must be in [0, 1], got {value!r}"
                )
        for name in ("straggler_delay_s", "execute_delay_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("kill_local_dispatches", "drop_remote_dispatches"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    @property
    def active(self) -> bool:
        """Whether any trigger is armed."""
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.name.endswith("_s"):
                continue  # delay magnitudes are not triggers
            if value not in ((), 0.0):
                return True
        return False

    def to_dict(self) -> dict:
        """JSON-shaped plan (report / CLI provenance)."""
        return {
            spec.name: (
                list(value) if isinstance(
                    value := getattr(self, spec.name), tuple
                ) else value
            )
            for spec in fields(self)
        }


def torn_write(path) -> bool:
    """Truncate ``path`` to half its size, simulating a torn write.

    Returns False (and leaves the file alone) when the file is missing
    or too small to meaningfully tear — injection never crashes the
    system it is testing.
    """
    try:
        size = os.path.getsize(path)
        if size < 2:
            return False
        with open(path, "r+b") as handle:
            handle.truncate(size // 2)
        return True
    except OSError:
        return False


class FaultInjector:
    """The :data:`repro.chaos.hooks.ChaosHandler` a :class:`FaultPlan`
    compiles to. Install with ``hooks.installed(injector)``."""

    def __init__(self, plan: FaultPlan, seed: int = 0) -> None:
        self.plan = plan
        self.seed = seed
        self._lock = threading.Lock()
        self._rngs: dict[str, Random] = {}
        self._local_dispatches = 0
        self._remote_dispatches = 0
        self.counts: Counter = Counter()
        self.events: list[dict] = []

    # -- handler entry ---------------------------------------------------

    def __call__(self, site: str,
                 context: Mapping) -> Optional[Mapping]:
        handler = getattr(self, "_" + site.replace(".", "_"), None)
        if handler is None:
            return None
        with self._lock:
            directive = handler(context)
            if directive:
                for key in directive:
                    self.counts[f"{site}:{key}"] += 1
                self.events.append(
                    {"site": site, **directive,
                     **{k: str(v) for k, v in context.items()
                        if k in ("worker", "task", "digest",
                                 "dispatch", "remote")}}
                )
            return directive or None

    def _rng(self, site: str) -> Random:
        rng = self._rngs.get(site)
        if rng is None:
            material = f"{self.seed}:{site}".encode()
            rng = self._rngs[site] = Random(material)
        return rng

    def _hit(self, site: str, rate: float) -> bool:
        return rate > 0.0 and self._rng(site).random() < rate

    # -- per-site handlers ----------------------------------------------

    def _pool_dispatch(self, context: Mapping) -> dict:
        directive: dict = {}
        if context.get("remote"):
            ordinal = self._remote_dispatches
            self._remote_dispatches += 1
            if ordinal in self.plan.drop_remote_dispatches:
                directive["drop_conn"] = True
        else:
            ordinal = self._local_dispatches
            self._local_dispatches += 1
            if ordinal in self.plan.kill_local_dispatches:
                directive["kill"] = True
        if "kill" not in directive and "drop_conn" not in directive:
            if self._hit("pool.dispatch", self.plan.straggler_rate):
                directive["delay_s"] = self.plan.straggler_delay_s
        return directive

    def _pool_result(self, context: Mapping) -> dict:
        if self._hit("pool.result", self.plan.result_drop_rate):
            return {"drop": True}
        return {}

    def _store_get(self, context: Mapping) -> dict:
        if self._hit("store.get", self.plan.corrupt_read_rate):
            if torn_write(context["path"]):
                return {"corrupted": True}
        return {}

    def _store_put(self, context: Mapping) -> dict:
        if self._hit("store.put", self.plan.corrupt_write_rate):
            if torn_write(context["path"]):
                return {"corrupted": True}
        return {}

    def _broker_execute(self, context: Mapping) -> dict:
        if self._hit("broker.execute", self.plan.execute_delay_rate):
            return {"delay_s": self.plan.execute_delay_s}
        return {}

    # -- reporting -------------------------------------------------------

    def injected(self) -> dict:
        """``{"site:key": count}`` of every directive actually issued."""
        with self._lock:
            return dict(self.counts)
