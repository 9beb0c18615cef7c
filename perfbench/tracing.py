"""Per-layer attribution from outside the program.

:class:`Tracer` wraps the public entry points of each ``repro`` layer
(module functions wherever they are bound, and methods on their
classes) with spans. A span's *self time* is its duration minus the time
of the spans it directly contains, so the self times of all layers add
up to the time spent inside the outermost span. The current span is a
``ContextVar``: nesting follows threads and asyncio tasks, including a
coroutine handed to the loop with ``run_coroutine_threadsafe``. Work
handed to an executor thread (the broker's store probe and pool hop)
starts with an empty context; it is *detached*: its duration is
subtracted from the layer that waited for it.

Nothing is patched until :meth:`Tracer.install`; :meth:`uninstall`
restores every original, so untraced passes run the plain program.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import os
import sys
from collections import defaultdict
from time import perf_counter_ns

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)

#: Spans that probe the result cache; classified memo / store / miss.
_PROBES = frozenset({
    "cached_run", "lookup_memo", "lookup_cached", "batched._probe",
})
_BATCHED = frozenset({"evaluate_grid", "SetpointSession.evaluate"})


class _Frame:
    __slots__ = ("name", "parent", "child_ns", "tier")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.child_ns = 0
        self.tier = None

    def nearest(self, names):
        frame = self
        while frame is not None and frame.name not in names:
            frame = frame.parent
        return frame


# -- per-span hooks: counters read from arguments and results ---------


def _mark_probe(tier):
    def hook(tracer, frame, args, result):
        probe = frame.parent.nearest(_PROBES) if frame.parent else None
        if probe is not None and probe.tier is None:
            probe.tier = tier
    return hook


def _store_get(tracer, frame, args, result):
    tracer.counts["core.store.gets"] += 1
    if result is not None:
        tracer.counts["core.store.get_hits"] += 1
        _mark_probe("store")(tracer, frame, args, result)


def _store_put(tracer, frame, args, result):
    store, digest = args[0], args[1]
    tracer.counts["core.store.puts"] += 1
    tracer.counts["core.store.put_bytes"] += os.path.getsize(
        store.path_for(digest)
    )


def _probe(tracer, frame, args, result):
    if frame.parent is not None and frame.parent.name in _PROBES:
        return  # the enclosing probe counts this lookup
    tier = frame.tier
    if result is None:
        tier = "miss"
    tracer.counts[{
        None: "core.sweep.probe.memo_hits",
        "store": "core.sweep.probe.store_hits",
        "miss": "core.sweep.probe.misses",
    }[tier]] += 1


def _build(tracer, frame, args, result):
    tracer.counts["engine.builder.calls"] += 1
    tracer.counts["engine.builder.tasks"] += result.total_tasks


def _sim_run(tracer, frame, args, result):
    tracer.counts["engine.simulator.runs"] += 1
    tracer.counts["engine.simulator.events"] += len(result.records)
    if frame.nearest(_BATCHED) is not None:
        tracer.counts["engine.batched.full_sims"] += 1


def _grid(tracer, frame, args, result):
    tracer.counts["engine.batched.points"] += len(result)


def _search(tracer, frame, args, result):
    tracer.counts["optimize.searches"] += 1
    tracer.counts["optimize.raw"] += result.prune.raw
    tracer.counts["optimize.simulated"] += result.prune.simulated


def _counter(name):
    def hook(tracer, frame, args, result):
        tracer.counts[name] += 1
    return hook


def _queue_depth(tracer, args):
    depth = args[0].queue_depth
    if depth > tracer.counts["serve.workers.queue_depth_max"]:
        tracer.counts["serve.workers.queue_depth_max"] = depth


class Tracer:
    """Span/counter collector plus the patch table that feeds it."""

    def __init__(self) -> None:
        self.active = False
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.layer_ns: dict[str, int] = defaultdict(int)
        self.span_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)

    # -- span machinery -------------------------------------------------

    def _wrap(self, fn, layer, name, after=None, before=None,
              detach=None):
        tracer = self

        def finish(frame, parent, duration):
            if parent is not None:
                parent.child_ns += duration
            tracer.layer_ns[layer] += duration - frame.child_ns
            tracer.span_ns[name] += duration
            if detach is not None:
                tracer.layer_ns[detach] -= duration

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                if not tracer.active:
                    return await fn(*args, **kwargs)
                if before is not None:
                    before(tracer, args)
                parent = _CURRENT.get()
                frame = _Frame(name, parent)
                token = _CURRENT.set(frame)
                start = perf_counter_ns()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    duration = perf_counter_ns() - start
                    _CURRENT.reset(token)
                    finish(frame, parent, duration)
                if after is not None:
                    after(tracer, frame, args, result)
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(tracer, args)
            parent = _CURRENT.get()
            frame = _Frame(name, parent)
            token = _CURRENT.set(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter_ns() - start
                _CURRENT.reset(token)
                finish(frame, parent, duration)
            if after is not None:
                after(tracer, frame, args, result)
            return result

        return wrapper

    def _patch_function(self, module_name, attr, layer, name=None,
                        **hooks):
        """Wrap a module function at every module that bound it."""
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = self._wrap(original, layer, name or attr, **hooks)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._patched.append((module, key, original))

    def _patch_method(self, cls, attr, layer, name=None, **hooks):
        raw = cls.__dict__[attr]
        label = name or f"{cls.__name__}.{attr}"
        if isinstance(raw, classmethod):
            wrapped = classmethod(
                self._wrap(raw.__func__, layer, label, **hooks)
            )
        else:
            wrapped = self._wrap(raw, layer, label, **hooks)
        setattr(cls, attr, wrapped)
        self._patched.append((cls, attr, raw))

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        self.active = False
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- the layer map ---------------------------------------------------

    def install(self, server: bool = False) -> None:
        """Patch the layers' entry points (inactive until ``active``).

        ``server=True`` also wraps the serve tier (broker, HTTP handler,
        worker pool), for use inside the server process.
        """
        from repro import api
        from repro.core import results, store
        from repro.engine import batched, physics, simulator
        from repro.optimize import request as opt_request
        from repro.telemetry import monitor

        fn, meth = self._patch_function, self._patch_method
        miss = _mark_probe("miss")

        validated = _counter("api.validate.calls")
        meth(api.SimRequest, "__post_init__", "api.validate",
             after=validated)
        meth(api.SimRequest, "from_json", "api.validate")
        meth(opt_request.OptimizeRequest, "__post_init__", "api.validate",
             after=validated)
        meth(opt_request.OptimizeRequest, "from_json", "api.validate")
        fn("repro.api", "submit", "api.submit")
        fn("repro.api", "submit_many", "api.submit")

        for attr in ("cached_run", "lookup_memo", "lookup_cached"):
            fn("repro.core.sweep", attr, "core.sweep", after=_probe)
        fn("repro.engine.batched", "_probe", "core.sweep",
           name="batched._probe", after=_probe)
        fn("repro.core.sweep", "seed_memo", "core.sweep")

        fn("repro.core.experiment", "execute_training",
           "core.experiment", after=miss)
        fn("repro.core.experiment", "execute_inference",
           "core.experiment", after=miss)
        fn("repro.optimize.search", "run_optimize_payload", "optimize",
           after=miss)

        fn("repro.engine.builder", "build_training_graph",
           "engine.builder", after=_build)
        fn("repro.engine.builder", "build_inference_graph",
           "engine.builder", after=_build)

        meth(simulator.Simulator, "__init__", "engine.simulator")
        meth(simulator.Simulator, "run", "engine.simulator",
             after=_sim_run)
        meth(physics.VectorPhysics, "step", "engine.physics",
             after=_counter("engine.physics.steps"))
        meth(physics.PowerVector, "powers", "engine.physics")
        meth(physics.PowerVector, "refresh_intensity", "engine.physics")
        meth(monitor.TelemetryLog, "record_step", "telemetry",
             after=_counter("telemetry.samples"))

        for attr in ("efficiency", "stats", "kernel_breakdown"):
            meth(results.RunResult, attr, "core.results",
                 after=_counter("core.results.calls"))
        fn("repro.core.artifact", "run_summary", "core.results",
           after=_counter("core.results.calls"))

        meth(store.ResultStore, "put", "core.store", after=_store_put)
        meth(store.ResultStore, "get", "core.store", after=_store_get)

        fn("repro.engine.batched", "evaluate_grid", "engine.batched",
           after=_grid)
        meth(batched.SetpointSession, "evaluate", "engine.batched",
             name="SetpointSession.evaluate", after=_grid)

        fn("repro.optimize.search", "run_optimize", "optimize")
        fn("repro.optimize.search", "_optimize_training", "optimize",
           after=_search)
        fn("repro.optimize.search", "_optimize_serving", "optimize",
           after=_search)
        fn("repro.optimize.space", "enumerate_candidates", "optimize")
        fn("repro.optimize.space", "prune_candidates", "optimize",
           name="prune")
        fn("repro.optimize.space", "analytic_plan_estimate", "optimize",
           name="rank")
        fn("repro.optimize.setpoint", "optimize_setpoint", "optimize")

        if server:
            from repro.serve import broker, http, workers

            # run_coroutine_threadsafe carries the handler's context
            # into the broker task, so Broker.submit nests in do_POST.
            meth(broker.Broker, "submit", "serve.broker",
                 name="Broker.submit")
            meth(broker.Broker, "_execute", "serve.broker",
                 before=_queue_depth)
            # Executor hops: the broker coroutine waits for these.
            meth(broker.Broker, "_probe_store", "serve.broker",
                 detach="serve.broker")
            meth(broker.Broker, "_pool_runner", "serve.broker",
                 detach="serve.broker")
            meth(broker.SimResponse, "to_dict", "serve.response",
                 name="SimResponse.to_dict")
            meth(http._Handler, "do_POST", "serve.http",
                 name="do_POST")
            meth(workers.WorkerPool, "run", "serve.workers",
                 name="WorkerPool.run")

    # -- report ------------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "layer_ns": dict(self.layer_ns),
            "span_ns": dict(self.span_ns),
            "counts": dict(self.counts),
        }
