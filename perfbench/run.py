"""Repository benchmark: one command per workload, seeded, self-checking.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold-run --seed 1 --seconds 30 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

- ``cold-run``  closed loop, 1 client: distinct training/inference
  requests through ``repro.api.submit`` against an empty store.
- ``sweep``     closed loop, 1 client: setpoint grids through
  ``submit_many(jobs=1)`` plus a few small ``OptimizeRequest`` searches.
- ``serve-mix`` open loop at a fixed rate over 2 keep-alive connections
  against ``repro serve --workers 2`` in its own process.

Every run performs the same seeded round of operations several times
(the number of rounds scales with ``--seconds``; one round is sized to
take about ``ROUND_SECONDS`` on the reference machine), builds its
inputs before timing, and starts every round from a fresh
``REPRO_CACHE_DIR`` and an empty memo. Each operation's latency is its
median over the rounds, so a burst of host noise during one round does
not move the result. Every answer is checked against ``goldens.json``.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` prints the
per-layer metrics: one round runs traced, untraced, then traced again;
exact counters must agree between the two traced passes. The last line
of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import check  # noqa: E402
import specs  # noqa: E402
from metrics import (  # noqa: E402
    E2E_UNITS, EXACT, LAYER_UNITS, ROUND_SECONDS, SELF_LAYERS,
    SETUP_PROBE_REPEATS, SETUP_SAMPLES, finish, hd_quantile, host_scale,
    limits, peak_rss_mb, per_op_medians, probe,
)

# -- setup timing -----------------------------------------------------


def measure_setup(args, probes: list) -> float:
    """Median wall time of fresh interpreters reaching "ready"; a probe
    block is timed into ``probes`` before each and after the last."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        probe(probes, SETUP_PROBE_REPEATS)
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__)), "--workload",
             args.workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", "0", "--setup-probe"],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        try:
            line = proc.stdout.readline()
            ready = perf_counter()
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed (exit {code})")
        samples.append(ready - start)
    probe(probes, SETUP_PROBE_REPEATS)
    return statistics.median(samples)


# -- in-process workloads ---------------------------------------------


class Op:
    """One timed operation: its specs, what to call, how to count it."""

    __slots__ = ("kind", "spec_list", "call")

    def __init__(self, kind, spec_list, call):
        self.kind = kind
        self.spec_list = spec_list
        self.call = call


def _ops_for(workload: str, goldens: dict, seed: int) -> list[Op]:
    # Call through the module so the traced passes see api.submit.
    from repro import api

    cells = goldens["cells"]
    ops: list[Op] = []
    if workload == "cold-run":
        for spec in specs.cold_run_stream(cells["cold"], seed):
            request = specs.to_request(spec)
            ops.append(Op("run", [spec],
                          lambda r=request: [api.submit(r)]))
        return ops
    for kind, payload in specs.sweep_stream(
            cells["sweep"], cells["optimize"], seed):
        if kind == "grid":
            requests = [specs.to_request(s) for s in payload]
            ops.append(Op("grid", payload,
                          lambda r=requests: list(api.submit_many(r, jobs=1))))
        else:
            request = specs.to_request(payload)
            ops.append(Op("search", [payload],
                          lambda r=request: [api.submit(r)]))
    return ops


def rounds_for(workload: str, seconds: int) -> int:
    """How many times a run repeats its round."""
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def configs_of(op: Op, outputs) -> int:
    if op.kind == "search":
        return outputs[0].probes_total
    return len(op.spec_list)


def verify(answers, entries: dict):
    """(failed flags, configs, events) of one round's answers."""
    failed = []
    configs = 0
    events = 0
    for op, outputs in answers:
        ok = not isinstance(outputs, Exception)
        if ok:
            for spec, output in zip(op.spec_list, outputs):
                golden = entries.get(specs.key(spec))
                if golden is None or check.digest(output) != golden["digest"]:
                    ok = False
                    break
                if "events" in golden:
                    events += golden["events"]
                    if len(output.outcome.records) != golden["events"]:
                        ok = False
                        break
        if ok:
            configs += configs_of(op, outputs)
        failed.append(not ok)
    return failed, configs, events


def run_pass(ops, rounds: int, work: Path, label: str, goldens: dict,
             tracer=None, probes=None) -> dict:
    """Time every op of every round; verify each round's outputs after
    it (untimed) and drop them, so no round carries the last one's
    objects. With ``probes``, time the host-speed probe before every
    op."""
    from repro.core.sweep import clear_cache

    latencies: list[list[float]] = []
    failed: list[bool] = []
    configs = 0
    events = 0
    rss_mb = None
    for number in range(rounds):
        os.environ["REPRO_CACHE_DIR"] = str(work / f"{label}-{number}")
        clear_cache()
        gc.collect()
        if tracer is not None:
            tracer.active = True
        times = []
        answers = []
        for op in ops:
            if probes is not None:
                probe(probes)
            start = perf_counter()
            try:
                outputs = op.call()
            except Exception as error:  # counted as a failed op
                outputs = error
            times.append(perf_counter() - start)
            answers.append((op, outputs))
        if tracer is not None:
            tracer.active = False
        latencies.append(times)
        if rss_mb is None:
            # Before the output check, which materialises lazily built
            # records.
            rss_mb = peak_rss_mb()
        round_failed, round_configs, round_events = verify(
            answers, goldens["entries"])
        failed += round_failed
        configs += round_configs
        events += round_events
        del answers
    clear_cache()
    return {
        "latencies": latencies, "failed": failed,
        "configs": configs / rounds, "events": events / rounds,
        "rss_mb": rss_mb,
    }


def e2e_metrics(result: dict, setup_s: float, limit_ms: float,
                scale: float) -> dict:
    """End-to-end numbers of a run: Harrell-Davis quantiles over per-op
    medians, and rates of one round's work over the sum of its per-op
    medians; times at reference speed (``scale``, see
    ``metrics.host_scale``)."""
    per_op_ms = [x * 1000.0 for x in per_op_medians(result["latencies"])]
    busy_s = sum(per_op_ms) / 1000.0
    all_ms = [x * 1000.0 for times in result["latencies"] for x in times]
    within = sum(
        1 for x, bad in zip(all_ms, result["failed"])
        if not bad and x * scale <= limit_ms
    )
    return {
        "setup_s": setup_s,
        "peak_rss_mb": result["rss_mb"],
        "latency_p50_ms": hd_quantile(per_op_ms, 0.50) * scale,
        "latency_p90_ms": hd_quantile(per_op_ms, 0.90) * scale,
        "sim_events_per_s": result["events"] / busy_s / scale,
        "configs_per_s": result["configs"] / busy_s / scale,
        "slo_attainment": within / len(all_ms),
    }


def layer_metrics(snap: dict, op_s: float) -> dict:
    """Per-layer numbers of one traced pass."""
    layer_ns = snap["layer_ns"]
    span_ns = snap["span_ns"]
    counts = snap["counts"]
    out = {name: 0.0 for name in LAYER_UNITS}
    for name in LAYER_UNITS:
        if name in counts:
            out[name] = counts[name]
    for layer in SELF_LAYERS:
        out[f"{layer}.self_ms"] = layer_ns.get(layer, 0) / 1e6
    out["core.store.put_ms"] = span_ns.get("ResultStore.put", 0) / 1e6
    out["core.store.get_ms"] = span_ns.get("ResultStore.get", 0) / 1e6
    out["optimize.prune_ms"] = span_ns.get("prune", 0) / 1e6
    out["optimize.rank_ms"] = span_ns.get("rank", 0) / 1e6
    events = counts.get("engine.simulator.events", 0)
    out["engine.simulator.host_us_per_event"] = (
        layer_ns.get("engine.simulator", 0) / 1e3 / events if events else 0.0
    )
    points = counts.get("engine.batched.points", 0)
    out["engine.batched.replay_ratio"] = (
        1.0 - counts.get("engine.batched.full_sims", 0) / points
        if points else 0.0
    )
    attributed_ns = sum(layer_ns.values())
    out["trace.unattributed_share"] = 1.0 - attributed_ns / 1e9 / op_s
    return out


def prepare(args, work: Path, goldens: dict):
    """Everything before the first timed op: build the inputs, then run
    the first simulation op once so lazy imports and first-call set-up
    are paid before timing (its results are dropped with its store)."""
    import repro.core.artifact  # noqa: F401 - used by the output check
    import repro.optimize.search  # noqa: F401

    ops = _ops_for(args.workload, goldens, args.seed)
    first = next(op for op in ops if op.kind != "search")
    run_pass([first], 1, work, "warmup", goldens)
    return ops


def run_inprocess(args, work: Path) -> dict:
    goldens = check.load_goldens()
    if args.setup_probe:
        prepare(args, work, goldens)
        print("ready", flush=True)
        return {}
    setup_probes: list[float] = []
    setup_s = measure_setup(args, setup_probes) * host_scale(setup_probes)
    ops = prepare(args, work, goldens)
    limit_ms = limits()[args.workload]
    if not args.trace:
        probes: list[float] = []
        result = run_pass(ops, rounds_for(args.workload, args.seconds),
                          work, "u", goldens, probes=probes)
        metrics = e2e_metrics(result, setup_s, limit_ms,
                              host_scale(probes))
        return finish(metrics, E2E_UNITS, result["failed"], True)

    from tracing import Tracer

    tracer = Tracer()
    passes = []
    snaps = []
    for label in ("a", "u", "b"):
        traced = label != "u"
        if traced:
            tracer.reset()
            tracer.install()
        result = run_pass(ops, 1, work, label, goldens,
                          tracer if traced else None)
        if traced:
            tracer.uninstall()
            snaps.append(tracer.snapshot())
        passes.append(result)
    traced_s = [sum(passes[i]["latencies"][0]) for i in (0, 2)]
    plain_s = sum(passes[1]["latencies"][0])
    per_pass = [layer_metrics(s, t) for s, t in zip(snaps, traced_s)]
    metrics = {}
    for name in LAYER_UNITS:
        values = [p[name] for p in per_pass]
        metrics[name] = (
            values[0] if LAYER_UNITS[name] in ("count", "bytes")
            else statistics.fmean(values)
        )
    metrics["trace.overhead_pct"] = (
        100.0 * (statistics.fmean(traced_s) - plain_s) / plain_s
    )
    differ = [
        f"{n} {snaps[0]['counts'].get(n, 0)} != "
        f"{snaps[1]['counts'].get(n, 0)}"
        for n in EXACT
        if snaps[0]["counts"].get(n, 0) != snaps[1]["counts"].get(n, 0)
    ]
    if differ:
        print("exact counters differ between traced passes: "
              + ", ".join(differ), file=sys.stderr)
    failed = [f for p in passes for f in p["failed"]]
    return finish(metrics, LAYER_UNITS, failed, not differ)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cold-run", "sweep", "serve-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.workload == "serve-mix":
            import serve_mix

            result = serve_mix.run(args, work)
        else:
            result = run_inprocess(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    if not args.setup_probe:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
