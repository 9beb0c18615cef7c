"""serve-mix: open-loop HTTP traffic against ``repro serve --workers 2``.

The server runs in its own process (``server.py``), with a fresh
``REPRO_CACHE_DIR``. The hot set is requested once before timing (so
its repeats are hits); then the seeded rounds are sent back to back at a
fixed rate over two keep-alive connections. A request is timed from when
it was due, so a stalled connection delays the requests queued behind
it; how late the generator sent each request is reported separately.
Each slot of a round has one latency per round; the latency quantiles
are taken over the slots' medians.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from time import perf_counter

import check
import specs
from metrics import (
    E2E_UNITS, LAYER_UNITS, PROBE_GAP_S, ROUND_SECONDS, SELF_LAYERS,
    SETUP_PROBE_REPEATS, SETUP_SAMPLES, finish, hd_quantile, host_scale,
    limits, per_op_medians, probe, quantile,
)

HERE = Path(__file__).resolve().parent
CONNECTIONS = 2
WORKERS = 2
BROKER_COUNTERS = ("hits", "misses", "deduped", "errors_total",
                   "retries_total", "respawns_total", "degraded_total")


class Server:
    """One ``server.py`` process and a client connection to it."""

    def __init__(self, work: Path, label: str, trace: bool) -> None:
        self.cache = work / f"cache-{label}"
        self.dump = str(work / f"trace-{label}.json") if trace else None
        self.log = open(work / f"server-{label}.log", "w")
        command = [sys.executable, str(HERE / "server.py")]
        if self.dump:
            command += ["--trace-dump", self.dump]
        env = dict(os.environ, REPRO_CACHE_DIR=str(self.cache),
                   PYTHONUNBUFFERED="1")
        self.started = perf_counter()
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self.log, text=True,
            env=env, cwd=HERE.parent,
        )
        try:
            self.address = self._wait_ready()
        except BaseException:
            self.stop()
            raise
        self.ready = perf_counter()

    def _wait_ready(self) -> tuple[str, int]:
        line = self.proc.stdout.readline()
        if "serving on http://" not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        host, port = line.split("http://")[1].split()[0].split(":")
        address = (host, int(port))
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            status = self.get("/v1/status", address)
            if status.get("pool", {}).get("workers") == WORKERS:
                return address
            time.sleep(0.005)
        raise RuntimeError("worker pool never came up")

    def get(self, path: str, address=None) -> dict:
        host, port = address or self.address
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            body = response.read()
            if response.status != 200:
                return {}
            return json.loads(body)
        finally:
            conn.close()

    def _children(self) -> list[int]:
        """PIDs of the server's child processes (its pool workers)."""
        pids = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[1]) == self.proc.pid:
                pids.append(int(entry))
        return pids

    def rss_mb(self) -> float:
        """Sum of peak RSS of the server and its worker processes."""
        total_kb = 0
        for pid in [self.proc.pid] + self._children():
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def signal_trace(self, signum) -> None:
        self.proc.send_signal(signum)

    def stop(self) -> None:
        """Shut the server down; kill it and any worker it left behind
        if it does not exit in time."""
        workers = self._children() if self.proc.poll() is None else []
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        for pid in workers:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.stdout.close()
        self.log.close()


def _post(conn, path: str, body: str):
    conn.request("POST", path, body=body,
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, response.read()


def drive(address, stream, rate: float, probes: list):
    """Open loop: request i is due at start + i/rate; each connection
    takes the next request as soon as it is free. Meanwhile the main
    thread times the host-speed probe every ``PROBE_GAP_S``."""
    bodies = [(path, specs.to_wire(spec)) for path, spec in stream]
    results = [None] * len(bodies)
    lock = threading.Lock()
    cursor = [0]
    start = perf_counter() + 0.05

    def client():
        conn = http.client.HTTPConnection(*address, timeout=120)
        try:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(bodies):
                    return
                due = start + index / rate
                delay = due - perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = perf_counter()
                try:
                    status, data = _post(conn, *bodies[index])
                except (OSError, http.client.HTTPException) as error:
                    status, data = None, str(error).encode()
                    conn.close()
                    conn = http.client.HTTPConnection(*address,
                                                      timeout=120)
                results[index] = (due, sent, perf_counter(), status, data)
        finally:
            conn.close()

    threads = [threading.Thread(target=client, daemon=True)
               for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + 170
    while (any(thread.is_alive() for thread in threads)
           and time.monotonic() < deadline):
        probe(probes)
        time.sleep(PROBE_GAP_S)
    for thread in threads:
        thread.join(timeout=max(0.0, deadline - time.monotonic()))
    return start, results


def verify(stream, results, entries: dict) -> list[bool]:
    """Per request: failed? (non-200, degraded, or wrong answer)."""
    failed = []
    for (path, spec), outcome in zip(stream, results):
        bad = outcome is None or outcome[3] != 200
        if not bad:
            body = json.loads(outcome[4])
            golden = entries.get(specs.key(spec))
            bad = (
                body.get("status") != "ok" or body.get("degraded")
                or golden is None
                or check.digest_wire(body["result"]) != golden["digest"]
            )
        failed.append(bad)
    return failed


def one_pass(work: Path, label: str, hot, rounds, rate, entries,
             trace: bool, probes: list) -> dict:
    """Start a server, warm its hot set, then send each round in turn."""
    server = Server(work, label, trace)
    try:
        conn = http.client.HTTPConnection(*server.address, timeout=120)
        try:
            for path, spec in hot:
                status, _ = _post(conn, path, specs.to_wire(spec))
                if status != 200:
                    raise RuntimeError(f"warm-up request failed: {status}")
        finally:
            conn.close()
        before = server.get("/v1/metrics")
        if trace:
            server.signal_trace(signal.SIGUSR1)
            time.sleep(0.2)
        results = []
        wall = 0.0
        for stream in rounds:
            start, done = drive(server.address, stream, rate, probes)
            results += done
            wall += max(r[2] for r in done if r is not None) - start
        if trace:
            server.signal_trace(signal.SIGUSR2)
            deadline = time.monotonic() + 30
            while not os.path.exists(server.dump):
                if time.monotonic() > deadline:
                    raise RuntimeError("traced server wrote no snapshot")
                time.sleep(0.02)
        after = server.get("/v1/metrics")
        rss = server.rss_mb()
    finally:
        server.stop()
    snap = None
    if trace:
        with open(server.dump) as handle:
            snap = json.load(handle)
    broker = {k: after.get(k, 0) - before.get(k, 0) for k in BROKER_COUNTERS}
    stream = [entry for one in rounds for entry in one]
    return {"wall": wall, "results": results, "rss": rss,
            "broker": broker, "snap": snap,
            "failed": verify(stream, results, entries)}


def measure_setup(work: Path, probes: list) -> float:
    """Median time from a fresh server interpreter to a ready pool; a
    probe block is timed into ``probes`` before each and after the
    last."""
    samples = []
    for index in range(SETUP_SAMPLES):
        probe(probes, SETUP_PROBE_REPEATS)
        server = Server(work, f"setup{index}", False)
        server.stop()
        samples.append(server.ready - server.started)
    probe(probes, SETUP_PROBE_REPEATS)
    return statistics.median(samples)


def e2e(result: dict, setup_s: float, limit_ms: float, entries: dict,
        stream, hot, scale: float) -> dict:
    """End-to-end numbers; latencies at reference speed (``scale``;
    ``setup_s`` comes scaled by its own probe). The rates are set by the
    open loop's schedule, so they are reported as measured."""
    lat_ms = [
        (r[2] - r[0]) * 1000.0 if r is not None else float("inf")
        for r in result["results"]
    ]
    ok = [not f for f in result["failed"]]
    wall = result["wall"]
    hot_keys = {specs.key(s) for _, s in hot}
    simulated = set()
    events = 0
    for (path, spec), good in zip(stream, ok):
        k = specs.key(spec)
        if good and k not in hot_keys and k not in simulated:
            simulated.add(k)
            events += entries[k].get("events", 0)
    size = specs.SERVE_ROUND
    slots = per_op_medians(
        [lat_ms[i:i + size] for i in range(0, len(lat_ms), size)]
    )
    finite = [x for x in slots if x != float("inf")]
    return {
        "setup_s": setup_s,
        "peak_rss_mb": result["rss"],
        "latency_p50_ms": hd_quantile(finite, 0.50) * scale,
        "latency_p90_ms": hd_quantile(finite, 0.90) * scale,
        "sim_events_per_s": events / wall,
        "configs_per_s": sum(ok) / wall,
        "slo_attainment": sum(
            1 for x, good in zip(lat_ms, ok)
            if good and x * scale <= limit_ms
        ) / len(lat_ms),
    }


def layers(result: dict) -> dict:
    """Per-layer numbers: server spans plus client-side timings."""
    snap = result["snap"]
    layer_ns, span_ns, counts = (snap["layer_ns"], snap["span_ns"],
                                 snap["counts"])
    out = {name: 0.0 for name in LAYER_UNITS}
    for name in LAYER_UNITS:
        if name in counts:
            out[name] = counts[name]
    for layer in SELF_LAYERS:
        out[f"{layer}.self_ms"] = layer_ns.get(layer, 0) / 1e6
    for key, value in result["broker"].items():
        out[f"serve.broker.{key}"] = value
    out["core.store.put_ms"] = span_ns.get("ResultStore.put", 0) / 1e6
    out["core.store.get_ms"] = span_ns.get("ResultStore.get", 0) / 1e6
    out["optimize.prune_ms"] = span_ns.get("prune", 0) / 1e6
    out["optimize.rank_ms"] = span_ns.get("rank", 0) / 1e6
    done = [r for r in result["results"] if r is not None]
    client_ms = sum(r[2] - r[1] for r in done) * 1000.0
    lag_ms = [(r[1] - r[0]) * 1000.0 for r in done]
    post_ms = span_ns.get("do_POST", 0) / 1e6
    out["serve.workers.miss_ms"] = span_ns.get("WorkerPool.run", 0) / 1e6
    out["serve.http.handler_ms"] = layer_ns.get("serve.http", 0) / 1e6
    out["serve.http.wire_ms"] = client_ms - post_ms
    out["serve.http.self_ms"] = (
        client_ms - span_ns.get("Broker.submit", 0) / 1e6
        - span_ns.get("SimResponse.to_dict", 0) / 1e6
    )
    out["loadgen.sent"] = len(done)
    out["loadgen.lag_ms_p99"] = quantile(lag_ms, 0.99)
    total_ms = client_ms + sum(lag_ms)
    attributed_ms = (
        sum(layer_ns.values()) / 1e6 + out["serve.http.wire_ms"]
        + sum(lag_ms)
    )
    out["trace.unattributed_share"] = 1.0 - attributed_ms / total_ms
    return out


def run(args, work: Path) -> dict:
    goldens = check.load_goldens()
    entries = goldens["entries"]
    cells = goldens["cells"]
    # The rate is fixed; --seconds sets the number of rounds.
    rate = specs.SERVE_ROUND / ROUND_SECONDS["serve-mix"]
    rounds = min(specs.SERVE_MAX_ROUNDS,
                 max(1, round(args.seconds / ROUND_SECONDS["serve-mix"])))
    if args.trace:
        rounds = 1
    hot, round_streams = specs.serve_mix_stream(
        cells["cold"], cells["serving"], cells["optimize"], entries,
        args.seed, rounds,
    )
    stream = [entry for one in round_streams for entry in one]
    if args.setup_probe:
        return {}
    setup_probes: list[float] = []
    setup_s = measure_setup(work, setup_probes) * host_scale(setup_probes)
    probes: list[float] = []
    limit_ms = limits()["serve-mix"]
    if not args.trace:
        result = one_pass(work, "u", hot, round_streams, rate, entries,
                          False, probes)
        metrics = e2e(result, setup_s, limit_ms, entries, stream, hot,
                      host_scale(probes))
        return finish(metrics, E2E_UNITS, result["failed"], True)
    plain = one_pass(work, "u", hot, round_streams, rate, entries, False,
                     probes)
    traced = one_pass(work, "t", hot, round_streams, rate, entries, True,
                      probes)
    metrics = layers(traced)
    # Open-loop request-time sums swing with queueing; compare medians.
    medians = [
        statistics.median(
            (r[2] - r[0]) for r in p["results"] if r is not None
        )
        for p in (plain, traced)
    ]
    metrics["trace.overhead_pct"] = 100.0 * (medians[1] / medians[0] - 1.0)
    return finish(metrics, LAYER_UNITS,
                  plain["failed"] + traced["failed"], True)
