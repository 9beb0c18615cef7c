"""One cache path for every batch (``repro.core.sweep.cached_batch``).

Every batch of run payloads — ``submit_many``, ``run_sweep``, the
optimizer's beam and setpoint probes, ``map_runs`` at any ``jobs`` —
keys, probes and stores each distinct payload once, in the calling
process, and reports which input positions the cache answered. Counted
here by wrapping ``cache_key``, ``key_digest``, ``ResultStore.get`` and
``WorkerPool`` construction.
"""

from __future__ import annotations

from collections import Counter

import pytest

import repro.core.sweep as sweep
from repro.api import OptimizeRequest, SimRequest, submit, submit_many
from repro.core.parallel import ExecutionReport, map_runs
from repro.core.store import ResultStore
from repro.core.sweep import SweepPoint, cached_run, lookup_memo, run_sweep
from repro.engine.simulator import SimSettings
from repro.optimize.setpoint import _ProbeRunner, settings_for_setpoint
from repro.serve import workers

BASE = dict(model="gpt3-13b", cluster="mi250x32", parallelism="TP4-PP2",
            global_batch_size=8)


def _grid(*setpoints) -> list[SimRequest]:
    return [
        SimRequest(governor="static", freq_setpoint=sp, **BASE)
        for sp in setpoints
    ]


def _payloads(*setpoints) -> list[tuple[str, dict]]:
    return [request.to_run_payload() for request in _grid(*setpoints)]


@pytest.fixture(autouse=True)
def _fresh_memo():
    sweep._CACHE.clear()
    yield
    sweep._CACHE.clear()


@pytest.fixture
def calls(monkeypatch):
    """Counts keys, digests, store reads (per digest) and pools."""
    tally = Counter()
    reads = Counter()
    for name in ("cache_key", "key_digest"):
        original = getattr(sweep, name)

        def counted(*args, _original=original, _name=name):
            tally[_name] += 1
            return _original(*args)

        monkeypatch.setattr(sweep, name, counted)
    real_get = ResultStore.get

    def get(self, digest):
        tally["get"] += 1
        reads[digest] += 1
        return real_get(self, digest)

    monkeypatch.setattr(ResultStore, "get", get)
    real_init = workers.WorkerPool.__init__

    def init(self, *args, **kwargs):
        tally["pools"] += 1
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(workers.WorkerPool, "__init__", init)
    tally.reads = reads
    return tally


def _store_then_forget(payloads) -> None:
    """Put each payload in the store, then empty the memo."""
    for kind, kwargs in payloads:
        cached_run(kind, **kwargs)
    sweep._CACHE.clear()


class TestOneKeyOneProbe:
    def test_submit_many_grid(self, calls):
        grid = _grid(0.8, 0.9, 1.0)
        submit_many(grid, jobs=1)
        assert (calls["cache_key"], calls["key_digest"], calls["get"]) \
            == (3, 3, 3)
        calls.clear()
        # All memo hits; a repeated request costs only the key that
        # finds it is a repeat.
        submit_many(grid + grid[:1], jobs=1)
        assert (calls["cache_key"], calls["key_digest"], calls["get"]) \
            == (4, 3, 0)

    def test_run_sweep(self, calls):
        points = [SweepPoint("gpt3-13b", "mi250x32", "TP4-PP2"),
                  SweepPoint("gpt3-13b", "mi250x32", "TP8-PP1")]
        run_sweep(points, global_batch_size=8)
        assert (calls["cache_key"], calls["key_digest"], calls["get"]) \
            == (2, 2, 2)

    def test_pooled_map_runs(self, calls):
        payloads = _payloads(0.8, 0.9)
        report = ExecutionReport()
        map_runs(payloads, 2, report)
        assert (calls["cache_key"], calls["key_digest"], calls["get"],
                calls["pools"]) == (2, 2, 2, 1)
        assert report.cached == []

    def test_search_reads_each_payload_from_the_store_once(self, calls):
        request = OptimizeRequest(
            model="gpt3-13b", cluster="mi250x32", global_batch_size=8,
            microbatch_sizes=(1, 2), schedules=("1f1b", "zb-h1"),
            beam_width=2, refine_top=1, setpoint_tolerance=0.1,
        )
        result = submit(request)
        assert calls["get"] == len(calls.reads)
        assert max(calls.reads.values()) == 1
        # The whole search plus each probe that was not already in the
        # memo (the refiner's setpoint 1.0 is the beam's probe).
        assert calls["get"] <= result.probes_total + 1


class TestPooledBatches:
    def test_all_stored_batch_starts_no_process(self, calls):
        payloads = _payloads(0.8, 0.9, 1.0)
        _store_then_forget(payloads)
        calls.clear()
        report = ExecutionReport()
        results = map_runs(payloads, 2, report)
        assert calls["pools"] == 0
        assert report.cached == [0, 1, 2]
        assert all(lookup_memo(*p) is r for p, r in zip(payloads, results))

    def test_only_misses_go_to_the_pool(self, calls):
        payloads = _payloads(0.8, 0.9, 1.0)
        _store_then_forget(payloads[:1])
        calls.clear()
        report = ExecutionReport()
        map_runs(payloads, 2, report)
        assert calls["pools"] == 1
        assert report.cached == [0]

    def test_fallback_reports_input_positions(self, monkeypatch):
        def no_processes(self, *args, **kwargs):
            raise OSError("no processes here")

        monkeypatch.setattr(workers.WorkerPool, "__init__", no_processes)
        payloads = _payloads(0.8, 0.9, 1.0)
        _store_then_forget(payloads[:1])
        report = ExecutionReport()
        map_runs(payloads, 2, report)
        assert report.cached == [0]
        assert report.fell_back == [1, 2]


class TestCachedPositions:
    def test_duplicates_count_only_if_stored_before_the_call(self):
        a, b = _payloads(0.8, 0.9)
        report = ExecutionReport()
        results = map_runs([a, a], 1, report)
        assert report.cached == [] and results[0] is results[1]
        _store_then_forget([a])
        report = ExecutionReport()
        map_runs([a, b, a], 1, report)
        assert report.cached == [0, 2]

    def test_submit_many_reports_request_positions(self):
        grid = _grid(0.8, 0.9)
        _store_then_forget([grid[1].to_run_payload()])
        results = submit_many([grid[0], grid[1], grid[1]])
        assert results.report.cached == [1, 2]


def test_pooled_probe_runner_seeds_the_memo():
    kwargs = dict(BASE, iterations=2)
    runner = _ProbeRunner(kwargs, SimSettings(), jobs=2)
    runner.ensure([1.0, 0.9])
    for setpoint in (1.0, 0.9):
        probe = dict(kwargs, settings=settings_for_setpoint(SimSettings(),
                                                            setpoint))
        assert lookup_memo("train", probe) is runner.results[setpoint]
    assert (runner.probes_total, runner.probes_cached) == (2, 0)


def test_submit_many_runs_a_search_in_process():
    # The grid path runs misses with the same runner table as
    # ``cached_run``, which knows the "optimize" kind.
    request = OptimizeRequest(
        model="gpt3-13b", cluster="mi250x32", global_batch_size=8,
        microbatch_sizes=(1,), parallelisms=("TP4-PP2",),
        schedules=("1f1b",), beam_width=1, refine_top=1,
    )
    [result] = submit_many([request])
    assert result is submit(request)
