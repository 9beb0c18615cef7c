"""Library fan-outs run on the worker pool and share its crash policy.

``map_runs`` / ``map_calls`` with ``jobs > 1`` (and so ``run_sweep``
and ``submit_many``) execute on a per-call
:class:`repro.serve.workers.WorkerPool`: the pool's chaos sites reach
them, a crashed-then-fallen-back index is reported as both retried and
fallen back, and a host that cannot start processes runs the batch
in-process.
"""

import multiprocessing

import pytest

import repro.core.parallel as parallel
from repro.api import SimRequest, submit_many
from repro.chaos import hooks
from repro.core.parallel import ExecutionReport, map_calls
from repro.core.sweep import clear_cache, run_sweep
from tests.conftest import assert_run_results_equal
from tests.test_chaos_pool import dispatch_script
from tests.test_parallel import POINTS


@pytest.fixture(autouse=True)
def _no_chaos_handler():
    hooks.uninstall()
    yield
    hooks.uninstall()


def test_crashed_then_fallen_back_index_is_reported_as_retried(
    monkeypatch, tmp_path
):
    requests = [
        SimRequest(kind="training", model="gpt3-13b", cluster="mi250x32",
                   parallelism="TP4-PP2", global_batch_size=batch)
        for batch in (8, 16)
    ]
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
    clear_cache()
    serial = submit_many(requests)

    def kill_every_dispatch_of_task_0(site, context):
        # The delay holds the task in its worker until the kill lands.
        if site == "pool.dispatch" and context["task"] == 0:
            return {"kill": True, "delay_s": 30.0}
        return None

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "pooled"))
    clear_cache()
    with hooks.installed(kill_every_dispatch_of_task_0):
        pooled = submit_many(requests, jobs=2)

    assert pooled.report.retried == pooled.report.fell_back == [0]
    assert "1 payload(s) retried" in pooled.report.describe()
    for got, want in zip(pooled, serial):
        assert_run_results_equal(got, want)


def test_library_sweep_is_reachable_by_pool_chaos_sites(
    monkeypatch, tmp_path
):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
    clear_cache()
    serial = run_sweep(POINTS, global_batch_size=16)

    reports = []
    real_map_runs = parallel.map_runs

    def recording_map_runs(payloads, jobs, report=None):
        reports.append(report)
        return real_map_runs(payloads, jobs, report)

    monkeypatch.setattr(parallel, "map_runs", recording_map_runs)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "pooled"))
    clear_cache()
    with hooks.installed(
        dispatch_script(d0={"kill": True, "delay_s": 30.0})
    ):
        pooled = run_sweep(POINTS, global_batch_size=16, jobs=2)

    assert list(pooled) == POINTS
    for point in POINTS:
        assert_run_results_equal(pooled[point], serial[point])
    [report] = reports
    assert report.retried
    assert report.fell_back == []


def test_host_that_cannot_start_processes_runs_in_process(monkeypatch):
    def refuse(self):
        raise OSError("process creation refused")

    monkeypatch.setattr(multiprocessing.get_context().Process, "start",
                        refuse)
    report = ExecutionReport()
    assert map_calls(abs, [-1, 2, -3], jobs=2, report=report) == [1, 2, 3]
    assert report.fell_back == [0, 1, 2]
    assert report.retried == []
