"""Broker self-healing: the pool's crash budget, degraded answers.

Most paths use injected runners (scripted crash/success sequences) so
the degraded state machine is tested without real simulations; the
crash-budget and client-error tests run a broker shaped like ``repro
serve`` over a real worker pool; the deadline-header test speaks real
HTTP against a ``BrokerServer`` with an in-process runner.
"""

import asyncio
import dataclasses
import json
import urllib.error
import urllib.request

import pytest

from repro.api import SimRequest
from repro.chaos import hooks
from repro.cli import _serve_config, build_parser
from repro.core.parallel import (
    PayloadError,
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.core.results import RunResult
from repro.serve import Broker, BrokerConfig, BrokerServer
from repro.serve.workers import _TASK_ATTEMPTS

REQUEST = SimRequest(
    kind="training",
    model="gpt3-13b",
    cluster="mi250x32",
    parallelism="TP4-PP2",
    global_batch_size=8,
)

#: Requests that pass validation but raise when simulated: the global
#: batch does not divide evenly across the plan's data-parallel ranks.
BAD_BATCHES = (3, 5, 7, 9, 11)


def serve_config(*flags):
    """The config ``repro serve`` deploys with these flags, on 2
    workers."""
    args = build_parser().parse_args(["serve", "--workers", "2", *flags])
    return _serve_config(args)


def kill_dispatches(count, seen):
    """A chaos handler killing the first ``count`` pool dispatches (each
    held in its worker so the kill lands mid-task), recording every
    dispatch ordinal in ``seen``."""

    def handler(site, context):
        if site != "pool.dispatch":
            return None
        seen.append(context["dispatch"])
        if context["dispatch"] < count:
            return {"kill": True, "delay_s": 30.0}
        return None

    return handler


@pytest.fixture(autouse=True)
def _fresh_memo():
    import repro.core.sweep as sweep_mod

    sweep_mod._CACHE.clear()
    yield
    sweep_mod._CACHE.clear()


@pytest.fixture(autouse=True)
def _no_chaos_handler():
    hooks.uninstall()
    yield
    hooks.uninstall()


def run_async(coroutine_fn, *args, **kwargs):
    return asyncio.run(coroutine_fn(*args, **kwargs))


def scripted_runner(outcomes):
    """A runner that pops one outcome per call: an exception instance
    (raised) or a plain value (returned)."""
    calls = []

    def runner(request, timeout_s):
        calls.append(timeout_s)
        outcome = outcomes.pop(0) if outcomes else "fallthrough"
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    runner.calls = calls
    return runner


class TestCrashRetries:
    def test_crashes_are_retried_until_success(self):
        seen = []

        async def scenario():
            broker = Broker(serve_config())
            try:
                with hooks.installed(
                    kill_dispatches(_TASK_ATTEMPTS - 1, seen)
                ):
                    response = await broker.submit(REQUEST)
                return response, broker.metrics_dict()
            finally:
                broker.close()

        response, metrics = run_async(scenario)
        assert response.ok and not response.degraded
        assert seen == list(range(_TASK_ATTEMPTS))
        assert metrics["retries_total"] == _TASK_ATTEMPTS - 1
        assert metrics["respawns_total"] == _TASK_ATTEMPTS - 1
        assert metrics["errors_total"] == 0

    def test_exhausted_budget_is_a_structured_error(self):
        seen = []

        async def scenario():
            broker = Broker(serve_config("--no-degraded"))
            try:
                with hooks.installed(kill_dispatches(99, seen)):
                    response = await broker.submit(REQUEST)
                return response, broker.metrics_dict()
            finally:
                broker.close()

        response, metrics = run_async(scenario)
        assert response.status == "error"
        assert "WorkerCrashError" in response.error
        # The pool's one budget, no more: the broker never retries.
        assert seen == list(range(_TASK_ATTEMPTS))
        assert metrics["retries_total"] == _TASK_ATTEMPTS - 1
        assert metrics["errors_total"] == 1

    def test_payload_errors_are_never_retried(self):
        async def scenario():
            runner = scripted_runner([PayloadError("deterministic bug")])
            broker = Broker(BrokerConfig(use_processes=False),
                            runner=runner)
            response = await broker.submit(REQUEST)
            return runner, response

        runner, response = run_async(scenario)
        assert response.status == "error"
        assert len(runner.calls) == 1

    def test_retries_off_by_default(self):
        async def scenario():
            runner = scripted_runner([WorkerCrashError("boom"), "v"])
            broker = Broker(
                BrokerConfig(use_processes=False), runner=runner
            )
            response = await broker.submit(REQUEST)
            return runner, response

        runner, response = run_async(scenario)
        assert response.status == "error"  # the broker never retries
        assert len(runner.calls) == 1


class TestClientErrors:
    """A request that fails on its own gets ``error`` and changes
    nothing for the next client, in pool and inline mode alike."""

    @pytest.mark.parametrize("flags", [(), ("--inline",)],
                             ids=["pool", "inline"])
    def test_failing_requests_leave_valid_ones_simulated(self, flags):
        async def scenario():
            broker = Broker(serve_config(*flags))
            try:
                bad = [
                    await broker.submit(dataclasses.replace(
                        REQUEST, global_batch_size=batch
                    ))
                    for batch in BAD_BATCHES
                ]
                good = await broker.submit(REQUEST)
                return bad, good, broker.metrics_dict()
            finally:
                broker.close()

        bad, good, metrics = run_async(scenario)
        for response in bad:
            assert response.status == "error", response
            assert not response.degraded
            assert "global batch must divide evenly" in response.error
        assert good.status == "ok" and not good.degraded
        assert not good.cached
        assert isinstance(good.result, RunResult)  # simulated, not estimated
        assert metrics["errors_total"] == len(BAD_BATCHES)
        assert metrics["degraded_total"] == 0

class TestDegradedMode:
    def test_stale_cache_answer_after_failure(self):
        async def scenario():
            runner = scripted_runner(
                ["v1", WorkerCrashError("down"), WorkerCrashError("down")]
            )
            broker = Broker(
                BrokerConfig(
                    use_processes=False, cache=False, degraded=True
                ),
                runner=runner,
            )
            good = await broker.submit(REQUEST)
            degraded = await broker.submit(REQUEST)
            return broker, good, degraded

        broker, good, degraded = run_async(scenario)
        assert good.ok and not good.degraded
        assert degraded.ok
        assert degraded.degraded
        assert degraded.degraded_source == "stale-cache"
        assert degraded.result == "v1"
        assert degraded.cached
        assert "down" in degraded.error
        assert broker.metrics.degraded == 1
        assert broker.metrics_dict()["degraded_total"] == 1

    def test_analytic_answer_when_nothing_cached(self):
        async def scenario():
            runner = scripted_runner([WorkerCrashError("down")] * 3)
            broker = Broker(
                BrokerConfig(
                    use_processes=False, cache=False, degraded=True
                ),
                runner=runner,
            )
            return await broker.submit(REQUEST)

        response = run_async(scenario)
        assert response.ok and response.degraded
        assert response.degraded_source == "analytic"
        body = response.to_dict()
        assert body["degraded"] is True
        assert body["result"]["analytic"] is True
        assert body["result"]["model"] == "gpt3-13b"
        assert body["result"]["tokens_per_s"] > 0

    @pytest.mark.parametrize("limit_w", [250.0, 300.0, 400.0, 500.0])
    def test_analytic_answer_respects_power_limit(self, limit_w):
        from repro.serve.degraded import analytic_estimate

        capped = dataclasses.replace(
            REQUEST, cluster="h100x64", power_limit_w=limit_w
        )
        estimate = analytic_estimate(capped)
        uncapped = analytic_estimate(
            dataclasses.replace(REQUEST, cluster="h100x64")
        )
        assert estimate["power_w"] <= estimate["gpus"] * limit_w
        assert estimate["step_time_s"] > uncapped["step_time_s"]

    def test_timeouts_degrade_too(self):
        async def scenario():
            runner = scripted_runner([WorkerTimeoutError("too slow")])
            broker = Broker(
                BrokerConfig(
                    use_processes=False, cache=False, degraded=True
                ),
                runner=runner,
            )
            response = await broker.submit(REQUEST)
            return broker, response

        broker, response = run_async(scenario)
        assert response.ok and response.degraded
        assert broker.metrics.timeouts == 1
        assert broker.metrics.degraded == 1

    def test_payload_errors_do_not_degrade(self):
        async def scenario():
            runner = scripted_runner(
                ["v1", PayloadError("bug"), PayloadError("bug")]
            )
            broker = Broker(
                BrokerConfig(
                    use_processes=False, cache=False, degraded=True
                ),
                runner=runner,
            )
            await broker.submit(REQUEST)  # seeds the last-good LRU
            return await broker.submit(REQUEST)

        response = run_async(scenario)
        assert response.status == "error"  # deterministic: surface it
        assert not response.degraded

    def test_degraded_off_by_default(self):
        async def scenario():
            runner = scripted_runner([WorkerCrashError("down")])
            broker = Broker(
                BrokerConfig(use_processes=False, cache=False),
                runner=runner,
            )
            return await broker.submit(REQUEST)

        response = run_async(scenario)
        assert response.status == "error"
        assert not response.degraded


class TestMetricsSurface:
    def test_totals_always_present_without_breaker_key(self):
        broker = Broker(BrokerConfig(use_processes=False))
        data = broker.metrics_dict()
        for key in ("errors_total", "retries_total", "respawns_total",
                    "degraded_total"):
            assert key in data, key
        assert "breaker" not in data
        assert "breaker" not in broker.status_dict()

    def test_pool_counters_roll_up(self):
        class FakePool:
            def stats(self):
                return {"retries": 4, "respawns": 2}

            def close(self):
                pass

        broker = Broker(BrokerConfig(use_processes=False))
        broker.pool = FakePool()
        data = broker.metrics_dict()
        assert data["retries_total"] == 4
        assert data["respawns_total"] == 2

    def test_pool_mode_surface_carries_no_breaker(self):
        async def scenario():
            broker = Broker(serve_config())
            try:
                return broker.metrics_dict(), broker.status_dict()
            finally:
                broker.close()

        metrics, status = run_async(scenario)
        for key in ("errors_total", "retries_total", "respawns_total",
                    "degraded_total"):
            assert metrics[key] == 0, key
        for body in (metrics, status):
            assert "breaker" not in body
            assert "breakers" not in body["pool"]


class TestDeadlineHeader:
    def test_header_sets_the_request_timeout(self):
        seen = []

        def runner(request, timeout_s):
            seen.append((request.timeout_s, timeout_s))
            return "v"

        with BrokerServer(
            BrokerConfig(use_processes=False, cache=False),
            port=0, runner=runner,
        ) as server:
            body = REQUEST.to_json().encode()
            http_request = urllib.request.Request(
                f"http://{server.address}/v1/simulate",
                data=body,
                headers={
                    "Content-Type": "application/json",
                    "X-Repro-Deadline-S": "7.5",
                },
                method="POST",
            )
            with urllib.request.urlopen(http_request, timeout=30) as reply:
                payload = json.load(reply)
        assert payload["status"] == "ok"
        assert len(seen) == 1
        request_timeout, budget = seen[0]
        assert request_timeout == 7.5
        # The runner receives the deadline's remaining budget.
        assert budget == pytest.approx(7.5, abs=0.5)

    def test_body_timeout_wins_over_header(self):
        seen = []

        def runner(request, timeout_s):
            seen.append(timeout_s)
            return "v"

        with BrokerServer(
            BrokerConfig(use_processes=False, cache=False),
            port=0, runner=runner,
        ) as server:
            body = json.dumps(
                {**REQUEST.to_dict(), "timeout_s": 3.0}
            ).encode()
            http_request = urllib.request.Request(
                f"http://{server.address}/v1/simulate",
                data=body,
                headers={
                    "Content-Type": "application/json",
                    "X-Repro-Deadline-S": "9.0",
                },
                method="POST",
            )
            with urllib.request.urlopen(http_request, timeout=30) as reply:
                json.load(reply)
        assert seen[0] == pytest.approx(3.0, abs=0.5)

    def test_bad_header_is_a_400(self):
        with BrokerServer(
            BrokerConfig(use_processes=False), port=0
        ) as server:
            http_request = urllib.request.Request(
                f"http://{server.address}/v1/simulate",
                data=REQUEST.to_json().encode(),
                headers={
                    "Content-Type": "application/json",
                    "X-Repro-Deadline-S": "soon",
                },
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(http_request, timeout=30)
            assert excinfo.value.code == 400
