"""Broker self-healing: crash retries, breaker, degraded answers.

All fast paths use injected runners (scripted crash/success sequences)
so the retry/breaker/degraded state machines are tested without real
simulations; the deadline-header test speaks real HTTP against a
``BrokerServer`` with an in-process runner.
"""

import asyncio
import dataclasses
import json
import urllib.error
import urllib.request

import pytest

from repro.api import SimRequest
from repro.chaos import hooks
from repro.chaos.injection import FaultInjector, FaultPlan
from repro.core.parallel import (
    PayloadError,
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.serve import Broker, BrokerConfig, BrokerServer

REQUEST = SimRequest(
    kind="training",
    model="gpt3-13b",
    cluster="mi250x32",
    parallelism="TP4-PP2",
    global_batch_size=8,
)

#: Retries enabled, backoff fast enough for tests, no real processes.
HEALING = dict(
    use_processes=False,
    retry_attempts=3,
    retry_base_s=0.001,
    retry_cap_s=0.004,
)


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
        async def scenario():
            runner = scripted_runner([
                WorkerCrashError("boom"), WorkerCrashError("boom"), "v",
            ])
            broker = Broker(BrokerConfig(**HEALING), runner=runner)
            response = await broker.submit(REQUEST)
            return broker, runner, response

        broker, runner, response = run_async(scenario)
        assert response.ok and response.result == "v"
        assert len(runner.calls) == 3
        assert broker.metrics.retries == 2
        assert broker.metrics_dict()["retries_total"] == 2

    def test_exhausted_budget_is_a_structured_error(self):
        async def scenario():
            runner = scripted_runner([
                WorkerCrashError("boom")] * 5)
            broker = Broker(BrokerConfig(**HEALING), runner=runner)
            response = await broker.submit(REQUEST)
            return broker, runner, response

        broker, runner, response = run_async(scenario)
        assert response.status == "error"
        assert "WorkerCrashError" in response.error
        assert len(runner.calls) == 3  # the full budget, no more
        assert broker.metrics.errors == 1
        assert broker.metrics_dict()["errors_total"] == 1

    def test_payload_errors_are_never_retried(self):
        async def scenario():
            runner = scripted_runner([PayloadError("deterministic bug")])
            broker = Broker(BrokerConfig(**HEALING), runner=runner)
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
        assert response.status == "error"  # historical behaviour
        assert len(runner.calls) == 1

    def test_injected_execute_failures_exercise_the_retry_loop(self):
        async def scenario():
            runner = scripted_runner(["v", "v"])
            broker = Broker(BrokerConfig(**HEALING), runner=runner)
            injector = FaultInjector(
                FaultPlan(fail_execute_attempts=(0,)), seed=0
            )
            with hooks.installed(injector):
                response = await broker.submit(REQUEST)
            return broker, injector, response

        broker, injector, response = run_async(scenario)
        assert response.ok and response.result == "v"
        assert injector.injected()["broker.execute:fail"] == 1
        assert broker.metrics.retries == 1


class TestCircuitBreaker:
    def test_open_breaker_skips_execution(self):
        async def scenario():
            runner = scripted_runner([WorkerCrashError("boom")] * 9)
            broker = Broker(
                BrokerConfig(
                    use_processes=False, breaker_failures=1,
                    breaker_reset_s=60.0,
                ),
                runner=runner,
            )
            first = await broker.submit(REQUEST)
            second = await broker.submit(REQUEST)
            return broker, runner, first, second

        broker, runner, first, second = run_async(scenario)
        assert first.status == "error"
        assert second.status == "error"
        assert "circuit breaker open" in second.error
        assert len(runner.calls) == 1  # second never reached the runner
        assert broker.metrics.breaker_rejections == 1
        assert broker.status_dict()["breaker"] == "open"
        assert broker.metrics_dict()["breaker"]["broker"] == "open"

    def test_half_open_probe_closes_on_success(self):
        async def scenario():
            runner = scripted_runner([WorkerCrashError("boom"), "v"])
            broker = Broker(
                BrokerConfig(
                    use_processes=False, breaker_failures=1,
                    breaker_reset_s=0.02,
                ),
                runner=runner,
            )
            await broker.submit(REQUEST)
            await asyncio.sleep(0.05)
            probe = await broker.submit(
                dataclasses.replace(REQUEST, global_batch_size=16)
            )
            return broker, probe

        broker, probe = run_async(scenario)
        assert probe.ok and probe.result == "v"
        assert broker.breaker.state == "closed"

    def test_breaker_disabled_by_default(self):
        broker = Broker(BrokerConfig(use_processes=False))
        assert broker.breaker is None
        assert broker.status_dict()["breaker"] == "disabled"
        assert broker.metrics_dict()["breaker"]["broker"] == "disabled"


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
    def test_totals_and_breaker_always_present(self):
        broker = Broker(BrokerConfig(use_processes=False))
        data = broker.metrics_dict()
        for key in ("errors_total", "retries_total", "respawns_total",
                    "degraded_total", "breaker"):
            assert key in data, key
        assert data["breaker"] == {"broker": "disabled", "workers": {}}

    def test_pool_counters_roll_up(self):
        class FakePool:
            def stats(self):
                return {
                    "retries": 4, "respawns": 2, "breakers": {"0": "open"},
                }

            def close(self):
                pass

        broker = Broker(BrokerConfig(use_processes=False))
        broker.pool = FakePool()
        broker.metrics.retries = 1
        data = broker.metrics_dict()
        assert data["retries_total"] == 5
        assert data["respawns_total"] == 2
        assert data["breaker"]["workers"] == {"0": "open"}


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
