"""Broker semantics: cache, dedup, backpressure, deadlines, crashes.

Fast paths use injected runners (counting/blocking/failing callables) so
admission control is tested without real simulations; the pooled
sections use real worker processes against catalog workloads to prove
the kill-on-timeout and crash-isolation behaviour end to end.
"""

import asyncio

import pytest

from repro.api import SimRequest, submit
from repro.chaos import hooks
from repro.serve import Broker, BrokerConfig, SimResponse
from tests.conftest import assert_run_results_equal

REQUEST = SimRequest(
    kind="training",
    model="gpt3-13b",
    cluster="mi250x32",
    parallelism="TP4-PP2",
    global_batch_size=8,
)


@pytest.fixture(autouse=True)
def _fresh_memo():
    """The in-process memo is process-global; isolate it per test."""
    import repro.core.sweep as sweep_mod

    sweep_mod._CACHE.clear()
    yield
    sweep_mod._CACHE.clear()


def run_async(coroutine_fn, *args, **kwargs):
    """Run an async test body in a fresh event loop."""
    return asyncio.run(coroutine_fn(*args, **kwargs))


def counting_runner(calls, result="result"):
    def runner(request, timeout_s):
        calls.append(request.digest())
        return result

    return runner


class TestConfig:
    def test_rejects_bad_concurrency(self):
        with pytest.raises(ValueError, match="concurrency"):
            BrokerConfig(concurrency=0)

    def test_rejects_negative_queue(self):
        with pytest.raises(ValueError, match="queue_limit"):
            BrokerConfig(queue_limit=-1)


class TestCachePath:
    def test_miss_then_hit(self):
        async def scenario():
            calls = []
            broker = Broker(
                BrokerConfig(use_processes=False),
                runner=counting_runner(calls),
            )
            first = await broker.submit(REQUEST)
            second = await broker.submit(REQUEST)
            return broker, calls, first, second

        broker, calls, first, second = run_async(scenario)
        assert first.ok and not first.cached
        assert second.ok and second.cached
        assert len(calls) == 1
        assert broker.metrics.hits == 1
        assert broker.metrics.misses == 1

    def test_cache_disabled_always_executes(self):
        async def scenario():
            calls = []
            broker = Broker(
                BrokerConfig(cache=False, use_processes=False),
                runner=counting_runner(calls),
            )
            await broker.submit(REQUEST)
            await broker.submit(REQUEST)
            return calls

        assert len(run_async(scenario)) == 2

    def test_rejects_non_request(self):
        async def scenario():
            broker = Broker(BrokerConfig(use_processes=False))
            with pytest.raises(TypeError):
                await broker.submit("not a request")

        run_async(scenario)


class TestDedup:
    def test_identical_concurrent_requests_execute_once(self):
        async def scenario():
            calls = []
            release = asyncio.Event()
            loop = asyncio.get_running_loop()

            def slow_runner(request, timeout_s):
                calls.append(request.digest())
                # Hold the slot until every duplicate has queued behind
                # the in-flight future.
                asyncio.run_coroutine_threadsafe(
                    release.wait(), loop
                ).result(timeout=10)
                return "result"

            broker = Broker(
                BrokerConfig(cache=False, concurrency=4),
                runner=slow_runner,
            )
            tasks = [
                asyncio.ensure_future(broker.submit(REQUEST))
                for _ in range(4)
            ]
            while not calls:
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.05)  # let duplicates reach dedup
            release.set()
            responses = await asyncio.gather(*tasks)
            return broker, calls, responses

        broker, calls, responses = run_async(scenario)
        assert len(calls) == 1  # execution counter: exactly once
        assert all(r.ok for r in responses)
        assert sum(r.deduped for r in responses) == 3
        assert broker.metrics.deduped == 3
        assert broker.metrics.misses == 1

    def test_distinct_requests_all_execute(self):
        async def scenario():
            calls = []
            broker = Broker(
                BrokerConfig(cache=False, use_processes=False),
                runner=counting_runner(calls),
            )
            requests = [
                SimRequest(
                    kind="training",
                    model="gpt3-13b",
                    cluster="mi250x32",
                    parallelism="TP4-PP2",
                    global_batch_size=8,
                    microbatch_size=mb,
                )
                for mb in (1, 2)
            ]
            await asyncio.gather(*(broker.submit(r) for r in requests))
            return calls

        assert len(set(run_async(scenario))) == 2


class TestBackpressure:
    def test_queue_full_rejects(self):
        async def scenario():
            release = asyncio.Event()
            loop = asyncio.get_running_loop()

            def blocking_runner(request, timeout_s):
                asyncio.run_coroutine_threadsafe(
                    release.wait(), loop
                ).result(timeout=10)
                return "result"

            broker = Broker(
                BrokerConfig(
                    cache=False, concurrency=1, queue_limit=1,
                    retry_after_s=2.5,
                ),
                runner=blocking_runner,
            )
            requests = [
                SimRequest(
                    kind="training",
                    model="gpt3-13b",
                    cluster="mi250x32",
                    parallelism="TP4-PP2",
                    global_batch_size=8,
                    microbatch_size=mb,
                )
                for mb in (1, 2, 4)
            ]
            # One executing + one waiting fills capacity; the third
            # distinct request must be rejected, not queued.
            tasks = [
                asyncio.ensure_future(broker.submit(r))
                for r in requests[:2]
            ]
            while broker.status_dict()["executing"] < 1:
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.05)
            rejected = await broker.submit(requests[2])
            release.set()
            accepted = await asyncio.gather(*tasks)
            return broker, accepted, rejected

        broker, accepted, rejected = run_async(scenario)
        assert rejected.status == "rejected"
        assert not rejected.ok
        assert rejected.retry_after_s == 2.5
        assert "queue full" in rejected.error
        assert all(r.ok for r in accepted)
        assert broker.metrics.rejected == 1
        # Rejection is not terminal: capacity freed, the broker serves.
        followup = run_async(
            lambda: Broker(
                BrokerConfig(use_processes=False)
            ).submit(REQUEST)
        )
        assert followup.ok


class TestFailures:
    def test_runner_exception_is_structured_error(self):
        async def scenario():
            def failing_runner(request, timeout_s):
                raise RuntimeError("synthetic failure")

            broker = Broker(
                BrokerConfig(cache=False), runner=failing_runner
            )
            first = await broker.submit(REQUEST)
            # The broker survives: swap in a good runner path via a
            # second broker call on the same instance.
            broker._runner = lambda request, timeout_s: "recovered"
            second = await broker.submit(REQUEST)
            return first, second

        first, second = run_async(scenario)
        assert first.status == "error"
        assert "RuntimeError" in first.error
        assert "synthetic failure" in first.error
        assert second.ok

    def test_error_counts_in_metrics(self):
        async def scenario():
            broker = Broker(
                BrokerConfig(cache=False),
                runner=lambda request, timeout_s: (_ for _ in ()).throw(
                    ValueError("boom")
                ),
            )
            await broker.submit(REQUEST)
            return broker.metrics.to_dict()

        metrics = run_async(scenario)
        assert metrics["errors"] == 1
        assert metrics["requests"] == 1


class TestSupervisedExecution:
    """Real child processes: deadline kills and crash isolation."""

    def test_timeout_kills_child_and_reports(self):
        async def scenario():
            broker = Broker(BrokerConfig(cache=False))
            slow = SimRequest(
                kind="training",
                model="gpt3-13b",
                cluster="mi250x32",
                parallelism="TP4-PP2",
                global_batch_size=8,
                timeout_s=0.001,
            )
            response = await broker.submit(slow)
            return broker, response

        broker, response = run_async(scenario)
        assert response.status == "timeout"
        assert "deadline" in response.error
        assert broker.metrics.timeouts == 1

    def test_sigkilled_worker_is_structured_error(self):
        def kill_every_dispatch(site, context):
            # The delay holds each task in its worker until the kill
            # lands, so no attempt can answer first.
            if site == "pool.dispatch":
                return {"kill": True, "delay_s": 30.0}
            return None

        async def scenario():
            broker = Broker(BrokerConfig(cache=False))
            try:
                with hooks.installed(kill_every_dispatch):
                    first = await broker.submit(REQUEST)
                # Broker keeps serving after the crash.
                second = await broker.submit(REQUEST)
            finally:
                broker.close()
            return first, second

        first, second = run_async(scenario)
        assert first.status == "error"
        assert "WorkerCrashError" in first.error
        assert second.ok
        assert_run_results_equal(second.result, submit(REQUEST, cache=False))

    def test_supervised_result_equals_direct_submit(self):
        async def scenario():
            broker = Broker(BrokerConfig(cache=False))
            return await broker.submit(REQUEST)

        response = run_async(scenario)
        assert response.ok
        assert_run_results_equal(
            response.result, submit(REQUEST, cache=False)
        )

    def test_supervised_run_seeds_shared_cache(self):
        async def scenario():
            broker = Broker(BrokerConfig())
            first = await broker.submit(REQUEST)
            second = await broker.submit(REQUEST)
            return first, second

        first, second = run_async(scenario)
        assert first.ok and not first.cached
        assert second.ok and second.cached


class TestResponses:
    def test_to_dict_is_json_shaped(self):
        async def scenario():
            broker = Broker(BrokerConfig(use_processes=False))
            return await broker.submit(REQUEST)

        import json

        response = run_async(scenario)
        data = response.to_dict()
        assert json.dumps(data)  # serialisable
        assert data["status"] == "ok"
        assert data["digest"] == REQUEST.digest()
        assert data["result"]["model"] == "gpt3-13b"

    def test_metrics_dict_shape(self):
        async def scenario():
            broker = Broker(BrokerConfig(use_processes=False))
            await broker.submit(REQUEST)
            await broker.submit(REQUEST)
            return broker.metrics_dict(), broker.status_dict()

        metrics, status = run_async(scenario)
        assert metrics["requests"] == 2
        assert metrics["hit_rate"] == 0.5
        assert metrics["latency_p99_s"] >= metrics["latency_p50_s"] >= 0
        assert status["status"] == "ok"
        assert status["queue_depth"] == 0

    def test_response_is_frozen(self):
        response = SimResponse(status="ok", request=REQUEST)
        import dataclasses

        with pytest.raises(dataclasses.FrozenInstanceError):
            response.status = "error"
