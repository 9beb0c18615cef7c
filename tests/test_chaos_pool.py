"""WorkerPool self-healing: crash retries, deadlines, hedges.

Faults are injected through the ``pool.dispatch`` / ``pool.result``
chaos hooks with scripted handlers (deterministic one-shot directives
rather than seeded rates), so each recovery path is exercised in
isolation: a SIGKILLed worker's task is redispatched with backoff, a
dropped answer is recovered, an expired queued task fails fast, and a
straggler is hedged.
"""

import threading
import time

import pytest

from repro.api import SimRequest
from repro.chaos import hooks
from repro.chaos.policies import RetryPolicy
from repro.core.parallel import (
    ExecutionReport,
    PayloadError,
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.core.sweep import cached_run
from repro.serve.workers import WorkerPool, serve_worker
from tests.conftest import assert_run_results_equal

REQUEST = SimRequest(
    kind="training",
    model="gpt3-13b",
    cluster="mi250x32",
    parallelism="TP4-PP2",
    global_batch_size=8,
)

PAYLOAD = REQUEST.to_run_payload()


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


def _sleep_echo(arg):
    """Picklable task: sleep then answer (kills land mid-sleep)."""
    delay_s, value = arg
    time.sleep(delay_s)
    return value


def dispatch_script(**directives_by_ordinal):
    """A chaos handler issuing directives for named dispatch ordinals,
    e.g. ``dispatch_script(d0={"kill": True})`` kills dispatch 0."""

    def handler(site, context):
        if site != "pool.dispatch":
            return None
        return directives_by_ordinal.get(f"d{context['dispatch']}")

    return handler


class TestCrashRetry:
    def test_killed_worker_task_is_redispatched(self):
        with WorkerPool(2) as pool:
            with hooks.installed(dispatch_script(d0={"kill": True})):
                future = pool.submit(_sleep_echo, (0.2, "answer"))
                assert future.result(timeout=30) == ("ok", "answer")
            assert pool.retries == 1
            assert pool.respawns == 1
            assert future.repro_retried is True

    def test_retry_budget_exhaustion_raises_crash_error(self):
        def kill_everything(site, context):
            return {"kill": True} if site == "pool.dispatch" else None

        with WorkerPool(2) as pool:
            with hooks.installed(kill_everything):
                future = pool.submit(_sleep_echo, (0.2, "never"))
                with pytest.raises(WorkerCrashError, match="attempt"):
                    future.result(timeout=30)

    def test_dropped_answer_is_recovered(self):
        drops = []

        def drop_first_answer(site, context):
            if site == "pool.result" and not drops:
                drops.append(context["task"])
                return {"drop": True}
            return None

        with WorkerPool(1) as pool:
            with hooks.installed(drop_first_answer):
                future = pool.submit(_sleep_echo, (0.0, "recovered"))
                assert future.result(timeout=30) == ("ok", "recovered")
            assert drops  # the fault actually fired
            assert pool.retries == 1
            assert pool.respawns == 0  # the worker itself never died

    def test_map_falls_back_in_process_when_pool_cannot_help(self):
        def kill_everything(site, context):
            # The delay holds each task in its worker until the kill
            # lands: the expected result is already memoised, so an
            # undelayed worker can answer between the send and the kill.
            if site == "pool.dispatch":
                return {"kill": True, "delay_s": 30.0}
            return None

        expected = cached_run(PAYLOAD[0], **PAYLOAD[1])
        report = ExecutionReport()
        with WorkerPool(1) as pool:
            with hooks.installed(kill_everything):
                results = pool.map([PAYLOAD], report)
        assert report.fell_back == [0]
        assert_run_results_equal(results[0], expected)


class TestDeadlines:
    def test_expired_queued_task_fails_without_dispatch(self):
        with WorkerPool(1) as pool:
            blocker = pool.submit(_sleep_echo, (0.6, "slow"))
            late = pool.submit(
                _sleep_echo, (0.0, "late"),
                deadline_at=time.monotonic() - 1.0,
            )
            with pytest.raises(WorkerTimeoutError,
                               match="expired while queued"):
                late.result(timeout=30)
            assert blocker.result(timeout=30) == ("ok", "slow")
            assert pool.expired == 1

    def test_run_kills_overdue_worker(self):
        with WorkerPool(1) as pool:
            with hooks.installed(
                dispatch_script(d0={"delay_s": 5.0})
            ):
                started = time.monotonic()
                with pytest.raises(WorkerTimeoutError, match="deadline"):
                    pool.run(PAYLOAD, timeout_s=0.3)
                assert time.monotonic() - started < 3.0


class TestHedging:
    def test_straggler_is_hedged_and_loses(self):
        expected = cached_run(PAYLOAD[0], **PAYLOAD[1])
        import repro.core.sweep as sweep_mod

        sweep_mod._CACHE.clear()
        with WorkerPool(2) as pool:
            with hooks.installed(
                dispatch_script(d0={"delay_s": 3.0})
            ):
                started = time.monotonic()
                result = pool.run(PAYLOAD, hedge_s=0.1)
                elapsed = time.monotonic() - started
        assert_run_results_equal(result, expected)
        assert elapsed < 3.0  # did not wait for the straggler
        assert pool.hedges == 1
        assert pool.hedge_wins == 1

    def test_no_hedge_when_primary_is_fast(self):
        with WorkerPool(2) as pool:
            pool.run(PAYLOAD, hedge_s=30.0)
            assert pool.hedges == 0
            assert pool.hedge_wins == 0


class TestPayloadFaults:
    def test_unpicklable_task_fails_without_burying_the_worker(self):
        with WorkerPool(1) as pool:
            bad = pool.submit(_sleep_echo, (0.0, lambda: None))
            with pytest.raises(PayloadError):
                bad.result(timeout=30)
            good = pool.submit(_sleep_echo, (0.0, "still alive"))
            assert good.result(timeout=30) == ("ok", "still alive")
            assert pool.respawns == 0


class TestRemoteDrop:
    def test_dropped_remote_connection_redistributes_the_task(self):
        events = []
        with WorkerPool(1, retry=RetryPolicy(
            attempts=3, base_s=0.01, cap_s=0.05,
        )) as pool:
            address = pool.listen(("127.0.0.1", 0), authkey=b"chaos")
            remote_thread = threading.Thread(
                target=serve_worker,
                args=(address, b"chaos"),
                kwargs={"on_event": events.append},
                daemon=True,
            )
            remote_thread.start()
            deadline = time.monotonic() + 10
            while (pool.stats()["remote_workers"] < 1
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert pool.stats()["remote_workers"] == 1
            remote_wid = next(
                w.wid for w in pool._workers.values() if w.remote
            )

            dropped = []

            def drop_remote(site, context):
                if site == "pool.dispatch" and context["remote"]:
                    dropped.append(context["task"])
                    return {"drop_conn": True}
                return None

            with hooks.installed(drop_remote):
                # Keep the local worker busy so the pinned task is
                # dispatched by the remote, not stolen back first.
                blocker = pool.submit(_sleep_echo, (0.8, "blocker"))
                future = pool.submit(
                    _sleep_echo, (0.2, "rerouted"), target=remote_wid
                )
                assert future.result(timeout=30) == ("ok", "rerouted")
                assert blocker.result(timeout=30) == ("ok", "blocker")
            assert dropped  # the TCP drop actually fired
            assert pool.retries >= 1
            assert pool.stats()["remote_workers"] == 0

    def test_drop_reaches_the_peer_after_a_local_respawn(self):
        # A local worker forked after the remote one connected holds a
        # copy of the remote socket; the drop must still reach the peer
        # while the pool stays open.
        events = []
        with WorkerPool(1, retry=RetryPolicy(
            attempts=3, base_s=0.01, cap_s=0.05,
        )) as pool:
            address = pool.listen(("127.0.0.1", 0), authkey=b"chaos")
            threading.Thread(
                target=serve_worker,
                args=(address, b"chaos"),
                kwargs={"reconnect": True, "on_event": events.append,
                        "retry": RetryPolicy(attempts=2, base_s=0.01,
                                             cap_s=0.05)},
                daemon=True,
            ).start()
            deadline = time.monotonic() + 10
            while (pool.stats()["remote_workers"] < 1
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert pool.stats()["remote_workers"] == 1
            local = next(w for w in pool._workers.values() if not w.remote)
            local.process.kill()
            deadline = time.monotonic() + 10
            while pool.respawns < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert pool.respawns == 1
            remote_wid = next(
                w.wid for w in pool._workers.values() if w.remote
            )

            def drop_remote(site, context):
                if site == "pool.dispatch" and context["remote"]:
                    return {"drop_conn": True}
                return None

            with hooks.installed(drop_remote):
                future = pool.submit(
                    _sleep_echo, (0.0, "rerouted"), target=remote_wid
                )
                assert future.result(timeout=30) == ("ok", "rerouted")
            deadline = time.monotonic() + 2.0
            while (not any(e["event"] == "disconnected" for e in events)
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert [e["event"] for e in events][:2] == [
                "connected", "disconnected",
            ]
