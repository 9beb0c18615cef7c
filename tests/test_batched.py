"""Batched grid evaluation: exactness, routing, pool mechanics, SLO.

The batched engine's contract is bitwise: whatever path a grid takes
through :func:`repro.engine.batched.evaluate_grid` — anchored replay,
certificate-failure fallback, or plain per-config runs — every field of
every result must equal the serial run. The hypothesis section samples
random small grids on two clusters to enforce that; the deterministic
sections prove the replay fast path actually engages (a parity
test that silently fell back would be vacuous), and the pool/broker
sections cover work-stealing, worker-death respawn, and SLO admission.
"""

import os
import signal
import time

import pytest
from hypothesis import HealthCheck, example, given, settings as hyp_settings
from hypothesis import strategies as st

from repro.core.experiment import execute_inference, execute_training
from repro.core.store import persistence_disabled
from repro.engine.batched import evaluate_grid
from repro.engine.simulator import SimSettings
from repro.optimize import settings_for_setpoint
from tests.conftest import assert_run_results_equal, lane_tally

MODEL = "gpt3-13b"
CLUSTER = "mi250x32"
CLUSTERS = ["mi250x32", "h200x32"]
PARALLELISM = "TP4-PP2"


@pytest.fixture(autouse=True)
def _fresh_memo():
    """Cold every grid: the memo would hide batched/serial divergence."""
    import repro.core.sweep as sweep_mod

    sweep_mod._CACHE.clear()
    yield
    sweep_mod._CACHE.clear()


def _train_kwargs(setpoint, microbatch, cluster=CLUSTER):
    return dict(
        model=MODEL,
        cluster=cluster,
        parallelism=PARALLELISM,
        microbatch_size=microbatch,
        global_batch_size=8,
        iterations=2,
        settings=settings_for_setpoint(SimSettings(), setpoint),
    )


class TestBatchedEqualsSerial:
    """evaluate_grid must be bitwise-indistinguishable from serial."""

    @hyp_settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        setpoints=st.lists(
            st.sampled_from([1.0, 0.9, 0.825, 0.75, 0.6]),
            min_size=2,
            max_size=3,
            unique=True,
        ),
        microbatch=st.sampled_from([1, 2]),
        cluster=st.sampled_from(CLUSTERS),
    )
    # A lane whose last full physics step came early must hold its
    # thermal state while longer lanes keep stepping; here the 0.9 lane
    # used to cool before its final partial step.
    @example(setpoints=[0.6, 0.75, 0.9], microbatch=1, cluster="h200x32")
    def test_training_grid_parity(self, setpoints, microbatch, cluster):
        import repro.core.sweep as sweep_mod

        payloads = [
            ("train", _train_kwargs(s, microbatch, cluster))
            for s in setpoints
        ]
        with persistence_disabled(), lane_tally(min_replay_lanes=1):
            sweep_mod._CACHE.clear()
            batched = evaluate_grid(payloads, cache=False)
            serial = [
                execute_training(**kwargs) for _, kwargs in payloads
            ]
        for got, want in zip(batched, serial):
            assert_run_results_equal(got, want)

    @hyp_settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        setpoints=st.lists(
            st.sampled_from([1.0, 0.875, 0.7]),
            min_size=2,
            max_size=2,
            unique=True,
        ),
    )
    def test_inference_grid_parity(self, setpoints):
        import repro.core.sweep as sweep_mod

        payloads = [
            (
                "infer",
                dict(
                    model=MODEL,
                    cluster=CLUSTER,
                    parallelism="TP4-PP2",
                    microbatch_size=1,
                    global_batch_size=8,
                    settings=settings_for_setpoint(SimSettings(), s),
                ),
            )
            for s in setpoints
        ]
        with persistence_disabled(), lane_tally(min_replay_lanes=1):
            sweep_mod._CACHE.clear()
            batched = evaluate_grid(payloads, cache=False)
            serial = [
                execute_inference(**kwargs) for _, kwargs in payloads
            ]
        for got, want in zip(batched, serial):
            assert_run_results_equal(got, want)

    def test_fast_path_grid_actually_batches(self, monkeypatch):
        """The parity tests above are vacuous if no lane replays.

        On a known-good grid (capped setpoints) the anchor runs once
        and every other config is reconstructed from the vector
        replay: no non-anchor member may run serially.
        """
        import repro.engine.batched as batched_mod

        reconstructed = []
        real_reconstruct = batched_mod._ReplayOutput.reconstruct

        def counting_reconstruct(self, *args, **kwargs):
            reconstructed.append(1)
            return real_reconstruct(self, *args, **kwargs)

        monkeypatch.setattr(
            batched_mod._ReplayOutput, "reconstruct",
            counting_reconstruct,
        )
        payloads = [
            ("train", _train_kwargs(s, 1))
            for s in (0.9, 0.85, 0.8)
        ]
        with persistence_disabled(), lane_tally(min_replay_lanes=1) as tally:
            results = evaluate_grid(payloads, cache=False)
        assert len(results) == 3
        assert tally.serial == {}  # no serial lane
        assert tally.replayed == 2
        assert len(reconstructed) == 2  # anchor + 2 replayed lanes

    def test_grid_dedup_shares_results(self):
        payloads = [
            ("train", _train_kwargs(0.9, 1)),
            ("train", _train_kwargs(0.8, 1)),
            ("train", _train_kwargs(0.9, 1)),
        ]
        with persistence_disabled():
            results = evaluate_grid(payloads, cache=False)
        assert results[0] is results[2]
        assert results[0] is not results[1]


class TestLaneRouting:
    """Which members replay and which run serially on the shared graph.

    Members below the lane threshold, and lanes a certificate or a
    diverged replay rejects, run as plain simulations on the group's
    graph and memos; each is tallied with its reason and every result
    still equals the serial run.
    """

    @hyp_settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        setpoints=st.lists(
            st.sampled_from([1.0, 0.9, 0.825, 0.75, 0.7, 0.6]),
            min_size=1,
            max_size=6,
            unique=True,
        ),
        cluster=st.sampled_from(CLUSTERS),
    )
    # Serial lanes below the threshold, replayed lanes, and a throttling
    # lane the clock certificate rejects.
    @example(setpoints=[0.9, 0.8], cluster="mi250x32")
    @example(setpoints=[0.6, 0.75, 0.9, 0.825, 0.7], cluster="mi250x32")
    @example(setpoints=[0.6, 0.75, 0.9, 1.0], cluster="h200x32")
    def test_default_threshold_grid_equals_serial(self, setpoints, cluster):
        import repro.core.sweep as sweep_mod
        from repro.engine.batched import _MIN_REPLAY_LANES

        payloads = [("train", _train_kwargs(s, 1, cluster)) for s in setpoints]
        with persistence_disabled(), lane_tally() as tally:
            sweep_mod._CACHE.clear()
            batched = evaluate_grid(payloads, cache=False)
            serial = [execute_training(**kwargs) for _, kwargs in payloads]
        for got, want in zip(batched, serial):
            assert_run_results_equal(got, want)
        # Every member but the anchor is tallied exactly once.
        members = len(setpoints) - 1
        assert tally.replayed + sum(tally.serial.values()) == members
        if members < _MIN_REPLAY_LANES:
            assert tally.replayed == 0

    def test_three_point_grid_builds_one_graph(self, monkeypatch):
        """Below the threshold a grid builds its graph once and runs each
        member on it; nothing goes through the per-config path."""
        import repro.core.experiment as experiment_mod
        import repro.engine.batched as batched_mod
        from repro.engine.simulator import Simulator

        builds, runs, plain = [], [], []
        real_build = experiment_mod.build_training_graph
        real_run = Simulator.run
        monkeypatch.setattr(
            experiment_mod, "build_training_graph",
            lambda **kw: builds.append(1) or real_build(**kw),
        )
        monkeypatch.setattr(
            Simulator, "run", lambda self: runs.append(1) or real_run(self)
        )
        monkeypatch.setattr(
            batched_mod, "_plain_run", lambda *args: plain.append(args)
        )
        payloads = [("train", _train_kwargs(s, 1)) for s in (0.9, 0.85, 0.8)]
        with persistence_disabled(), lane_tally() as tally:
            results = evaluate_grid(payloads, cache=False)
        assert (len(builds), len(runs), plain) == (1, 3, [])
        assert tally.serial == {"below lane count": 2}
        assert tally.replayed == 0
        for got, (_, kwargs) in zip(results, payloads):
            assert_run_results_equal(got, execute_training(**kwargs))

    def test_session_refinement_reuses_graph(self, monkeypatch):
        import repro.core.experiment as experiment_mod
        from repro.engine.batched import SetpointSession

        builds = []
        real_build = experiment_mod.build_training_graph
        monkeypatch.setattr(
            experiment_mod, "build_training_graph",
            lambda **kw: builds.append(1) or real_build(**kw),
        )
        session = SetpointSession("train", lambda s: _train_kwargs(s, 1))
        with persistence_disabled(), lane_tally() as tally:
            first = session.evaluate([1.0, 0.9, 0.8], cache=False)
            refined = session.evaluate([0.85], cache=False)
        assert len(builds) == 1
        assert tally.serial == {"below lane count": 3}
        for setpoint, got in {**first, **refined}.items():
            assert_run_results_equal(
                got, execute_training(**_train_kwargs(setpoint, 1))
            )

    def test_throttling_lane_fails_the_clock_certificate(self):
        payloads = [
            ("train", _train_kwargs(s, 1, "h200x32")) for s in (0.8, 1.0)
        ]
        with persistence_disabled(), lane_tally(min_replay_lanes=1) as tally:
            got = evaluate_grid(payloads, cache=False)[1]
        assert tally.serial == {"clock": 1}
        assert_run_results_equal(
            got, execute_training(**_train_kwargs(1.0, 1, "h200x32"))
        )

    def test_diverged_replay_runs_every_lane_serially(self, monkeypatch):
        import repro.engine.batched as batched_mod

        def diverge(self):
            raise batched_mod._ReplayDiverged("forced")

        monkeypatch.setattr(batched_mod._VectorReplay, "run", diverge)
        payloads = [("train", _train_kwargs(s, 1)) for s in (0.9, 0.8, 0.7)]
        with persistence_disabled(), lane_tally(min_replay_lanes=1) as tally:
            results = evaluate_grid(payloads, cache=False)
        assert tally.serial == {"replay diverged": 2}
        for got, (_, kwargs) in zip(results, payloads):
            assert_run_results_equal(got, execute_training(**kwargs))


def _square(x):
    return x * x


def _slow_square(x):
    time.sleep(0.2)
    return x * x


def _suicide(_):
    os.kill(os.getpid(), signal.SIGKILL)


class TestWorkerPool:
    def test_work_stealing_rebalances_pinned_backlog(self):
        """Tasks piled onto one worker get stolen by the idle one."""
        from repro.serve.workers import WorkerPool

        with WorkerPool(2) as pool:
            wid = next(iter(pool._workers))
            futures = [
                pool.submit(_slow_square, i, target=wid)
                for i in range(6)
            ]
            values = [f.result(timeout=30.0) for f in futures]
        assert [v for _, v in values] == [i * i for i in range(6)]
        assert all(status == "ok" for status, _ in values)
        assert pool.stats()["steals"] >= 1

    def test_worker_death_respawns_and_pool_survives(self):
        from repro.core.parallel import WorkerCrashError
        from repro.serve.workers import WorkerPool

        with WorkerPool(1) as pool:
            future = pool.submit(_suicide, None)
            with pytest.raises(WorkerCrashError):
                future.result(timeout=30.0)
            # The replacement worker serves the next task normally.
            status, value = pool.submit(_square, 7).result(timeout=30.0)
            assert status == "ok" and value == 49
            assert pool.stats()["respawns"] >= 1

    def test_map_runs_real_payloads(self):
        from repro.core.parallel import ExecutionReport
        from repro.serve.workers import WorkerPool

        payloads = [
            ("train", _train_kwargs(setpoint, 1))
            for setpoint in (1.0, 0.9)
        ]
        report = ExecutionReport()
        with persistence_disabled():
            serial = [execute_training(**kw) for _, kw in payloads]
            with WorkerPool(2) as pool:
                pooled = pool.map(payloads, report)
        assert not report.crashed
        for got, want in zip(pooled, serial):
            assert_run_results_equal(got, want)


class TestBrokerSLO:
    def test_predicted_wait_over_slo_rejects_with_retry_after(self):
        import asyncio

        from repro.api import SimRequest
        from repro.serve import Broker, BrokerConfig

        async def scenario():
            release = asyncio.Event()
            loop = asyncio.get_running_loop()

            def blocking_runner(request, timeout_s):
                asyncio.run_coroutine_threadsafe(
                    release.wait(), loop
                ).result(timeout=10.0)
                return "done"

            broker = Broker(
                BrokerConfig(
                    cache=False,
                    concurrency=1,
                    queue_limit=8,
                    slo_target_s=0.05,
                    service_time_hint_s=2.0,
                ),
                runner=blocking_runner,
            )

            def request_for(batch):
                return SimRequest(
                    kind="training",
                    model=MODEL,
                    cluster=CLUSTER,
                    parallelism=PARALLELISM,
                    global_batch_size=batch,
                )

            first = asyncio.create_task(broker.submit(request_for(8)))
            second = asyncio.create_task(broker.submit(request_for(16)))
            for _ in range(20):
                await asyncio.sleep(0.01)
                if broker.queue_depth >= 1:
                    break
            assert broker.queue_depth >= 1

            # Predicted wait = 1 waiting x 2.0s hint >> 0.05s SLO.
            rejected = await broker.submit(request_for(32))
            assert rejected.status == "rejected"
            assert rejected.retry_after_s == pytest.approx(2.0)
            assert "SLO" in rejected.error

            release.set()
            ok_first, ok_second = await asyncio.gather(first, second)
            assert ok_first.status == "ok"
            assert ok_second.status == "ok"
            assert broker.metrics.rejected == 1

        asyncio.run(scenario())

    def test_no_slo_configured_never_slo_rejects(self):
        import asyncio

        from repro.api import SimRequest
        from repro.serve import Broker, BrokerConfig

        async def scenario():
            broker = Broker(
                BrokerConfig(
                    cache=False, concurrency=1, service_time_hint_s=9.0
                ),
                runner=lambda request, timeout_s: "ok",
            )
            response = await broker.submit(
                SimRequest(
                    kind="training",
                    model=MODEL,
                    cluster=CLUSTER,
                    parallelism=PARALLELISM,
                    global_batch_size=8,
                )
            )
            assert response.status == "ok"
            assert broker.metrics.rejected == 0

        asyncio.run(scenario())


class TestSubmitManyPool:
    def test_batch_result_carries_report(self):
        from repro.api import SimRequest, submit_many
        from repro.core.parallel import ExecutionReport

        requests = [
            SimRequest(
                kind="training",
                model=MODEL,
                cluster=CLUSTER,
                parallelism=PARALLELISM,
                global_batch_size=8,
            ),
        ]
        results = submit_many(requests)
        assert isinstance(results, list)
        assert isinstance(results.report, ExecutionReport)
        assert not results.report.crashed

    def test_jobs_share_one_pool(self, monkeypatch):
        """A jobs>1 batch must build exactly one WorkerPool."""
        import repro.serve.workers as workers_mod
        from repro.api import SimRequest, submit_many

        built = []
        real_pool = workers_mod.WorkerPool

        class CountingPool(real_pool):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(workers_mod, "WorkerPool", CountingPool)
        requests = [
            SimRequest(
                kind="training",
                model=MODEL,
                cluster=CLUSTER,
                parallelism=PARALLELISM,
                global_batch_size=batch,
            )
            for batch in (8, 16, 24)
        ]
        results = submit_many(requests, jobs=2)
        assert len(results) == 3
        assert len(built) == 1
        assert built[0][0] == 2  # min(jobs, len(payloads))
