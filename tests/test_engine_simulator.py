"""Tests for the discrete-event simulator."""

import heapq
import weakref

import pytest

from repro.core.experiment import prepare_run
from repro.core.faults import FaultEvent, FaultKind, FaultTimeline
from repro.engine.batched import _RecordingSimulator
from repro.engine.builder import build_training_graph
from repro.engine.gcpause import gc_paused
from repro.engine.kernels import KernelCategory, KernelKind
from repro.engine.simulator import (
    CommMemos,
    DeadlockError,
    SimSettings,
    Simulator,
    simulate,
)
from repro.engine.task import (
    ComputeSpec,
    P2PSpec,
    Task,
    TaskGraph,
    TaskKind,
)
from repro.parallelism.mapping import DeviceMesh
from repro.parallelism.strategy import OptimizationConfig, ParallelismConfig
from repro.powerctl import static_setpoint


def _run(model, cluster, settings, iterations=2, opts=None, **cfg):
    mesh = DeviceMesh(cluster=cluster, config=ParallelismConfig(**cfg))
    graph = build_training_graph(
        model=model,
        mesh=mesh,
        microbatch_size=1,
        global_batch_size=8,
        opts=opts or OptimizationConfig(),
        iterations=iterations,
    )
    return simulate(mesh, graph, settings)


class TestBasicExecution:
    def test_completes_and_orders_iterations(
        self, tiny_model, small_cluster, fast_settings
    ):
        outcome = _run(tiny_model, small_cluster, fast_settings,
                       tp=2, pp=2, dp=2)
        assert outcome.makespan_s > 0
        assert outcome.iteration_end_s[0] < outcome.iteration_end_s[1]
        assert outcome.iteration_end_s[-1] == pytest.approx(
            outcome.makespan_s
        )

    def test_deterministic(self, tiny_model, small_cluster, fast_settings):
        first = _run(tiny_model, small_cluster, fast_settings,
                     tp=2, pp=2, dp=2)
        second = _run(tiny_model, small_cluster, fast_settings,
                      tp=2, pp=2, dp=2)
        assert first.makespan_s == second.makespan_s
        assert len(first.records) == len(second.records)

    def test_records_cover_all_gpus(
        self, tiny_model, small_cluster, fast_settings
    ):
        outcome = _run(tiny_model, small_cluster, fast_settings,
                       tp=2, pp=2, dp=2)
        assert {r.gpu for r in outcome.records} == set(range(8))

    def test_kernel_records_have_positive_spans(
        self, tiny_model, small_cluster, fast_settings
    ):
        outcome = _run(tiny_model, small_cluster, fast_settings,
                       tp=2, pp=2, dp=2)
        assert all(r.end_s >= r.start_s for r in outcome.records)

    def test_compute_and_comm_categories_present(
        self, tiny_model, small_cluster, fast_settings
    ):
        outcome = _run(tiny_model, small_cluster, fast_settings,
                       tp=2, pp=2, dp=2)
        categories = {r.category for r in outcome.records}
        assert KernelCategory.COMPUTE in categories
        assert KernelCategory.ALLREDUCE in categories
        assert KernelCategory.SENDRECV in categories

    def test_telemetry_sampled(self, tiny_model, small_cluster,
                               fast_settings):
        outcome = _run(tiny_model, small_cluster, fast_settings,
                       tp=2, pp=2, dp=2)
        series = outcome.telemetry.series(0)
        assert len(series.times_s) > 2
        assert series.power_w.max() > small_cluster.node.gpu.idle_watts

    def test_traffic_accumulated(self, tiny_model, small_cluster,
                                 fast_settings):
        outcome = _run(tiny_model, small_cluster, fast_settings,
                       tp=2, pp=2, dp=2)
        assert outcome.traffic.total_for(0) > 0

    def test_single_gpu_norank_comm(self, tiny_model,
                                    single_node_cluster, fast_settings):
        outcome = _run(tiny_model, single_node_cluster, fast_settings,
                       tp=4, pp=1, dp=1)
        kinds = {r.kind for r in outcome.records}
        assert KernelKind.PP_SEND not in kinds
        assert KernelKind.DP_ALLREDUCE not in kinds


class TestPhysicsCoupling:
    def test_rear_gpus_hotter(self, tiny_model, small_cluster,
                              fast_settings):
        outcome = _run(tiny_model, small_cluster, fast_settings,
                       tp=2, pp=2, dp=2)
        temps = [
            outcome.telemetry.series(g).temp_c.mean() for g in range(4)
        ]
        # GPUs 2,3 sit behind 0,1 in the small-node airflow.
        assert (temps[2] + temps[3]) / 2 > (temps[0] + temps[1]) / 2

    def test_prewarm_starts_hot(self, tiny_model, small_cluster):
        warm = SimSettings(
            physics_dt_s=0.01, telemetry_interval_s=0.02,
            thermal_prewarm=True,
        )
        cold = SimSettings(
            physics_dt_s=0.01, telemetry_interval_s=0.02,
            thermal_prewarm=False,
        )
        hot_run = _run(tiny_model, small_cluster, warm, tp=2, pp=2, dp=2)
        cold_run = _run(tiny_model, small_cluster, cold, tp=2, pp=2, dp=2)
        hot_start = hot_run.telemetry.series(0).temp_c[0]
        cold_start = cold_run.telemetry.series(0).temp_c[0]
        assert hot_start > cold_start + 10

    def test_throttle_stats_shape(self, tiny_model, small_cluster,
                                  fast_settings):
        outcome = _run(tiny_model, small_cluster, fast_settings,
                       tp=2, pp=2, dp=2)
        assert len(outcome.throttle_ratio) == 8
        assert len(outcome.mean_freq_ratio) == 8
        assert all(0 <= r <= 1 for r in outcome.throttle_ratio)


class TestOptimizationEffects:
    def test_recompute_increases_compute_time(
        self, tiny_model, small_cluster, fast_settings
    ):
        base = _run(tiny_model, small_cluster, fast_settings,
                    tp=2, pp=2, dp=2)
        act = _run(
            tiny_model, small_cluster, fast_settings,
            opts=OptimizationConfig(activation_recompute=True),
            tp=2, pp=2, dp=2,
        )

        def compute_time(outcome):
            return sum(
                r.duration_s
                for r in outcome.records
                if r.category is KernelCategory.COMPUTE
            )

        assert compute_time(act) > compute_time(base) * 1.2

    def test_dp_bucket_overlap_emits_both_kernel_records(
        self, tiny_model, small_cluster, fast_settings
    ):
        """Overlapped DP gradient buckets produce a comm record and a
        compute record sharing a start time on each participant."""
        cc = _run(
            tiny_model, small_cluster, fast_settings,
            opts=OptimizationConfig(cc_overlap=True),
            tp=2, pp=2, dp=2,
        )
        starts = {}
        for record in cc.records:
            starts.setdefault((record.gpu, record.start_s), set()).add(
                record.kind
            )
        fused = [
            kinds
            for kinds in starts.values()
            if KernelKind.GRAD_REDUCE_SCATTER in kinds
            and KernelKind.BWD_GEMM in kinds
        ]
        assert fused


class TestDeadlockDetection:
    def test_unmatched_recv_raises(self, small_cluster, fast_settings):
        config = ParallelismConfig(tp=1, pp=1, dp=8)
        mesh = DeviceMesh(cluster=small_cluster, config=config)
        orphan_recv = Task(
            uid=0,
            kind=TaskKind.RECV,
            kernel=KernelKind.PP_RECV,
            ranks=(0,),
            p2p=P2PSpec(src=1, dst=0, payload_bytes=1.0, chunked=True,
                        message_id=999),
        )
        filler = [
            [
                Task(
                    uid=10 + r,
                    kind=TaskKind.COMPUTE,
                    kernel=KernelKind.FWD_GEMM,
                    ranks=(r,),
                    compute=ComputeSpec(flops=1e9),
                )
            ]
            for r in range(8)
        ]
        filler[0].insert(0, orphan_recv)
        graph = TaskGraph(
            queues=filler, num_iterations=1, tokens_per_iteration=1
        )
        with pytest.raises(DeadlockError):
            Simulator(mesh, graph, fast_settings).run()

    def test_graph_cluster_mismatch(self, tiny_model, small_cluster,
                                    single_node_cluster, fast_settings):
        mesh8 = DeviceMesh(
            cluster=small_cluster, config=ParallelismConfig(tp=2, pp=2, dp=2)
        )
        graph = build_training_graph(
            model=tiny_model, mesh=mesh8, microbatch_size=1,
            global_batch_size=8, opts=OptimizationConfig(),
        )
        mesh4 = DeviceMesh(
            cluster=single_node_cluster,
            config=ParallelismConfig(tp=2, pp=2, dp=1),
        )
        with pytest.raises(ValueError):
            Simulator(mesh4, graph, fast_settings)


class TestStragglerFeedback:
    def test_placement_changes_outcome(
        self, tiny_model, small_cluster, fast_settings
    ):
        """Swapping hot/cold GPU placement must change the simulation —
        the thermal feedback is live, not cosmetic."""
        config = ParallelismConfig(tp=2, pp=2, dp=2)
        mesh = DeviceMesh(cluster=small_cluster, config=config)
        graph = build_training_graph(
            model=tiny_model, mesh=mesh, microbatch_size=1,
            global_batch_size=8, opts=OptimizationConfig(), iterations=2,
        )
        base = simulate(mesh, graph, fast_settings)
        permuted_mesh = mesh.with_placement([2, 3, 0, 1, 6, 7, 4, 5])
        permuted = simulate(permuted_mesh, graph, fast_settings)
        assert base.makespan_s != permuted.makespan_s or (
            base.telemetry.series(0).temp_c.mean()
            != permuted.telemetry.series(0).temp_c.mean()
        )


class TestRunLifetime:
    def test_finished_run_is_freed_without_gc(
        self, tiny_model, small_cluster, fast_settings, monkeypatch
    ):
        """A finished simulator holds no reference cycle, so it (and the
        graph and memos it holds) dies by refcount, not at some later
        cyclic collection."""
        refs = []
        real_run = Simulator.run

        def run(self):
            refs.append(weakref.ref(self))
            return real_run(self)

        monkeypatch.setattr(Simulator, "run", run)
        with gc_paused():
            outcome = _run(tiny_model, small_cluster, fast_settings,
                           tp=2, pp=2, dp=2)
            assert len(refs) == 1
            assert refs[0]() is None
        assert len(outcome.records) > 0


#: Cells for the recorder guard: (prepare_run overrides, settings).
_DISPATCH_CELLS = {
    "moe-alltoall": (
        dict(model="mixtral-4x7b", parallelism="EP4-TP2-PP2"),
        SimSettings(),
    ),
    "cc-overlap": (
        dict(optimizations=OptimizationConfig(cc_overlap=True)),
        SimSettings(),
    ),
    "gpu-failstop": (
        {},
        SimSettings(fault_timeline=FaultTimeline(events=(FaultEvent(
            kind=FaultKind.GPU_FAILSTOP, node=3, time_s=0.5,
            duration_s=1.0,
        ),))),
    ),
    "static-governor": (
        {}, SimSettings(power_control=static_setpoint(0.75)),
    ),
}


class TestRecordingDispatch:
    """The batched replay's anchor logs pops through the handler table;
    it must run the very loop a plain simulator runs."""

    @pytest.mark.parametrize("cell", sorted(_DISPATCH_CELLS))
    def test_recorder_equals_plain_run(self, cell, monkeypatch):
        overrides, settings = _DISPATCH_CELLS[cell]
        kwargs = dict(
            model="gpt3-13b", cluster="mi250x32", parallelism="TP4-PP2",
            microbatch_size=1, global_batch_size=8, iterations=2,
        )
        kwargs.update(overrides)
        run = prepare_run(**kwargs)
        plain = Simulator(run.mesh, run.graph, settings).run()

        pops = []
        real_pop = heapq.heappop

        def counting_pop(heap):
            pops.append(1)
            return real_pop(heap)

        recorder = _RecordingSimulator(run.mesh, run.graph, settings)
        with monkeypatch.context() as patch:
            patch.setattr(heapq, "heappop", counting_pop)
            recorded = recorder.run()

        assert len(recorder.pop_log) == len(pops) > 0
        assert recorded.records == plain.records
        assert recorded.telemetry == plain.telemetry
        assert recorded.traffic == plain.traffic
        assert recorded.power_control == plain.power_control
        assert recorded.fault_trace == plain.fault_trace
        assert recorded == plain
        if cell == "static-governor":
            assert plain.power_control is not None
        if cell == "gpu-failstop":
            assert plain.fault_trace is not None


#: Cells for the shared-memo check: (prepare_run overrides, settings of
#: the run that reuses the anchor's memos). A link fault scales the
#: bandwidth share that comm-cost keys carry.
_MEMO_CELLS = {
    "moe-alltoall": _DISPATCH_CELLS["moe-alltoall"],
    "cc-overlap": _DISPATCH_CELLS["cc-overlap"],
    "link-degrade": (
        {},
        SimSettings(fault_timeline=FaultTimeline(events=(FaultEvent(
            kind=FaultKind.LINK_DEGRADE, node=1, time_s=5.0,
            duration_s=4.0,
        ),))),
    ),
}


class TestSharedMemos:
    """Runs of one mesh may share their communication memos: each run
    equals a fresh one, field by field."""

    @pytest.mark.parametrize("cell", sorted(_MEMO_CELLS))
    def test_shared_memos_equal_fresh_runs(self, cell):
        overrides, settings = _MEMO_CELLS[cell]
        kwargs = dict(
            model="gpt3-13b", cluster="mi250x32", parallelism="TP4-PP2",
            microbatch_size=1, global_batch_size=8, iterations=2,
        )
        kwargs.update(overrides)
        run = prepare_run(**kwargs)
        anchor_settings = SimSettings(power_control=static_setpoint(0.75))

        memos = CommMemos()
        anchor = Simulator(run.mesh, run.graph, anchor_settings, memos).run()
        filled = dict(memos.comm)
        shared = Simulator(run.mesh, run.graph, settings, memos).run()

        assert filled
        assert all(memos.comm[key] is cost for key, cost in filled.items())
        assert anchor == Simulator(run.mesh, run.graph, anchor_settings).run()
        assert shared == Simulator(run.mesh, run.graph, settings).run()
        if cell == "link-degrade":
            assert shared.fault_trace is not None
            assert set(memos.comm) - set(filled)  # scaled-share keys
