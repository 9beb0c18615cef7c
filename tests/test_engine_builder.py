"""Tests for the task-graph builder."""

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.engine.builder import (
    GraphBuilder,
    build_inference_graph,
    build_training_graph,
    split_layers,
)
from repro.engine.kernels import KernelKind
from repro.engine.task import (
    CollectiveOp,
    CollectiveSpec,
    ComputeSpec,
    Task,
    TaskGraph,
    TaskKind,
)
from repro.hardware.cluster import ClusterSpec, get_cluster
from repro.hardware.interconnect import INFINIBAND_100G
from repro.models.catalog import get_model
from repro.parallelism.mapping import DeviceMesh
from repro.parallelism.strategy import OptimizationConfig, ParallelismConfig
from tests.conftest import TINY_DENSE, TINY_MOE, small_node


def _mesh(cluster, **kwargs):
    return DeviceMesh(cluster=cluster, config=ParallelismConfig(**kwargs))


def _build(model, cluster, opts=None, mb=1, gb=8, iterations=1, **cfg):
    return build_training_graph(
        model=model,
        mesh=_mesh(cluster, **cfg),
        microbatch_size=mb,
        global_batch_size=gb,
        opts=opts or OptimizationConfig(),
        iterations=iterations,
    )


class TestSplitLayers:
    def test_even(self):
        assert split_layers(8, 4) == [2, 2, 2, 2]

    def test_remainder_to_early_stages(self):
        assert split_layers(10, 4) == [3, 3, 2, 2]

    def test_validation(self):
        with pytest.raises(ValueError):
            split_layers(2, 4)
        with pytest.raises(ValueError):
            split_layers(4, 0)


class TestGraphStructure:
    def test_every_rank_has_tasks(self, tiny_model, small_cluster):
        graph = _build(tiny_model, small_cluster, tp=2, pp=2, dp=2)
        assert graph.world_size == 8
        assert all(queue for queue in graph.queues)

    def test_collectives_consistent_across_ranks(
        self, tiny_model, small_cluster
    ):
        # TaskGraph.__post_init__ validates this; just build.
        _build(tiny_model, small_cluster, tp=2, pp=2, dp=2)

    def test_sends_and_recvs_pair_up(self, tiny_model, small_cluster):
        graph = _build(tiny_model, small_cluster, tp=1, pp=4, dp=2)
        sends, recvs = {}, {}
        for queue in graph.queues:
            for task in queue:
                if task.kind is TaskKind.SEND:
                    sends[task.p2p.message_id] = task
                elif task.kind is TaskKind.RECV:
                    recvs[task.p2p.message_id] = task
        assert set(sends) == set(recvs)
        for msg_id, send in sends.items():
            recv = recvs[msg_id]
            assert send.p2p.src == recv.p2p.src
            assert send.p2p.dst == recv.p2p.dst

    def test_no_p2p_without_pipeline(self, tiny_model, small_cluster):
        graph = _build(tiny_model, small_cluster, tp=4, pp=1, dp=2)
        kinds = {t.kind for q in graph.queues for t in q}
        assert TaskKind.SEND not in kinds
        assert TaskKind.RECV not in kinds

    def test_tp_allreduce_present_iff_tp(self, tiny_model, small_cluster):
        with_tp = _build(tiny_model, small_cluster, tp=2, pp=2, dp=2)
        without = _build(tiny_model, small_cluster, tp=1, pp=4, dp=2)
        kinds_with = {t.kernel for q in with_tp.queues for t in q}
        kinds_without = {t.kernel for q in without.queues for t in q}
        assert KernelKind.TP_ALLREDUCE in kinds_with
        assert KernelKind.TP_ALLREDUCE not in kinds_without

    def test_moe_gets_alltoall(self, tiny_moe, small_cluster):
        graph = _build(tiny_moe, small_cluster, tp=1, pp=2, dp=4, ep=4)
        kinds = {t.kernel for q in graph.queues for t in q}
        assert KernelKind.EP_ALLTOALL in kinds

    def test_dense_model_rejects_ep(self, tiny_model, small_cluster):
        with pytest.raises(ValueError):
            _build(tiny_model, small_cluster, tp=1, pp=2, dp=4, ep=4)

    def test_pp_payload_split_and_unchunked_under_tp(
        self, tiny_model, small_cluster
    ):
        tp1 = _build(tiny_model, small_cluster, tp=1, pp=4, dp=2)
        tp2 = _build(tiny_model, small_cluster, tp=2, pp=2, dp=2)
        send_tp1 = next(
            t for q in tp1.queues for t in q if t.kind is TaskKind.SEND
        )
        send_tp2 = next(
            t for q in tp2.queues for t in q if t.kind is TaskKind.SEND
        )
        assert send_tp1.p2p.chunked
        assert not send_tp2.p2p.chunked
        assert send_tp2.p2p.payload_bytes == pytest.approx(
            send_tp1.p2p.payload_bytes / 2
        )

    def test_iterations_multiply_tasks(self, tiny_model, small_cluster):
        one = _build(tiny_model, small_cluster, iterations=1, tp=2, pp=2,
                     dp=2)
        two = _build(tiny_model, small_cluster, iterations=2, tp=2, pp=2,
                     dp=2)
        assert two.total_tasks == 2 * one.total_tasks

    def test_tokens_per_iteration(self, tiny_model, small_cluster):
        graph = _build(tiny_model, small_cluster, gb=8, tp=2, pp=2, dp=2)
        assert graph.tokens_per_iteration == 8 * tiny_model.seq_length


class TestBatchGeometry:
    def test_rejects_indivisible_global_batch(
        self, tiny_model, small_cluster
    ):
        with pytest.raises(ValueError):
            _build(tiny_model, small_cluster, gb=7, tp=2, pp=2, dp=2)

    def test_rejects_microbatch_larger_than_share(
        self, tiny_model, small_cluster
    ):
        with pytest.raises(ValueError):
            _build(tiny_model, small_cluster, gb=8, mb=8, tp=2, pp=2, dp=2)


class TestOptimizations:
    def test_recompute_adds_replay_kernels(self, tiny_model, small_cluster):
        act = OptimizationConfig(activation_recompute=True)
        graph = _build(tiny_model, small_cluster, opts=act, tp=2, pp=2, dp=2)
        kinds = [t.kernel for q in graph.queues for t in q]
        assert kinds.count(KernelKind.RECOMPUTE_GEMM) > 0

    def test_cc_hides_tp_allreduce_inside_compute(
        self, tiny_model, small_cluster
    ):
        cc = OptimizationConfig(cc_overlap=True)
        base_graph = _build(tiny_model, small_cluster, tp=2, pp=2, dp=2)
        cc_graph = _build(tiny_model, small_cluster, opts=cc, tp=2, pp=2,
                          dp=2)
        # Compute kernels now carry hidden communication...
        fused = [
            t
            for q in cc_graph.queues
            for t in q
            if t.compute is not None and t.compute.overlapped_comm_s > 0
        ]
        assert fused
        # ...and the exposed TP AllReduce tail shrinks to one layer's ops.
        def ar_repeat(graph):
            return max(
                t.collective.repeat
                for q in graph.queues
                for t in q
                if t.kernel is KernelKind.TP_ALLREDUCE
            )

        assert ar_repeat(cc_graph) < ar_repeat(base_graph)

    def test_zero1_uses_reduce_scatter_allgather(
        self, tiny_model, small_cluster
    ):
        graph = _build(tiny_model, small_cluster, tp=2, pp=2, dp=2)
        kinds = {t.kernel for q in graph.queues for t in q}
        assert KernelKind.GRAD_REDUCE_SCATTER in kinds
        assert KernelKind.PARAM_ALLGATHER in kinds
        assert KernelKind.DP_ALLREDUCE not in kinds

    def test_standard_optimizer_uses_allreduce(
        self, tiny_model, small_cluster
    ):
        opts = OptimizationConfig(distributed_optimizer=False)
        graph = _build(tiny_model, small_cluster, opts=opts, tp=2, pp=2,
                       dp=2)
        kinds = {t.kernel for q in graph.queues for t in q}
        assert KernelKind.DP_ALLREDUCE in kinds
        assert KernelKind.GRAD_REDUCE_SCATTER not in kinds

    def test_moe_never_gets_zero1(self, tiny_moe, small_cluster):
        graph = _build(tiny_moe, small_cluster, tp=1, pp=2, dp=4, ep=2)
        kinds = {t.kernel for q in graph.queues for t in q}
        assert KernelKind.DP_ALLREDUCE in kinds
        assert KernelKind.GRAD_REDUCE_SCATTER not in kinds

    def test_lora_shrinks_dp_payload(self, tiny_model, small_cluster):
        full = _build(tiny_model, small_cluster, tp=2, pp=2, dp=2)
        lora = _build(
            tiny_model, small_cluster,
            opts=OptimizationConfig(lora=True), tp=2, pp=2, dp=2,
        )

        def dp_payload(graph):
            return max(
                t.collective.payload_bytes
                for q in graph.queues
                for t in q
                if t.kernel in (
                    KernelKind.GRAD_REDUCE_SCATTER, KernelKind.DP_ALLREDUCE
                )
            )

        assert dp_payload(lora) < dp_payload(full) / 50

    def test_fsdp_gathers_per_microbatch(self, tiny_model, small_cluster):
        graph = build_training_graph(
            model=tiny_model,
            mesh=DeviceMesh(
                cluster=small_cluster,
                config=ParallelismConfig(tp=2, dp=4, use_fsdp=True),
            ),
            microbatch_size=1,
            global_batch_size=8,
            opts=OptimizationConfig(),
            iterations=1,
        )
        allgathers = [
            t for q in graph.queues for t in q
            if t.kernel is KernelKind.PARAM_ALLGATHER
        ]
        reduce_scatters = {
            t.uid for q in graph.queues for t in q
            if t.kernel is KernelKind.GRAD_REDUCE_SCATTER
        }
        # 2 microbatches x (fwd + bwd) AG per rank; RS once per iteration.
        assert len(allgathers) >= 8
        assert len(reduce_scatters) == 2  # one per TP index


class TestStageLayers:
    def test_asymmetric_layers_accepted(self, tiny_model, small_cluster):
        graph = build_training_graph(
            model=tiny_model,
            mesh=_mesh(small_cluster, tp=2, pp=2, dp=2),
            microbatch_size=1,
            global_batch_size=8,
            opts=OptimizationConfig(),
            iterations=1,
            stage_layers=[5, 3],
        )
        assert graph.total_tasks > 0

    def test_wrong_stage_layer_sum_rejected(self, tiny_model, small_cluster):
        with pytest.raises(ValueError):
            build_training_graph(
                model=tiny_model,
                mesh=_mesh(small_cluster, tp=2, pp=2, dp=2),
                microbatch_size=1,
                global_batch_size=8,
                opts=OptimizationConfig(),
                stage_layers=[5, 5],
            )


class TestInferenceGraph:
    def test_forward_only(self, tiny_model, small_cluster):
        graph = build_inference_graph(
            model=tiny_model,
            mesh=_mesh(small_cluster, tp=2, pp=2, dp=2),
            microbatch_size=1,
            global_batch_size=8,
        )
        kinds = {t.kernel for q in graph.queues for t in q}
        assert KernelKind.BWD_GEMM not in kinds
        assert KernelKind.OPTIMIZER_STEP not in kinds
        assert KernelKind.GRAD_REDUCE_SCATTER not in kinds
        assert KernelKind.FWD_GEMM in kinds


class TestInterleavedGraphs:
    def test_interleaved_builds(self, tiny_model, small_cluster):
        mesh = DeviceMesh(
            cluster=small_cluster,
            config=ParallelismConfig(
                tp=2, pp=2, dp=2, pipeline_schedule="interleaved"
            ),
        )
        graph = build_training_graph(
            model=tiny_model,
            mesh=mesh,
            microbatch_size=1,
            global_batch_size=8,
            opts=OptimizationConfig(),
            iterations=1,
        )
        assert graph.total_tasks > 0


def _collective(uid, ranks):
    return Task(
        uid=uid,
        kind=TaskKind.COLLECTIVE,
        kernel=KernelKind.DP_ALLREDUCE,
        ranks=ranks,
        collective=CollectiveSpec(
            op=CollectiveOp.ALLREDUCE, ranks=ranks, payload_bytes=1.0
        ),
    )


def _compute(uid, rank):
    return Task(
        uid=uid,
        kind=TaskKind.COMPUTE,
        kernel=KernelKind.FWD_GEMM,
        ranks=(rank,),
        compute=ComputeSpec(flops=1.0),
    )


class TestCollectiveCheck:
    """TaskGraph holds each collective once per declared participant."""

    def _graph(self, queues):
        return TaskGraph(
            queues=queues, num_iterations=1, tokens_per_iteration=1
        )

    def test_accepts_one_entry_per_participant(self):
        ar = _collective(0, (0, 1))
        self._graph([[_compute(1, 0), ar], [ar], [_compute(2, 2)]])

    def test_rejects_missing_participant(self):
        ar = _collective(0, (0, 1))
        with pytest.raises(ValueError, match="collective 0"):
            self._graph([[ar], [_compute(1, 1)]])

    def test_rejects_extra_queue(self):
        ar = _collective(0, (0, 1))
        with pytest.raises(ValueError, match="collective 0"):
            self._graph([[ar], [ar], [ar]])

    def test_rejects_duplicate_in_one_queue(self):
        ar = _collective(0, (0, 1))
        with pytest.raises(ValueError, match="collective 0"):
            self._graph([[ar, ar], [ar]])


# -- stamping: the built graph equals the slice-by-slice emission ---------


def _reference_queues(builder: GraphBuilder) -> list[list[Task]]:
    """What :meth:`GraphBuilder.build` stamps, emitted kernel by kernel:
    every (iteration, outer-DP replica, EP index, stage) slice in turn."""
    cfg = builder.cfg
    for iteration in range(builder.iterations):
        for dpo in range(cfg.dp_outer):
            for e in range(cfg.ep):
                for stage in range(cfg.pp):
                    builder._emit_slice(iteration, dpo, e, stage)
    return builder.queues


@st.composite
def _builder_cases(draw) -> dict:
    """GraphBuilder keyword arguments over models, plans, schedules,
    optimizations, inference and placements."""
    moe = draw(st.booleans())
    nodes = draw(st.sampled_from((1, 2, 3, 4)))
    tp = draw(st.sampled_from((1, 2, 4)))
    pp = draw(st.sampled_from((1, 2, 4)))
    world = 4 * nodes
    assume(world % (tp * pp) == 0)
    dp = world // (tp * pp)
    ep = draw(st.sampled_from((1, 2, 4))) if moe else 1
    assume(dp % ep == 0)
    fsdp = draw(st.booleans()) if ep == 1 and dp > 1 else False
    schedule = draw(
        st.sampled_from(("1f1b", "interleaved", "zb-h1", "seq1f1b"))
    )
    config = ParallelismConfig(
        tp=tp, pp=pp, dp=dp, ep=ep, use_fsdp=fsdp,
        pipeline_schedule=schedule,
    )
    cluster = ClusterSpec(
        name=f"small-{nodes}x4",
        node=small_node(),
        num_nodes=nodes,
        inter_node_link=INFINIBAND_100G,
    )
    placement = draw(st.permutations(range(world)))
    microbatch = draw(st.sampled_from((1, 2)))
    microbatches = draw(st.integers(1, 4))
    opts = OptimizationConfig(
        activation_recompute=draw(st.booleans()),
        cc_overlap=draw(st.booleans()),
        distributed_optimizer=draw(st.booleans()),
        lora=draw(st.booleans()),
    )
    return dict(
        model=TINY_MOE if moe else TINY_DENSE,
        mesh=DeviceMesh(cluster, config, tuple(placement)),
        microbatch_size=microbatch,
        global_batch_size=dp * microbatch * microbatches,
        opts=opts,
        iterations=draw(st.integers(1, 3)),
        inference=draw(st.booleans()),
    )


def _swapped(placement_size: int, a: int, b: int) -> tuple[int, ...]:
    placement = list(range(placement_size))
    placement[a], placement[b] = placement[b], placement[a]
    return tuple(placement)


# CC overlap sizes the TP communication hidden in each compute kernel
# from the TP group's physical GPUs: swapping ranks 8 and 60 gives two
# replicas different hidden times, so they cannot share a template.
_PLACED_CC_OVERLAP = dict(
    model=get_model("gpt3-13b"),
    mesh=DeviceMesh(
        get_cluster("h100x64"),
        ParallelismConfig(tp=4, pp=2, dp=8),
        _swapped(64, 8, 60),
    ),
    microbatch_size=1,
    global_batch_size=16,
    opts=OptimizationConfig(cc_overlap=True),
    iterations=2,
    inference=False,
)


class TestStamping:
    @settings(max_examples=100, deadline=None)
    @given(case=_builder_cases())
    @example(case=_PLACED_CC_OVERLAP)
    def test_build_equals_slice_emission(self, case):
        try:
            graph = GraphBuilder(**case).build()
        except ValueError:
            # Shapes the builder rejects (batch or sequence splits that
            # do not divide) have nothing to compare.
            assume(False)
        reference = _reference_queues(GraphBuilder(**case))
        assert len(graph.queues) == len(reference)
        for rank, (built, expected) in enumerate(
            zip(graph.queues, reference)
        ):
            assert built == expected, f"rank {rank}"
        shared: dict[int, Task] = {}
        for queue in graph.queues:
            for task in queue:
                if task.kind is TaskKind.COLLECTIVE:
                    assert shared.setdefault(task.uid, task) is task

    def test_placed_cc_overlap_replicas_differ(self):
        # The pinned example exercises a replica whose hidden TP time
        # differs from the template's.
        graph = GraphBuilder(**_PLACED_CC_OVERLAP).build()
        hidden = {
            task.compute.overlapped_comm_s
            for queue in graph.queues
            for task in queue
            if task.kernel is KernelKind.FWD_GEMM
        }
        assert len(hidden) > 1
