"""Tests for the task-graph builder."""

import pytest

from repro.engine.builder import (
    GraphBuilder,
    build_inference_graph,
    build_training_graph,
    split_layers,
)
from repro.engine.kernels import KernelKind
from repro.engine.task import TaskKind
from repro.parallelism.mapping import DeviceMesh
from repro.parallelism.strategy import OptimizationConfig, ParallelismConfig


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
