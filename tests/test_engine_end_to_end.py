"""End-to-end simulator coverage for every graph flavour the builder can
emit: interleaved pipelines, FSDP, MoE with EP, LoRA, and overlap — each
must execute to completion with sane outputs.
"""

import pytest

from repro.engine.builder import build_training_graph
from repro.engine.kernels import KernelCategory, KernelKind
from repro.engine.simulator import simulate
from repro.parallelism.mapping import DeviceMesh
from repro.parallelism.strategy import OptimizationConfig, ParallelismConfig


def _simulate(model, cluster, settings, config, opts=None, gb=8, mb=1,
              iterations=1):
    mesh = DeviceMesh(cluster=cluster, config=config)
    graph = build_training_graph(
        model=model,
        mesh=mesh,
        microbatch_size=mb,
        global_batch_size=gb,
        opts=opts or OptimizationConfig(),
        iterations=iterations,
    )
    return simulate(mesh, graph, settings)


class TestInterleavedPipeline:
    def test_executes_close_to_plain_at_small_scale(
        self, tiny_model, small_cluster, fast_settings
    ):
        """At communication-dominated small scale, interleaving's extra
        P2P traffic can offset its smaller bubble — the paper's point
        that its effectiveness "depends on network depth" — but it must
        stay in the same ballpark and complete correctly."""
        plain = _simulate(
            tiny_model, small_cluster, fast_settings,
            ParallelismConfig(tp=1, pp=4, dp=2), gb=8,
        )
        interleaved = _simulate(
            tiny_model, small_cluster, fast_settings,
            ParallelismConfig(
                tp=1, pp=4, dp=2, pipeline_schedule="interleaved"
            ),
            gb=8,
        )
        assert interleaved.makespan_s < 1.25 * plain.makespan_s

    def test_beats_plain_when_compute_dominates(self):
        """With chunky compute kernels and a bubble-bound microbatch
        count, interleaving wins (its intended regime)."""
        from repro.core.experiment import execute_training
        from repro.engine.simulator import SimSettings
        from repro.parallelism.strategy import ParallelismConfig as PC

        settings = SimSettings(physics_dt_s=0.02,
                               telemetry_interval_s=0.05)
        plain = execute_training(
            model="gpt3-13b", cluster="mi250x32",
            parallelism=PC(tp=2, pp=8, dp=2),
            microbatch_size=1, global_batch_size=16, iterations=1,
            warmup_iterations=0, settings=settings,
        )
        interleaved = execute_training(
            model="gpt3-13b", cluster="mi250x32",
            parallelism=PC(
                tp=2, pp=8, dp=2, pipeline_schedule="interleaved"
            ),
            microbatch_size=1, global_batch_size=16, iterations=1,
            warmup_iterations=0, settings=settings,
        )
        assert (
            interleaved.outcome.makespan_s < plain.outcome.makespan_s
        )

    def test_interleaved_requires_divisible_microbatches(
        self, tiny_model, small_cluster
    ):
        mesh = DeviceMesh(
            cluster=small_cluster,
            config=ParallelismConfig(
                tp=1, pp=4, dp=2, pipeline_schedule="interleaved"
            ),
        )
        with pytest.raises(ValueError):
            build_training_graph(
                model=tiny_model,
                mesh=mesh,
                microbatch_size=1,
                global_batch_size=6,  # 3 microbatches, pp=4
                opts=OptimizationConfig(),
            )


class TestFsdpEndToEnd:
    def test_fsdp_executes(self, tiny_model, small_cluster, fast_settings):
        outcome = _simulate(
            tiny_model, small_cluster, fast_settings,
            ParallelismConfig(tp=2, dp=4, use_fsdp=True), gb=8,
        )
        kinds = {r.kind for r in outcome.records}
        assert KernelKind.PARAM_ALLGATHER in kinds
        assert KernelKind.GRAD_REDUCE_SCATTER in kinds

    def test_fsdp_comm_shrinks_with_microbatch_size(
        self, tiny_model, small_cluster, fast_settings
    ):
        """Fewer microbatches -> fewer per-microbatch allgathers."""

        def ag_seconds(outcome):
            return sum(
                r.duration_s
                for r in outcome.records
                if r.kind is KernelKind.PARAM_ALLGATHER
            )

        config = ParallelismConfig(tp=2, dp=4, use_fsdp=True)
        mb1 = _simulate(tiny_model, small_cluster, fast_settings, config,
                        gb=16, mb=1)
        mb4 = _simulate(tiny_model, small_cluster, fast_settings, config,
                        gb=16, mb=4)
        assert ag_seconds(mb4) < ag_seconds(mb1)


class TestMoEEndToEnd:
    def test_ep_executes_with_alltoall(
        self, tiny_moe, small_cluster, fast_settings
    ):
        outcome = _simulate(
            tiny_moe, small_cluster, fast_settings,
            ParallelismConfig(tp=1, pp=2, dp=4, ep=4), gb=8,
        )
        categories = {r.category for r in outcome.records}
        assert KernelCategory.ALLTOALL in categories

    def test_expert_grads_reduce_across_outer_dp(
        self, tiny_moe, small_cluster, fast_settings
    ):
        """With dp_outer > 1, MoE emits a separate expert-gradient sync."""
        outcome = _simulate(
            tiny_moe, small_cluster, fast_settings,
            ParallelismConfig(tp=1, pp=2, dp=4, ep=2), gb=8,
        )
        dp_allreduces = [
            r for r in outcome.records
            if r.kind is KernelKind.DP_ALLREDUCE
        ]
        assert dp_allreduces  # dense + expert syncs, standard optimizer

    def test_local_ep_cheaper_than_spread_ep(
        self, tiny_moe, small_cluster, fast_settings
    ):
        """EP inside a node (tp=1) vs spanning nodes (tp=4)."""
        local = _simulate(
            tiny_moe, small_cluster, fast_settings,
            ParallelismConfig(tp=1, pp=2, dp=4, ep=4), gb=8,
        )
        spread = _simulate(
            tiny_moe, small_cluster, fast_settings,
            ParallelismConfig(tp=4, pp=2, dp=1), gb=8,
        )
        assert local.makespan_s > 0 and spread.makespan_s > 0

    def test_ep_shards_memory_not_compute(self, tiny_moe, small_cluster,
                                          fast_settings):
        """EP ranks keep the same per-rank expert FLOPs (tokens come from
        peers), so compute time is roughly EP-invariant at fixed dp."""
        ep1 = _simulate(
            tiny_moe, small_cluster, fast_settings,
            ParallelismConfig(tp=1, pp=2, dp=4, ep=1), gb=8,
        )
        ep4 = _simulate(
            tiny_moe, small_cluster, fast_settings,
            ParallelismConfig(tp=1, pp=2, dp=4, ep=4), gb=8,
        )

        def compute(outcome):
            return sum(
                r.duration_s for r in outcome.records
                if r.category is KernelCategory.COMPUTE
            )

        assert compute(ep4) == pytest.approx(compute(ep1), rel=0.15)


class TestLoraEndToEnd:
    def test_lora_executes_and_is_faster(
        self, tiny_model, small_cluster, fast_settings
    ):
        config = ParallelismConfig(tp=2, pp=2, dp=2)
        full = _simulate(tiny_model, small_cluster, fast_settings, config,
                         gb=8)
        lora = _simulate(
            tiny_model, small_cluster, fast_settings, config,
            opts=OptimizationConfig(lora=True), gb=8,
        )
        assert lora.makespan_s < full.makespan_s


class TestOverlapEndToEnd:
    def test_dp_bucket_overlap_executes(
        self, tiny_model, small_cluster, fast_settings
    ):
        outcome = _simulate(
            tiny_model, small_cluster, fast_settings,
            ParallelismConfig(tp=1, pp=2, dp=4),
            opts=OptimizationConfig(cc_overlap=True), gb=16,
        )
        # Overlapped gradient buckets produce ReduceScatter records.
        kinds = {r.kind for r in outcome.records}
        assert KernelKind.GRAD_REDUCE_SCATTER in kinds

    def test_overlap_with_recompute(self, tiny_model, small_cluster,
                                    fast_settings):
        outcome = _simulate(
            tiny_model, small_cluster, fast_settings,
            ParallelismConfig(tp=2, pp=2, dp=2),
            opts=OptimizationConfig(
                cc_overlap=True, activation_recompute=True
            ),
            gb=8,
        )
        kinds = {r.kind for r in outcome.records}
        assert KernelKind.RECOMPUTE_GEMM in kinds


class TestBuilderDeterminism:
    def test_same_inputs_same_graph_shape(
        self, tiny_model, small_cluster
    ):
        config = ParallelismConfig(tp=2, pp=2, dp=2)
        graphs = [
            build_training_graph(
                model=tiny_model,
                mesh=DeviceMesh(cluster=small_cluster, config=config),
                microbatch_size=1,
                global_batch_size=8,
                opts=OptimizationConfig(),
            )
            for _ in range(2)
        ]
        shapes = [
            [(t.kind, t.kernel, t.microbatch, t.stage) for q in g.queues
             for t in q]
            for g in graphs
        ]
        assert shapes[0] == shapes[1]


class TestGpipeEndToEnd:
    def test_gpipe_executes_and_matches_1f1b_time(
        self, tiny_model, small_cluster, fast_settings
    ):
        """With unconstrained memory, GPipe and 1F1B share the same
        bubble and total work: near-identical makespans. GPipe's cost is
        the activation memory the analytic model charges it."""
        plain = _simulate(
            tiny_model, small_cluster, fast_settings,
            ParallelismConfig(tp=1, pp=4, dp=2), gb=16,
        )
        gpipe = _simulate(
            tiny_model, small_cluster, fast_settings,
            ParallelismConfig(tp=1, pp=4, dp=2,
                              pipeline_schedule="gpipe"),
            gb=16,
        )
        assert gpipe.makespan_s == pytest.approx(
            plain.makespan_s, rel=0.10
        )

    def test_gpipe_interleaved_rejected(self):
        from repro.schedules import create_schedule

        with pytest.raises(ValueError, match="virtual-stage chunks"):
            create_schedule("gpipe", 4, 8, num_chunks=2)
