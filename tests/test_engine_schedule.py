"""Tests for pipeline schedules (1F1B, interleaved, GPipe) through the
:mod:`repro.schedules` registry: per-stage node orders from
``create_schedule(...).steps(stage)``, structural checks from
``ScheduleGraph.validate``, and argument checks from
``check_stage_args``."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schedules import (
    NodeType,
    OneFOneBSchedule,
    ScheduleGraph,
    check_stage_args,
    create_schedule,
    make_node,
)

F, B = NodeType.FORWARD, NodeType.BACKWARD


def _graph(rows, num_microbatches, num_stages=1) -> ScheduleGraph:
    """A hand-built graph of (type, microbatch) rows, one per stage."""
    return ScheduleGraph(
        num_stages=num_stages,
        num_microbatches=num_microbatches,
        stage_rows=tuple(
            tuple(
                make_node(type, stage, num_stages, 1, mb)
                for type, mb in row
            )
            for stage, row in enumerate(rows)
        ),
    )


def _bubble(schedule) -> float:
    """Idle share of a schedule, measured by replaying its graph with a
    forward costing 1 and a backward 2 per stage (split across chunks)
    and free P2P: makespan over busy time, minus one."""
    graph = schedule.graph()
    p = graph.num_stages
    deps: dict = {}
    for src, dst in graph.dependency_edges():
        deps.setdefault(dst, []).append(src)
    finish: dict = {}
    clock = [0.0] * p
    rows = [list(row) for row in graph.stage_rows]
    while any(rows):
        progressed = False
        for stage, row in enumerate(rows):
            while row and all(
                d in finish for d in deps.get(row[0].key(p), ())
            ):
                node = row.pop(0)
                key = node.key(p)
                start = max(
                    [clock[stage]] + [finish[d] for d in deps.get(key, ())]
                )
                cost = (1.0 if node.type is F else 2.0) / graph.num_chunks
                finish[key] = clock[stage] = start + cost
                progressed = True
        assert progressed, "schedule graph deadlocked"
    return max(clock) / (3.0 * graph.num_microbatches) - 1.0


class TestOneFOneB:
    @given(
        num_stages=st.integers(1, 16),
        num_microbatches=st.integers(1, 64),
    )
    @settings(max_examples=80, deadline=None)
    def test_valid_for_all_shapes(self, num_stages, num_microbatches):
        schedule = create_schedule("1f1b", num_stages, num_microbatches)
        schedule.graph()  # validates coverage and acyclicity
        for stage in range(num_stages):
            assert len(schedule.steps(stage)) == 2 * num_microbatches

    def test_last_stage_alternates_strictly(self):
        nodes = create_schedule("1f1b", 4, 6).steps(3)
        assert [node.type for node in nodes[:4]] == [F, B, F, B]

    def test_first_stage_has_warmup(self):
        nodes = create_schedule("1f1b", 4, 8).steps(0)
        assert all(node.type is F for node in nodes[:3])

    def test_microbatch_ordering(self):
        """Forwards and backwards each run microbatches in order."""
        nodes = create_schedule("1f1b", 4, 8).steps(1)
        forwards = [node.microbatch for node in nodes if node.type is F]
        backwards = [node.microbatch for node in nodes if node.type is B]
        assert forwards == sorted(forwards)
        assert backwards == sorted(backwards)

    def test_arg_validation(self):
        with pytest.raises(ValueError, match=r"stage 4 out of range"):
            check_stage_args(4, 4, 8)
        with pytest.raises(ValueError, match="num_stages must be >= 1"):
            check_stage_args(0, 0, 8)
        with pytest.raises(
            ValueError, match="num_microbatches must be >= 1"
        ):
            check_stage_args(0, 4, 0)
        with pytest.raises(ValueError, match=r"stage 4 out of range"):
            create_schedule("1f1b", 4, 8).rank_ops(4)


class TestInterleaved:
    @given(
        num_stages=st.sampled_from([2, 4, 8]),
        groups=st.integers(1, 4),
        num_chunks=st.sampled_from([2, 3]),
    )
    @settings(max_examples=40, deadline=None)
    def test_valid_for_divisible_microbatches(
        self, num_stages, groups, num_chunks
    ):
        create_schedule(
            "interleaved", num_stages, groups * num_stages,
            num_chunks=num_chunks,
        ).graph()

    def test_rejects_indivisible_microbatches(self):
        with pytest.raises(ValueError, match="multiple of num_stages"):
            create_schedule("interleaved", 4, 6, num_chunks=2)

    def test_rejects_single_chunk(self):
        with pytest.raises(ValueError, match="at least 2 chunks"):
            create_schedule("interleaved", 4, 8, num_chunks=1)

    def test_uses_both_chunks(self):
        nodes = create_schedule("interleaved", 4, 8, num_chunks=2).steps(0)
        assert {node.chunk for node in nodes} == {0, 1}


class TestScheduleFor:
    def test_dispatches_plain(self):
        nodes = create_schedule("1f1b", 4, 8).steps(0)
        assert all(node.chunk == 0 for node in nodes)

    def test_dispatches_interleaved(self):
        nodes = create_schedule("interleaved", 4, 8, num_chunks=2).steps(0)
        assert {node.chunk for node in nodes} == {0, 1}

    def test_single_stage_ignores_interleaving(
        self, tiny_model, small_cluster
    ):
        from repro.engine.builder import GraphBuilder
        from repro.parallelism.mapping import DeviceMesh
        from repro.parallelism.strategy import (
            OptimizationConfig,
            ParallelismConfig,
        )

        builder = GraphBuilder(
            model=tiny_model,
            mesh=DeviceMesh(
                cluster=small_cluster,
                config=ParallelismConfig(
                    tp=2, pp=1, dp=4, pipeline_schedule="interleaved"
                ),
            ),
            microbatch_size=1,
            global_batch_size=16,
            opts=OptimizationConfig(),
        )
        assert builder.schedule.name == "1f1b"
        assert builder.num_chunks == 1
        builder.schedule.graph()


class TestValidateSchedule:
    def test_catches_backward_before_forward(self):
        with pytest.raises(ValueError, match="cycle"):
            _graph([[(B, 0), (F, 0)]], 1).validate()

    def test_catches_duplicates(self):
        with pytest.raises(ValueError, match="duplicate F"):
            _graph([[(F, 0), (F, 0), (B, 0)]], 1).validate()

    def test_catches_missing_coverage(self):
        with pytest.raises(ValueError, match="exactly once"):
            _graph([[(F, 0), (B, 0)]], 2).validate()


class TestBubbleFraction:
    def test_known_value(self):
        # p=4, m=12: bubble = (p - 1) / m = 3 / 12.
        assert OneFOneBSchedule.bubble_fraction(4, 12) == pytest.approx(
            0.25
        )

    def test_interleaving_shrinks_bubble(self):
        plain = _bubble(create_schedule("1f1b", 8, 16))
        interleaved = _bubble(
            create_schedule("interleaved", 8, 16, num_chunks=2)
        )
        assert interleaved < plain
        assert plain == pytest.approx(7 / 16)
        assert interleaved == pytest.approx(7 / 32)

    def test_more_microbatches_shrink_bubble(self):
        assert OneFOneBSchedule.bubble_fraction(
            8, 64
        ) < OneFOneBSchedule.bubble_fraction(8, 8)

    def test_validation(self):
        # Degenerate shapes have no bubble rather than a negative one.
        assert OneFOneBSchedule.bubble_fraction(1, 8) == 0.0
        assert OneFOneBSchedule.bubble_fraction(4, 0) == 0.0


class TestGpipe:
    def test_all_forwards_then_backwards(self):
        schedule = create_schedule("gpipe", 4, 6)
        types = [node.type for node in schedule.steps(1)]
        assert types == [F] * 6 + [B] * 6
        schedule.graph()

    def test_backwards_in_reverse_order(self):
        nodes = create_schedule("gpipe", 2, 4).steps(0)
        backwards = [node.microbatch for node in nodes if node.type is B]
        assert backwards == [3, 2, 1, 0]

    def test_schedule_for_dispatch(self):
        nodes = create_schedule("gpipe", 4, 8).steps(0)
        assert all(node.chunk == 0 for node in nodes)
        with pytest.raises(ValueError, match="did you mean|unknown"):
            create_schedule("zigzag", 4, 8)


class TestGpipeMemory:
    def test_gpipe_stores_every_microbatch(self):
        from repro.models.catalog import GPT3_175B
        from repro.models.memory import activation_bytes

        one_f_one_b_bytes = activation_bytes(
            GPT3_175B, 1, tp=2, pp=8, pipeline_schedule="1f1b"
        )
        gpipe_bytes = activation_bytes(
            GPT3_175B, 1, tp=2, pp=8, pipeline_schedule="gpipe",
            num_microbatches=32,
        )
        assert gpipe_bytes == pytest.approx(one_f_one_b_bytes * 4)

    def test_gpipe_requires_microbatch_count(self):
        from repro.models.catalog import GPT3_175B
        from repro.models.memory import activation_bytes

        with pytest.raises(ValueError):
            activation_bytes(
                GPT3_175B, 1, tp=2, pp=8, pipeline_schedule="gpipe"
            )
