"""repro.schedules: registry, constraints, memory bounds, batched routing.

Deterministic unit coverage of the schedule-graph subsystem: name
resolution with did-you-mean hints, the early constraint checks in
:class:`~repro.api.SimRequest` and
:class:`~repro.parallelism.strategy.ParallelismConfig`, the zero-bubble
memory invariants the paper experiment depends on, structural graph
validation, and the batched evaluator's per-schedule anchor groups.
Randomised invariants live in ``test_schedules_property.py``.
"""

import pytest

from repro.api import SimRequest
from repro.parallelism.strategy import ParallelismConfig
from repro.schedules import (
    NodeType,
    ScheduleGraph,
    canonical_schedule_name,
    create_schedule,
    get_schedule_class,
    make_node,
    schedule_names,
)

BUILTIN = ("1f1b", "gpipe", "interleaved", "seq1f1b", "zb-h1")


class TestRegistry:
    def test_builtins_registered(self):
        assert schedule_names() == BUILTIN

    @pytest.mark.parametrize(
        "spelling,canonical",
        [
            ("1F1B", "1f1b"),
            ("ZB_H1", "zb-h1"),
            (" Seq1F1B ", "seq1f1b"),
            ("GPipe", "gpipe"),
        ],
    )
    def test_spellings_normalise(self, spelling, canonical):
        assert canonical_schedule_name(spelling) == canonical

    def test_unknown_name_suggests(self):
        with pytest.raises(ValueError, match=r"did you mean 'zb-h1'"):
            canonical_schedule_name("zbh1")
        with pytest.raises(ValueError, match=r"known: 1f1b, gpipe"):
            get_schedule_class("zigzag")

    def test_create_schedule_rejects_unsupported_knobs(self):
        with pytest.raises(ValueError, match="does not use virtual-stage"):
            create_schedule("gpipe", 4, 8, num_chunks=2)
        with pytest.raises(ValueError, match="does not split sequences"):
            create_schedule("zb-h1", 4, 8, num_seq_splits=2)


class TestStrategyField:
    def test_schedule_name_canonicalised(self):
        strategy = ParallelismConfig(pp=4, pipeline_schedule="ZB_H1")
        assert strategy.pipeline_schedule == "zb-h1"

    def test_unknown_schedule_rejected(self):
        with pytest.raises(ValueError, match="did you mean"):
            ParallelismConfig(pp=4, pipeline_schedule="1f1d")

    # Interleaving is its own schedule, so only a chunked schedule
    # can host virtual stages.
    def test_gpipe_cannot_be_interleaved(self):
        with pytest.raises(ValueError, match="virtual-stage chunks"):
            create_schedule("gpipe", 4, 8, num_chunks=2)

    def test_zb_h1_cannot_be_interleaved(self):
        with pytest.raises(ValueError, match="virtual-stage chunks"):
            create_schedule("zb-h1", 4, 8, num_chunks=2)


class TestRequestValidation:
    def _request(self, **overrides):
        kwargs = dict(
            model="gpt3-13b",
            cluster="h200x32",
            parallelism="TP2-PP4",
            global_batch_size=16,
        )
        kwargs.update(overrides)
        return SimRequest(**kwargs)

    def test_schedule_normalised_on_request(self):
        request = self._request(pipeline_schedule="ZB_H1")
        assert request.pipeline_schedule == "zb-h1"
        assert request.to_run_payload()[1]["pipeline_schedule"] == "zb-h1"

    def test_default_schedule_elided_from_payload(self):
        payload = self._request().to_run_payload()[1]
        assert "pipeline_schedule" not in payload
        assert "seq_splits" not in payload

    def test_interleaved_divisibility_fails_at_construction(self):
        # 16 sequences / (dp=4 * mb=1) = 4 microbatches, pp=4: fine.
        self._request(pipeline_schedule="interleaved")
        # 12 sequences -> 3 microbatches, not a multiple of pp=4.
        with pytest.raises(
            ValueError,
            match=r"global_batch_size 12 .* gives 3 microbatches, not "
                  r"a multiple of pp=4",
        ):
            self._request(
                pipeline_schedule="interleaved", global_batch_size=12
            )

    def test_interleaved_needs_pipelining(self):
        with pytest.raises(ValueError, match=r"needs a pipelined strategy"):
            self._request(
                parallelism="TP2", pipeline_schedule="interleaved"
            )

    def test_seq_splits_need_a_seq_schedule(self):
        with pytest.raises(
            ValueError,
            match=r"'zb-h1' schedule does not split sequences.*seq1f1b",
        ):
            self._request(pipeline_schedule="zb-h1", seq_splits=2)
        self._request(pipeline_schedule="seq1f1b", seq_splits=2)

    def test_fleet_and_serving_reject_schedule_knobs(self):
        with pytest.raises(
            ValueError, match="apply to training and inference"
        ):
            SimRequest(
                kind="fleet",
                pipeline_schedule="zb-h1",
                fleet={"training_nodes": 2},
            )


class TestWarmupClosedForms:
    @pytest.mark.parametrize("name", BUILTIN)
    @pytest.mark.parametrize("p,m", [(2, 2), (4, 8), (8, 16), (3, 12)])
    def test_derived_warmup_matches_closed_form(self, name, p, m):
        chunks = 2 if name == "interleaved" else 1
        if name == "interleaved" and m % p:
            pytest.skip("interleaved requires m % p == 0")
        schedule = create_schedule(name, p, m, num_chunks=chunks)
        total = m * schedule.num_chunks * schedule.num_seq_splits
        for stage in range(p):
            warmup = schedule.warmup_forwards(stage)
            # The steady loop leads with one more forward before the
            # first backward, so the emitted row shows warmup + 1
            # leading F's unless warmup already covers every unit.
            expected = warmup if warmup >= total else warmup + 1
            assert schedule.derived_warmup_forwards(stage) == expected, (
                name, p, m, stage,
            )

    def test_one_f_one_b_warmup_is_pipeline_lag(self):
        schedule = create_schedule("1f1b", 4, 8)
        assert [schedule.warmup_forwards(s) for s in range(4)] == [
            3, 2, 1, 0,
        ]


class TestZeroBubbleInvariants:
    @pytest.mark.parametrize("p,m", [(2, 2), (4, 8), (8, 16), (4, 7)])
    def test_activation_memory_no_worse_than_1f1b(self, p, m):
        zb = create_schedule("zb-h1", p, m)
        base = create_schedule("1f1b", p, m)
        for stage in range(p):
            assert zb.peak_activation_units(stage) <= (
                base.peak_activation_units(stage)
            )
            assert zb.derived_warmup_forwards(stage) == (
                base.derived_warmup_forwards(stage)
            )

    @pytest.mark.parametrize("p,m", [(2, 2), (4, 8), (8, 16), (3, 12)])
    def test_weight_grad_stash_is_bounded(self, p, m):
        zb = create_schedule("zb-h1", p, m)
        for stage in range(p):
            assert zb.peak_weight_stash_units(stage) <= 1

    def test_graph_validates_and_carries_weight_nodes(self):
        graph = create_schedule("zb-h1", 4, 8).graph()
        weights = [
            n for n in graph.nodes() if n.type is NodeType.WEIGHT
        ]
        assert len(weights) == 4 * 8
        assert all(
            n.recv_peer is None and n.send_peer is None for n in weights
        )


class TestSeqSplitSchedule:
    def test_single_split_degenerates_to_1f1b(self):
        seq = create_schedule("seq1f1b", 4, 8, num_seq_splits=1)
        base = create_schedule("1f1b", 4, 8)
        for stage in range(4):
            assert seq.rank_ops(stage) == base.rank_ops(stage)

    def test_splits_shrink_the_activation_peak(self):
        base = create_schedule("1f1b", 8, 8)
        split = create_schedule("seq1f1b", 8, 8, num_seq_splits=4)
        # Units are seq chunks: 4 chunks of a quarter sequence each.
        assert split.peak_activation_units(0) / 4 < (
            base.peak_activation_units(0)
        )
        split.graph()  # structurally valid


class TestGraphValidation:
    def test_backward_before_forward_is_a_cycle(self):
        p, m = 2, 1
        rows = []
        for stage in range(p):
            f = make_node(NodeType.FORWARD, stage, p, 1, 0)
            b = make_node(NodeType.BACKWARD, stage, p, 1, 0)
            rows.append((b, f) if stage == 0 else (f, b))
        graph = ScheduleGraph(
            num_stages=p, num_microbatches=m, stage_rows=tuple(rows)
        )
        with pytest.raises(ValueError, match="cycle"):
            graph.validate()

    def test_missing_backward_is_a_coverage_error(self):
        p = 2
        rows = tuple(
            (make_node(NodeType.FORWARD, stage, p, 1, 0),)
            for stage in range(p)
        )
        graph = ScheduleGraph(
            num_stages=p, num_microbatches=1, stage_rows=rows
        )
        with pytest.raises(ValueError, match="exactly once"):
            graph.validate()


class TestBatchedScheduleGrids:
    def _payload(self, schedule, setpoint=1.0):
        from repro.engine.simulator import SimSettings
        from repro.optimize import settings_for_setpoint

        kwargs = dict(
            model="gpt3-13b",
            cluster="mi250x32",
            parallelism="TP2-PP4",
            microbatch_size=1,
            global_batch_size=8,
            iterations=2,
            settings=settings_for_setpoint(
                SimSettings(), setpoint
            ),
        )
        if schedule != "1f1b":
            kwargs["pipeline_schedule"] = schedule
        return ("train", kwargs)

    def test_schedules_form_distinct_anchor_groups(self):
        import repro.engine.batched as batched_mod

        members = [
            batched_mod._batchable(*self._payload(s, sp))
            for s in ("1f1b", "zb-h1")
            for sp in (1.0, 0.8)
        ]
        assert all(m is not None for m in members)
        keys = [batched_mod._group_key(m) for m in members]
        # Same schedule, different setpoint -> one group; different
        # schedule -> different group (its own anchor simulation).
        assert keys[0] == keys[1]
        assert keys[2] == keys[3]
        assert keys[0] != keys[2]

    def test_schedule_grid_batches_without_fallback(self):
        """A mixed-schedule grid must anchor+replay, never run a lane
        serially, and match serial bit-for-bit."""
        import repro.core.sweep as sweep_mod
        import repro.engine.batched as batched_mod
        from repro.core.experiment import execute_training
        from repro.core.store import persistence_disabled
        from tests.conftest import assert_run_results_equal, lane_tally

        payloads = [
            self._payload(s, sp)
            for s in ("1f1b", "zb-h1", "gpipe")
            for sp in (1.0, 0.85)
        ]
        with persistence_disabled(), lane_tally(min_replay_lanes=1) as tally:
            sweep_mod._CACHE.clear()
            batched = batched_mod.evaluate_grid(payloads, cache=False)
            sweep_mod._CACHE.clear()
            serial = [
                execute_training(**kwargs) for _, kwargs in payloads
            ]
        assert tally.serial == {}
        assert tally.replayed == 3  # one lane per schedule group
        for got, want in zip(batched, serial):
            assert_run_results_equal(got, want)
        zb = batched[2].efficiency().step_time_s
        base = batched[0].efficiency().step_time_s
        assert zb < base  # zero-bubble is strictly faster here


class TestScheduleTimelineFigure:
    def test_zb_h1_figure_shows_weight_lanes(self, tmp_path):
        from repro.core.experiment import execute_training
        from repro.viz.figures import schedule_timeline_figure

        result = execute_training(
            "gpt3-13b", "mi250x32", "TP2-PP4",
            microbatch_size=1, global_batch_size=8, iterations=2,
            pipeline_schedule="zb-h1",
        )
        path = tmp_path / "schedule.svg"
        svg = schedule_timeline_figure(result, path=path)
        assert path.exists()
        assert "Pipeline schedule timeline" in svg
        assert "zb-h1" in svg
        assert ">W0<" in svg  # weight-grad block, microbatch 0

    def test_unpipelined_run_is_rejected(self):
        from repro.core.experiment import execute_training
        from repro.viz.figures import schedule_timeline_figure

        result = execute_training(
            "gpt3-13b", "mi250x32", "TP8",
            microbatch_size=1, global_batch_size=8, iterations=2,
        )
        with pytest.raises(ValueError, match="pp >= 2"):
            schedule_timeline_figure(result)
