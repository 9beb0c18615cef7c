"""repro.resilience: fault timelines, engine injection, recovery policies.

Covers the full tentpole surface: the fault taxonomy and seeded
generators, the strict no-op invariant (an empty timeline is
bit-identical to the pre-resilience engine on both physics backends),
the per-kind engine effects, collective-timeout hang detection, the
fleet delegation of interrupt accounting, and the paper-level
acceptance ordering fail-stop <= hot-spare <= elastic on
gpt3-13b/h100x64.
"""

import dataclasses

import pytest

from repro.core.experiment import execute_training
from repro.core.faults import (
    DEFAULT_SEVERITY,
    EMPTY_TIMELINE,
    FaultEvent,
    FaultKind,
    FaultTimeline,
    generate_fault_timeline,
)
from repro.engine.simulator import SimSettings
from repro.resilience import build_fault_runtime
from repro.resilience.recovery import (
    POLICIES,
    JobProfile,
    RecoveryConfig,
    compare_policies,
    plan_interrupt,
    simulate_recovery,
    sweep_mtbf,
    walk_recovery,
)
from tests.conftest import assert_run_results_equal


def _sag(node=0, time_s=0.05, duration_s=0.4, severity=0.25):
    return FaultEvent(
        kind=FaultKind.POWER_SAG, node=node, time_s=time_s,
        duration_s=duration_s, severity=severity,
    )


def _timeline(*events):
    return FaultTimeline(events=tuple(events))


class TestTaxonomy:
    def test_default_severity_per_kind(self):
        for kind, expected in DEFAULT_SEVERITY.items():
            event = FaultEvent(kind=kind, node=0, time_s=1.0,
                               duration_s=2.0)
            assert event.severity == expected

    def test_validation(self):
        with pytest.raises(ValueError, match="time_s"):
            FaultEvent(kind=FaultKind.POWER_SAG, node=0, time_s=-1.0,
                       duration_s=1.0)
        with pytest.raises(ValueError, match="duration_s"):
            FaultEvent(kind=FaultKind.POWER_SAG, node=0, time_s=1.0,
                       duration_s=0.0)
        with pytest.raises(ValueError, match="node"):
            FaultEvent(kind=FaultKind.POWER_SAG, node=-1, time_s=1.0,
                       duration_s=1.0)
        with pytest.raises(ValueError):
            FaultEvent(kind=FaultKind.POWER_SAG, node=0, time_s=1.0,
                       duration_s=1.0, severity=1.5)

    def test_timeline_sorted_and_sized(self):
        late = _sag(time_s=5.0)
        early = _sag(time_s=1.0)
        timeline = _timeline(late, early)
        assert [e.time_s for e in timeline.events] == [1.0, 5.0]
        assert len(timeline) == 2 and bool(timeline)
        assert not EMPTY_TIMELINE
        assert timeline.horizon_s == late.end_s

    def test_validate_against_rejects_unknown_node(self):
        timeline = _timeline(_sag(node=7))
        with pytest.raises(ValueError, match="node"):
            timeline.validate_against(num_nodes=2)

    def test_generator_is_seed_deterministic(self):
        kwargs = dict(num_nodes=4, horizon_s=500.0, mtbf_s=100.0)
        a = generate_fault_timeline(seed=3, **kwargs)
        b = generate_fault_timeline(seed=3, **kwargs)
        c = generate_fault_timeline(seed=4, **kwargs)
        assert a == b
        assert a != c
        assert a  # MTBF << horizon: events all but guaranteed
        a.validate_against(num_nodes=4)
        assert all(e.time_s < 500.0 for e in a.events)

    def test_generator_draws_requested_kinds(self):
        timeline = generate_fault_timeline(
            num_nodes=2, horizon_s=2000.0, mtbf_s=50.0, seed=0,
            kinds=(FaultKind.ECC_STALL, FaultKind.LINK_DEGRADE),
        )
        kinds = {e.kind for e in timeline.events}
        assert kinds <= {FaultKind.ECC_STALL, FaultKind.LINK_DEGRADE}
        assert len(kinds) == 2


class TestEmptyTimelineBitIdentity:
    """The strict invariant: no timeline -> the pre-resilience engine."""

    def test_empty_timeline_builds_no_runtime(self, small_cluster):
        assert build_fault_runtime(EMPTY_TIMELINE, small_cluster) is None
        assert build_fault_runtime(
            FaultTimeline(events=()), small_cluster
        ) is None

    @pytest.mark.parametrize("fast", [False, True],
                             ids=["scalar", "vector"])
    def test_explicit_empty_matches_default(
        self, tiny_model, small_cluster, fast_settings, fast
    ):
        base = dataclasses.replace(fast_settings, fast_path=fast)
        kwargs = dict(
            model=tiny_model, cluster=small_cluster,
            parallelism="TP2-PP2", global_batch_size=8,
        )
        plain = execute_training(**kwargs, settings=base)
        explicit = execute_training(
            **kwargs,
            settings=dataclasses.replace(
                base, fault_timeline=EMPTY_TIMELINE,
                collective_timeout_s=12.5,
            ),
        )
        assert_run_results_equal(explicit, plain)
        assert plain.outcome.fault_trace is None
        assert explicit.outcome.fault_trace is None


class TestEngineEffects:
    """Each fault kind perturbs the run the way its physics says."""

    def _run(self, tiny_model, small_cluster, fast_settings,
             timeline=None, fast=False, **extra):
        settings = dataclasses.replace(
            fast_settings, fast_path=fast,
            **({"fault_timeline": timeline} if timeline else {}),
            **extra,
        )
        return execute_training(
            model=tiny_model, cluster=small_cluster,
            parallelism="TP2-PP2", global_batch_size=8,
            settings=settings,
        )

    @pytest.fixture
    def healthy(self, tiny_model, small_cluster, fast_settings):
        return self._run(tiny_model, small_cluster, fast_settings)

    @pytest.mark.parametrize("kind,severity", [
        (FaultKind.POWER_SAG, 0.2),
        (FaultKind.ECC_STALL, 0.4),
        (FaultKind.GPU_FAILSTOP, 0.0),
    ])
    def test_slowing_kinds_lengthen_the_run(
        self, tiny_model, small_cluster, fast_settings, healthy,
        kind, severity,
    ):
        event = FaultEvent(
            kind=kind, node=0, time_s=0.05, duration_s=0.5,
            severity=severity,
        )
        faulted = self._run(
            tiny_model, small_cluster, fast_settings,
            timeline=_timeline(event),
        )
        assert faulted.outcome.makespan_s > healthy.outcome.makespan_s
        trace = faulted.outcome.fault_trace
        assert trace is not None and trace.applied == 1

    def test_link_degrade_slows_internode_traffic(
        self, tiny_model, small_cluster, fast_settings, healthy
    ):
        event = FaultEvent(
            kind=FaultKind.LINK_DEGRADE, node=0, time_s=0.0,
            duration_s=60.0, severity=0.2,
        )
        faulted = self._run(
            tiny_model, small_cluster, fast_settings,
            timeline=_timeline(event),
        )
        assert faulted.outcome.makespan_s > healthy.outcome.makespan_s

    def test_thermal_runaway_heats_the_node(
        self, tiny_model, small_cluster, fast_settings, healthy
    ):
        event = FaultEvent(
            kind=FaultKind.THERMAL_RUNAWAY, node=0, time_s=0.0,
            duration_s=60.0, severity=20.0,
        )
        faulted = self._run(
            tiny_model, small_cluster, fast_settings,
            timeline=_timeline(event),
        )
        # The reactive governor pins the peak at the throttle ceiling,
        # so the inlet offset shows up in the average instead.
        assert faulted.stats().avg_temp_c > healthy.stats().avg_temp_c
        trace = faulted.outcome.fault_trace
        assert trace is not None and trace.applied == 1

    def test_failstop_hang_is_detected(
        self, tiny_model, small_cluster, fast_settings
    ):
        # A frozen node stalls its DP peers at the gradient allreduce;
        # with a timeout shorter than the freeze the watchdog fires.
        # (A pure-DP layout: pipeline stages would serialize the delay
        # onto every rank and hide the rendezvous skew.)
        event = FaultEvent(
            kind=FaultKind.GPU_FAILSTOP, node=0, time_s=0.05,
            duration_s=2.0,
        )
        settings = dataclasses.replace(
            fast_settings, fault_timeline=_timeline(event),
            collective_timeout_s=0.5,
        )
        faulted = execute_training(
            model=tiny_model, cluster=small_cluster,
            parallelism="TP1-PP1", global_batch_size=8,
            settings=settings,
        )
        trace = faulted.outcome.fault_trace
        assert trace is not None
        assert len(trace.hangs) >= 1
        assert faulted.hang_detections()
        hang = trace.hangs[0]
        assert hang.phase == "detected" and hang.kind == "hang"

    @pytest.mark.parametrize("kind", list(FaultKind))
    def test_backends_agree_under_faults(
        self, tiny_model, small_cluster, fast_settings, kind
    ):
        event = FaultEvent(
            kind=kind, node=0, time_s=0.05, duration_s=0.4,
        )
        runs = {}
        for fast in (False, True):
            runs[fast] = self._run(
                tiny_model, small_cluster, fast_settings,
                timeline=_timeline(event), fast=fast,
            )
        scalar, vector = runs[False], runs[True]
        # The two physics backends are oracle and optimization of each
        # other; faults must not open a gap beyond floating-point
        # reduction noise (the same tolerance the fast-path
        # differential suite uses).
        assert vector.outcome.makespan_s == pytest.approx(
            scalar.outcome.makespan_s, rel=1e-9
        )
        assert (
            vector.outcome.fault_trace.applied
            == scalar.outcome.fault_trace.applied
        )


SYNTHETIC = JobProfile(
    step_time_s=1.0,
    power_w=4000.0,
    tokens_per_iteration=2048,
    dp=4,
    checkpoint_bytes=4e9,
    shrunk_step_time_s=1.3,
    shrunk_power_w=3200.0,
)


def _config(**overrides):
    kwargs = dict(
        total_iterations=60,
        checkpoint_interval=10,
        checkpoint_write_s=0.5,
        collective_timeout_s=5.0,
        repair_time_s=120.0,
        restart_delay_s=30.0,
        spare_swapin_s=20.0,
        reconfig_s=5.0,
        fault_times_s=(7.5,),
    )
    kwargs.update(overrides)
    return RecoveryConfig(**kwargs)


class TestPlanInterrupt:
    def test_failstop_rounds_down_to_checkpoint(self):
        plan = plan_interrupt("failstop", 17, 5, restart_delay_s=30.0)
        assert plan.durable_iterations == 15
        assert plan.lost_iterations == plan.replayed_iterations == 2
        assert plan.requeue_delay_s == 30.0

    def test_hot_spare_uses_swapin_delay(self):
        plan = plan_interrupt("hot-spare", 9, 4, spare_swapin_s=12.0)
        assert plan.durable_iterations == 8
        assert plan.requeue_delay_s == 12.0

    def test_elastic_keeps_everything(self):
        plan = plan_interrupt("elastic", 17, 5, reconfig_s=7.0)
        assert plan.durable_iterations == 17
        assert plan.lost_iterations == plan.replayed_iterations == 0
        assert plan.requeue_delay_s == 7.0

    def test_unknown_policy_suggests(self):
        with pytest.raises(ValueError, match="did you mean"):
            plan_interrupt("elastc", 1, 1)


class TestRecoveryWalk:
    """Policy walks over a synthetic profile (no engine probes)."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_conservation(self, policy):
        config = _config(policy=policy)
        run = walk_recovery(config, SYNTHETIC, num_nodes=4)
        assert run.completed + run.replayed + run.lost == run.scheduled
        assert run.completed + run.replayed == config.total_iterations
        assert run.faults_seen == 1
        assert run.hangs_detected == 1

    def test_policy_ordering_on_shared_schedule(self):
        runs = {
            policy: walk_recovery(
                _config(policy=policy), SYNTHETIC, num_nodes=4
            )
            for policy in POLICIES
        }
        assert (
            runs["elastic"].makespan_s
            < runs["hot-spare"].makespan_s
            < runs["failstop"].makespan_s
        )
        assert runs["elastic"].lost < runs["failstop"].lost

    def test_fault_free_walk_is_ideal(self):
        run = walk_recovery(
            _config(fault_times_s=(), mtbf_s=0.0), SYNTHETIC,
            num_nodes=4,
        )
        assert run.faults_seen == 0
        assert run.lost == run.replayed == 0
        checkpoints = _config().total_iterations // 10
        assert run.checkpoint_writes == checkpoints
        expected = (
            _config().total_iterations * SYNTHETIC.step_time_s
            + checkpoints * 0.5
        )
        assert run.makespan_s == pytest.approx(expected)

    def test_mtbf_schedule_is_seeded(self):
        config = _config(fault_times_s=(), mtbf_s=40.0, seed=5)
        a = walk_recovery(config, SYNTHETIC, num_nodes=4)
        b = walk_recovery(config, SYNTHETIC, num_nodes=4)
        assert a.makespan_s == b.makespan_s
        assert a.faults_seen == b.faults_seen > 0

    def test_energy_accounts_every_segment(self):
        run = walk_recovery(_config(policy="failstop"), SYNTHETIC,
                            num_nodes=4)
        total = sum(
            (seg.end_s - seg.start_s) * seg.power_w
            for seg in run.segments
        )
        assert run.energy_j == pytest.approx(total)
        assert run.segments[0].start_s == 0.0
        for prev, cur in zip(run.segments, run.segments[1:]):
            assert cur.start_s == pytest.approx(prev.end_s)


REFERENCE = dict(model="gpt3-13b", cluster="h100x64",
                 parallelism="TP4-PP2")


class TestAcceptance:
    """Paper-level ordering on the reference configuration."""

    def test_policy_ordering_at_plausible_mtbf(self):
        config = RecoveryConfig(
            total_iterations=200, checkpoint_interval=10,
            mtbf_s=1800.0, seed=0,
        )
        runs = compare_policies(**REFERENCE, config=config,
                                global_batch_size=16)
        fail, spare, elastic = (
            runs["failstop"], runs["hot-spare"], runs["elastic"]
        )
        assert fail.faults_seen > 0  # MTBF low enough to matter
        assert (
            fail.goodput_fraction
            <= spare.goodput_fraction
            <= elastic.goodput_fraction
        )
        assert elastic.goodput_fraction > fail.goodput_fraction
        for run in runs.values():
            assert run.completed + run.replayed + run.lost == run.scheduled

    def test_goodput_recovers_with_mtbf(self):
        config = RecoveryConfig(total_iterations=120,
                                checkpoint_interval=10, seed=0)
        rows = sweep_mtbf(
            **REFERENCE, mtbf_values_s=(600.0, 86400.0), config=config,
            global_batch_size=16,
        )
        for policy in POLICIES:
            assert (
                rows[1][policy].goodput_fraction
                >= rows[0][policy].goodput_fraction
            )
        # At a day-scale MTBF a ~10-minute job is effectively fault-free.
        assert rows[1]["failstop"].goodput_fraction > 0.95

    def test_simulate_recovery_fills_ideal(self):
        config = RecoveryConfig(
            total_iterations=100, checkpoint_interval=10,
            fault_times_s=(60.0,),
        )
        run = simulate_recovery(**REFERENCE, config=config,
                                global_batch_size=16)
        assert run.ideal_makespan_s > 0
        assert run.makespan_s > run.ideal_makespan_s
        assert 0 < run.goodput_fraction < 1


class TestFleetDelegation:
    """The fleet's interrupt accounting rides the same closed form."""

    def _fleet(self, **overrides):
        from repro.datacenter.arrivals import ArrivalConfig
        from repro.datacenter.fleet import (
            FleetConfig,
            FleetFault,
            simulate_fleet,
        )

        config = FleetConfig(
            clusters=("h200x32",),
            arrivals=ArrivalConfig(num_jobs=3, seed=1),
            fault_events=(FleetFault(time_s=40.0, cluster=0, node=1),),
            **overrides,
        )
        return simulate_fleet(config)

    def test_default_policy_is_failstop_immediate(self):
        outcome = self._fleet()
        interrupted = [
            r for r in outcome.records.values() if r.restarts
        ]
        assert interrupted
        record = interrupted[0]
        assert record.lost_iterations == record.replayed_iterations
        assert record.completed_iterations == record.spec.iterations

    def test_elastic_fleet_loses_nothing(self):
        outcome = self._fleet(recovery_policy="elastic", reconfig_s=15.0)
        for record in outcome.records.values():
            assert record.lost_iterations == 0
            assert record.replayed_iterations == 0

    def test_recovery_delay_stretches_makespan(self):
        fast = self._fleet()
        slow = self._fleet(restart_delay_s=300.0)
        assert slow.makespan_s > fast.makespan_s

    def test_unknown_policy_suggests(self):
        from repro.datacenter.fleet import FleetConfig

        with pytest.raises(ValueError, match="did you mean"):
            FleetConfig(recovery_policy="hotspare")
