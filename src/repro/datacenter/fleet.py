"""Discrete-event fleet simulator: many jobs, one facility.

This is the layer above a single run that the paper's Section 7
projection gestures at: a pool of clusters (built from
:mod:`repro.hardware`), a queue of stochastically arriving jobs, a
placement policy, a facility power-cap admission controller, and node
faults with checkpoint/restart recovery.

Mechanics
---------
Each distinct job shape is micro-simulated once through
:mod:`repro.core.experiment` (see
:func:`repro.datacenter.jobs.profile_job`); the fleet then advances jobs
analytically: an attempt placed at ``t`` on nodes with thermal headroom
runs its remaining iterations at ``step_time / clock`` where ``clock``
combines the admission controller's frequency cap and the thermal derate
of the hottest assigned node. Node temperatures follow a first-order
exponential toward the running job's steady-state temperature (heating)
or the chassis ambient (cooling) — the fleet-granularity analogue of the
per-GPU RC model the micro-simulator integrates.

A node fault (random MTBF draw or injected :class:`FleetFault`)
interrupts the resident job: iterations since its last checkpoint are
discarded as *lost*, the job requeues at the head of the queue, and the
node is down for ``repair_time_s``. Goodput therefore lags throughput by
exactly the work the fault schedule destroyed.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from dataclasses import dataclass, field

from repro.datacenter.arrivals import ArrivalConfig, generate_arrivals
from repro.datacenter.jobs import (
    JobKind,
    JobProfile,
    JobRecord,
    JobState,
    PlacementInterval,
    profile_job,
)
from repro.datacenter.metrics import (
    FleetMetrics,
    FleetSample,
    fleet_metrics,
)
from repro.datacenter.placement import (
    POLICIES,
    NodeState,
    Placement,
    select_nodes,
    thermal_derate,
)
from repro.datacenter.powercap import AdmissionController, PowerCapConfig
from repro.hardware.cluster import ClusterSpec, get_cluster
from repro.powerctl.config import (
    NO_POWER_CONTROL,
    PowerControlConfig,
    freq_for_power_limit,
)
from repro.resilience.recovery import (
    POLICIES as RECOVERY_POLICIES,
    plan_interrupt,
)
from repro.suggest import unknown_name_message


@dataclass(frozen=True)
class FleetFault:
    """An injected node failure at a known time (forced, not random)."""

    time_s: float
    cluster: int
    node: int

    def __post_init__(self) -> None:
        if self.time_s < 0 or self.cluster < 0 or self.node < 0:
            raise ValueError("fault coordinates must be non-negative")


@dataclass(frozen=True)
class FleetConfig:
    """Everything one fleet simulation needs.

    Attributes:
        clusters: pool members — catalog names or
            :class:`~repro.hardware.cluster.ClusterSpec` objects.
        policy: placement policy (:data:`~repro.datacenter.placement.
            POLICIES`).
        power_cap: facility budget and enforcement mode.
        arrivals: stochastic submission trace parameters.
        seed: fleet-level seed (random MTBF fault draws).
        node_mtbf_s: mean time between failures per node; 0 disables
            random faults.
        repair_time_s: downtime after a fault before the node returns.
        recovery_policy: how interrupted jobs recover
            (:data:`repro.resilience.recovery.POLICIES`). ``failstop``
            rolls back to the last checkpoint; ``hot-spare`` rolls back
            too but requeues after only ``spare_swapin_s``; ``elastic``
            keeps all progress (DP survivors hold the model state) and
            requeues after ``reconfig_s``. Interrupt accounting is
            delegated to :func:`repro.resilience.recovery.plan_interrupt`
            so the fleet and the per-job resilience walk agree.
        restart_delay_s / spare_swapin_s / reconfig_s: recovery latency
            before an interrupted job is runnable again, per policy.
            All default to 0, which preserves the legacy
            immediate-requeue behaviour.
        fault_events: forced faults at known times (on top of MTBF).
        heating_tau_s / cooling_tau_s: node thermal time constants.
        throttle_onset_c / throttle_full_c / throttle_min_clock: the
            fleet-granularity derate curve for jobs starting on hot
            nodes.
        straggler_power_fraction: share of a thermally derated job's
            dynamic draw that does *not* scale down with the derate —
            the paper's straggler effect: only the hot GPUs throttle,
            the rest of the job stalls at synchronisation points while
            still burning near-full power. Thermal throttling therefore
            costs energy per token, unlike a coordinated admission
            frequency cap (which scales as clock^2 across the job).
        power_control: fleet-wide GPU power management. Only the
            ``none`` and ``static`` governors compose at fleet
            granularity (a uniform clock ceiling or per-GPU power
            limit applied to every placed job); the closed-loop
            governors need per-step thermal state and run inside
            per-job simulations via ``SimSettings.power_control``.
            The static ceiling multiplies the admission controller's
            frequency cap, and the job's governed draw (scaling as
            setpoint^2) is what the facility power cap admits — so a
            fleet-wide cap frees cap headroom and reduces deferrals.
        max_sim_s: hard wall on simulated time (runaway guard).
    """

    clusters: tuple[str | ClusterSpec, ...] = ("h200x32",)
    policy: str = "packed"
    power_cap: PowerCapConfig = field(default_factory=PowerCapConfig)
    arrivals: ArrivalConfig = field(default_factory=ArrivalConfig)
    seed: int = 0
    node_mtbf_s: float = 0.0
    repair_time_s: float = 180.0
    recovery_policy: str = "failstop"
    restart_delay_s: float = 0.0
    spare_swapin_s: float = 0.0
    reconfig_s: float = 0.0
    fault_events: tuple[FleetFault, ...] = ()
    heating_tau_s: float = 30.0
    cooling_tau_s: float = 120.0
    throttle_onset_c: float = 45.0
    throttle_full_c: float = 95.0
    throttle_min_clock: float = 0.6
    straggler_power_fraction: float = 0.7
    power_control: PowerControlConfig = NO_POWER_CONTROL
    max_sim_s: float = 1e6

    def __post_init__(self) -> None:
        if not self.clusters:
            raise ValueError("fleet needs at least one cluster")
        if self.policy not in POLICIES:
            raise ValueError(
                unknown_name_message("policy", self.policy, POLICIES)
            )
        if self.node_mtbf_s < 0 or self.repair_time_s <= 0:
            raise ValueError("MTBF must be >= 0 and repair time positive")
        if self.recovery_policy not in RECOVERY_POLICIES:
            raise ValueError(
                unknown_name_message(
                    "recovery policy", self.recovery_policy,
                    RECOVERY_POLICIES,
                )
            )
        if min(
            self.restart_delay_s, self.spare_swapin_s, self.reconfig_s
        ) < 0:
            raise ValueError("recovery delays must be >= 0")
        if self.heating_tau_s <= 0 or self.cooling_tau_s <= 0:
            raise ValueError("thermal time constants must be positive")
        if not 0.0 <= self.straggler_power_fraction <= 1.0:
            raise ValueError(
                "straggler_power_fraction must be in [0, 1]"
            )
        if self.power_control.active:
            if self.power_control.governor != "static":
                raise ValueError(
                    "fleet power control supports the 'none' and 'static' "
                    f"governors; {self.power_control.governor!r} is "
                    "closed-loop and runs inside per-job simulations "
                    "(SimSettings.power_control)"
                )
            if self.power_control.gpu_freq_setpoints:
                raise ValueError(
                    "fleet power control is uniform per job; per-GPU "
                    "setpoints are not supported at fleet granularity"
                )


@dataclass
class _RunningJob:
    """Book-keeping of one in-flight attempt."""

    record: JobRecord
    placement: Placement
    start_s: float
    attempt: int
    clock: float
    committed_w: float
    dynamic_w: float
    step_time_s: float
    power_w: float


@dataclass
class FleetOutcome:
    """Everything one fleet simulation produced."""

    config: FleetConfig
    clusters: tuple[ClusterSpec, ...]
    records: dict[str, JobRecord]
    samples: list[FleetSample]
    makespan_s: float
    energy_j: float
    idle_floor_w: float
    peak_committed_w: float
    deferred_admissions: int
    capped_admissions: int

    def metrics(self) -> FleetMetrics:
        """Distil the run into headline fleet metrics."""
        return fleet_metrics(
            records=list(self.records.values()),
            samples=self.samples,
            makespan_s=self.makespan_s,
            energy_j=self.energy_j,
            peak_committed_w=self.peak_committed_w,
            deferred=self.deferred_admissions,
            capped=self.capped_admissions,
        )


class FleetSim:
    """Runs one fleet scenario to completion."""

    def __init__(self, config: FleetConfig) -> None:
        self.config = config
        self.clusters: tuple[ClusterSpec, ...] = tuple(
            c if isinstance(c, ClusterSpec) else get_cluster(c)
            for c in config.clusters
        )
        max_nodes = max(c.num_nodes for c in self.clusters)
        self._arrivals = generate_arrivals(config.arrivals)
        for arrival in self._arrivals:
            if arrival.spec.nodes_required > max_nodes:
                raise ValueError(
                    f"job {arrival.spec.name} needs "
                    f"{arrival.spec.nodes_required} nodes; largest cluster "
                    f"has {max_nodes}"
                )

        self._nodes: list[NodeState] = []
        for ci, cluster in enumerate(self.clusters):
            for ni in range(cluster.num_nodes):
                self._nodes.append(
                    NodeState(
                        cluster=ci, node=ni, temp_c=cluster.node.ambient_c
                    )
                )
        self._node_index = {
            (s.cluster, s.node): s for s in self._nodes
        }
        idle_floor = sum(
            c.num_nodes * c.node.gpus_per_node * c.node.gpu.idle_watts
            for c in self.clusters
        )
        self.controller = AdmissionController(config.power_cap, idle_floor)
        self.idle_floor_w = idle_floor

        self._rng = random.Random(config.seed)
        self._heap: list[tuple[float, int, str, tuple]] = []
        self._seq = itertools.count()
        self._queue: list[str] = []
        self._records: dict[str, JobRecord] = {}
        self._running: dict[str, _RunningJob] = {}
        self._attempts: dict[str, int] = {}
        self._enqueued_at: dict[str, float] = {}
        self._samples: list[FleetSample] = []
        self._dynamic_energy_j = 0.0
        self._pending_arrivals = len(self._arrivals)
        self._now = 0.0

        for arrival in self._arrivals:
            self._push(arrival.time_s, "arrival", (arrival,))
        for fault in config.fault_events:
            if fault.cluster >= len(self.clusters) or (
                fault.node >= self.clusters[fault.cluster].num_nodes
            ):
                raise ValueError(f"fault targets unknown node: {fault}")
            self._push(fault.time_s, "fault", (fault.cluster, fault.node))
        if config.node_mtbf_s > 0:
            for state in self._nodes:
                self._schedule_random_fault(state, 0.0)

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------

    def run(self) -> FleetOutcome:
        """Process every event until all jobs complete."""
        handlers = {
            "arrival": self._on_arrival,
            "done": self._on_done,
            "fault": self._on_fault,
            "repair": self._on_repair,
            "requeue": self._on_requeue,
        }
        makespan = 0.0
        while self._heap:
            time_s, _, kind, payload = heapq.heappop(self._heap)
            if time_s > self.config.max_sim_s:
                raise RuntimeError(
                    f"fleet simulation exceeded max_sim_s="
                    f"{self.config.max_sim_s}"
                )
            self._now = time_s
            self._advance_all_temps(time_s)
            handlers[kind](time_s, *payload)
            self._sample(kind, time_s)
            if self._all_done():
                makespan = time_s
                break
            self._check_stuck()
        else:
            if not self._all_done():
                self._check_stuck()
            makespan = self._now
        energy = self.idle_floor_w * makespan + self._dynamic_energy_j
        return FleetOutcome(
            config=self.config,
            clusters=self.clusters,
            records=self._records,
            samples=self._samples,
            makespan_s=makespan,
            energy_j=energy,
            idle_floor_w=self.idle_floor_w,
            peak_committed_w=self.controller.peak_committed_w,
            deferred_admissions=self.controller.deferred,
            capped_admissions=self.controller.capped,
        )

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------

    def _on_arrival(self, now: float, arrival) -> None:
        record = JobRecord(spec=arrival.spec, submit_s=now)
        self._records[arrival.spec.name] = record
        self._queue.append(arrival.spec.name)
        self._enqueued_at[arrival.spec.name] = now
        self._pending_arrivals -= 1
        self._dispatch(now)

    def _on_done(self, now: float, name: str, attempt: int) -> None:
        running = self._running.get(name)
        if running is None or running.attempt != attempt:
            return  # stale completion from an interrupted attempt
        record = running.record
        duration = now - running.start_s
        record.completed_iterations = record.spec.iterations
        self._account_energy(running, duration)
        record.intervals.append(
            PlacementInterval(
                cluster=running.placement.cluster,
                nodes=running.placement.nodes,
                start_s=running.start_s,
                end_s=now,
                clock=running.clock,
                interrupted=False,
            )
        )
        record.state = JobState.COMPLETED
        record.end_s = now
        self._free_nodes(running.placement, now)
        self.controller.release(running.committed_w)
        del self._running[name]
        self._dispatch(now)

    def _on_fault(self, now: float, cluster: int, node: int) -> None:
        state = self._node_index[(cluster, node)]
        if not state.healthy:
            return  # already down; a repair is scheduled
        state.healthy = False
        victim = state.job
        if victim is not None:
            self._interrupt(victim, now)
        self._push(now + self.config.repair_time_s, "repair", (cluster, node))
        self._dispatch(now)

    def _on_requeue(self, now: float, name: str) -> None:
        """An interrupted job finished recovering and is runnable again."""
        self._queue.insert(0, name)  # resume ahead of newer work
        self._enqueued_at[name] = now
        self._dispatch(now)

    def _on_repair(self, now: float, cluster: int, node: int) -> None:
        state = self._node_index[(cluster, node)]
        state.healthy = True
        if self.config.node_mtbf_s > 0:
            self._schedule_random_fault(state, now)
        self._dispatch(now)

    # ------------------------------------------------------------------
    # Placement and recovery
    # ------------------------------------------------------------------

    def _dispatch(self, now: float) -> None:
        """Place queued jobs (FIFO with backfill) while anything fits."""
        placed = True
        while placed:
            placed = False
            for name in list(self._queue):
                if self._try_place(name, now):
                    placed = True
                    break  # re-scan from the head: FIFO priority

    def _governed_setpoint(self, cluster: ClusterSpec) -> float:
        """Uniform clock ceiling the fleet governor imposes on a job."""
        control = self.config.power_control
        if not control.active:
            return 1.0
        if control.power_limit_w is not None:
            return freq_for_power_limit(
                cluster.node.gpu, control.power_limit_w
            )
        return control.freq_setpoint

    def _try_place(self, name: str, now: float) -> bool:
        record = self._records[name]
        spec = record.spec
        placement = select_nodes(
            self.config.policy, self._nodes, spec.nodes_required
        )
        if placement is None:
            return False
        cluster = self.clusters[placement.cluster]
        thermal = (
            self.config.policy == "thermal-aware"
            and spec.kind is JobKind.TRAINING
        )
        profile = profile_job(spec, cluster, thermal_placement=thermal)
        record.profile = profile
        # A fleet-wide static governor caps the job's clock before the
        # facility cap sees it: the admitted draw is the governed one
        # (coordinated DVFS, ~ setpoint^2), composing with — not
        # stacking under — the admission controller's own cap mode.
        setpoint = self._governed_setpoint(cluster)
        governed_dynamic = profile.dynamic_power_w() * setpoint * setpoint
        admission = self.controller.admit(governed_dynamic)
        if not admission.admitted:
            return False

        hottest = max(
            self._node_index[(placement.cluster, n)].temp_c
            for n in placement.nodes
        )
        derate = thermal_derate(
            hottest,
            self.config.throttle_onset_c,
            self.config.throttle_full_c,
            self.config.throttle_min_clock,
        )
        clock = admission.clock * setpoint * derate
        step = profile.step_time_s / clock
        # Admission caps are coordinated DVFS (draw ~ clock^2); thermal
        # derates are stragglers — most of the job keeps burning power
        # while it waits on the throttled hot node.
        alpha = self.config.straggler_power_fraction
        thermal_power_scale = alpha + (1.0 - alpha) * derate * derate
        dynamic = (
            governed_dynamic
            * admission.clock * admission.clock
            * thermal_power_scale
        )
        attempt = self._attempts.get(name, 0) + 1
        self._attempts[name] = attempt
        self._running[name] = _RunningJob(
            record=record,
            placement=placement,
            start_s=now,
            attempt=attempt,
            clock=clock,
            committed_w=admission.committed_w,
            dynamic_w=dynamic,
            step_time_s=step,
            power_w=profile.idle_power_w + dynamic,
        )
        for n in placement.nodes:
            state = self._node_index[(placement.cluster, n)]
            state.busy = True
            state.job = name
        record.state = JobState.RUNNING
        record.queue_wait_s += now - self._enqueued_at[name]
        if record.first_start_s is None:
            record.first_start_s = now
        self._queue.remove(name)
        finish = now + record.remaining_iterations * step
        self._push(finish, "done", (name, attempt))
        return True

    def _interrupt(self, name: str, now: float) -> None:
        """A fault killed this job's attempt: recover it per policy.

        The accounting — what survives the interrupt, what is lost, what
        must be replayed, and how long recovery takes — is delegated to
        :func:`repro.resilience.recovery.plan_interrupt`, the same
        closed form the per-job resilience walk uses. ``elastic`` is the
        fleet-granularity approximation of DP-shrink continuation: the
        survivors hold the model state, so nothing rolls back and the
        job is runnable again after one re-group delay.
        """
        config = self.config
        running = self._running.pop(name)
        record = running.record
        elapsed = now - running.start_s
        steps = min(
            record.remaining_iterations,
            int(elapsed / running.step_time_s + 1e-9),
        )
        plan = plan_interrupt(
            config.recovery_policy,
            steps,
            record.spec.checkpoint_interval,
            restart_delay_s=config.restart_delay_s,
            spare_swapin_s=config.spare_swapin_s,
            reconfig_s=config.reconfig_s,
        )
        record.completed_iterations += plan.durable_iterations
        record.lost_iterations += plan.lost_iterations
        record.replayed_iterations += plan.replayed_iterations
        record.restarts += 1
        self._account_energy(running, elapsed)
        record.intervals.append(
            PlacementInterval(
                cluster=running.placement.cluster,
                nodes=running.placement.nodes,
                start_s=running.start_s,
                end_s=now,
                clock=running.clock,
                interrupted=True,
            )
        )
        self._free_nodes(running.placement, now)
        self.controller.release(running.committed_w)
        record.state = JobState.QUEUED
        if plan.requeue_delay_s > 0:
            # Recovery latency (restore / spare swap-in / re-group): the
            # job is runnable only once it elapses. Not counted as queue
            # wait — the job is recovering, not waiting for capacity.
            self._push(now + plan.requeue_delay_s, "requeue", (name,))
        else:
            self._queue.insert(0, name)  # resume ahead of newer work
            self._enqueued_at[name] = now

    # ------------------------------------------------------------------
    # Physics, accounting, plumbing
    # ------------------------------------------------------------------

    def _advance_all_temps(self, now: float) -> None:
        for state in self._nodes:
            dt = now - state.last_update_s
            if dt <= 0:
                continue
            running = (
                self._running.get(state.job) if state.job is not None
                else None
            )
            if state.busy and running is not None:
                target = running.record.profile.steady_temp_c
                tau = self.config.heating_tau_s
            else:
                target = self.clusters[state.cluster].node.ambient_c
                tau = self.config.cooling_tau_s
            state.temp_c = target + (state.temp_c - target) * math.exp(
                -dt / tau
            )
            state.last_update_s = now

    def _account_energy(self, running: _RunningJob, duration: float) -> None:
        running.record.energy_j += duration * running.power_w
        self._dynamic_energy_j += duration * running.dynamic_w

    def _free_nodes(self, placement: Placement, now: float) -> None:
        for n in placement.nodes:
            state = self._node_index[(placement.cluster, n)]
            state.busy = False
            state.job = None
            state.last_release_s = now

    def _schedule_random_fault(self, state: NodeState, now: float) -> None:
        delay = self._rng.expovariate(1.0 / self.config.node_mtbf_s)
        self._push(now + delay, "fault", (state.cluster, state.node))

    def _sample(self, event: str, now: float) -> None:
        temps = [s.temp_c for s in self._nodes]
        spread = 0.0
        for ci in range(len(self.clusters)):
            cluster_temps = [
                s.temp_c for s in self._nodes if s.cluster == ci
            ]
            spread = max(spread, max(cluster_temps) - min(cluster_temps))
        power = self.idle_floor_w + sum(
            r.dynamic_w for r in self._running.values()
        )
        self._samples.append(
            FleetSample(
                time_s=now,
                event=event,
                running_jobs=len(self._running),
                queued_jobs=len(self._queue),
                busy_nodes=sum(1 for s in self._nodes if s.busy),
                committed_w=self.controller.committed_w,
                power_w=power,
                mean_temp_c=sum(temps) / len(temps),
                peak_temp_c=max(temps),
                temp_spread_c=spread,
            )
        )

    def _push(self, time_s: float, kind: str, payload: tuple) -> None:
        heapq.heappush(
            self._heap, (time_s, next(self._seq), kind, payload)
        )

    def _all_done(self) -> bool:
        return (
            self._pending_arrivals == 0
            and not self._queue
            and not self._running
            and all(
                r.state is JobState.COMPLETED
                for r in self._records.values()
            )
        )

    def _check_stuck(self) -> None:
        if self._heap or self._pending_arrivals or self._running:
            return
        if self._queue:
            raise RuntimeError(
                f"{len(self._queue)} jobs can never be placed (power cap "
                "too tight for their draw, or nodes permanently down): "
                f"{self._queue[:4]}"
            )


def simulate_fleet(config: FleetConfig, jobs: int = 1) -> FleetOutcome:
    """Convenience wrapper: build a :class:`FleetSim` and run it.

    Args:
        config: the scenario to simulate.
        jobs: worker processes used to pre-profile distinct job shapes
            before the event loop starts (see
            :func:`repro.datacenter.jobs.preprofile_jobs`); 1 keeps the
            serial lazy-profiling path. Results are independent of
            ``jobs``.
    """
    sim = FleetSim(config)
    if jobs != 1:
        from repro.datacenter.jobs import preprofile_jobs

        preprofile_jobs(
            [arrival.spec for arrival in sim._arrivals],
            sim.clusters,
            thermal_training=config.policy == "thermal-aware",
            jobs=jobs,
        )
    return sim.run()
