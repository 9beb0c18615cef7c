"""Discrete-event simulator with power/thermal co-simulation.

The simulator executes every rank's task queue. Cross-rank timing comes
only from communication semantics (eager P2P, rendezvous collectives; see
:mod:`repro.engine.task`). Concurrently, a fixed-step physics loop
integrates each node's RC thermal model and DVFS governor; compute-kernel
durations are divided by the issuing GPU's current clock ratio, closing
the loop the paper highlights: heat -> throttling -> stragglers ->
synchronisation skew.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.comm.collectives import (
    CommCost,
    allgather,
    allreduce,
    alltoall,
    reduce_scatter,
    send_recv,
)
from repro.comm.contention import NicContention
from repro.comm.traffic import TrafficLedger
from repro.core.faults import EMPTY_TIMELINE, HEALTHY, FaultSpec, FaultTimeline
from repro.engine.kernels import KernelKind, KernelTable
from repro.engine.physics import DEFAULT_STEP_S, PowerVector, VectorPhysics
from repro.engine.task import CollectiveOp, ComputeSpec, Task, TaskGraph, TaskKind
from repro.hardware.interconnect import LinkKind
from repro.optimizations.overlap import OVERLAP_COMM_SLOWDOWN, fused_duration
from repro.parallelism.mapping import DeviceMesh
from repro.power.model import Activity, gpu_power
from repro.powerctl.config import NO_POWER_CONTROL, PowerControlConfig
from repro.powerctl.governor import (
    PowerControlTrace,
    PowerCtlObservation,
    build_runtime,
)
from repro.resilience.runtime import FaultTrace, build_fault_runtime
from repro.telemetry.monitor import TelemetryLog

EPS = 2e-6

_COLLECTIVE_FNS = {
    CollectiveOp.ALLREDUCE: allreduce,
    CollectiveOp.ALLGATHER: allgather,
    CollectiveOp.REDUCE_SCATTER: reduce_scatter,
    CollectiveOp.ALLTOALL: alltoall,
}


class DeadlockError(RuntimeError):
    """Raised when the event queue drains with unfinished rank queues."""


@dataclass(frozen=True)
class SimSettings:
    """Simulation fidelity knobs.

    Attributes:
        physics_dt_s: thermal/governor integration step.
        telemetry_interval_s: telemetry sampling period (Zeus poll rate).
        thermal_prewarm: start from the thermal steady state of a busy
            cluster instead of cold metal (stands in for the paper's 10
            discarded warm-up iterations).
        prewarm_busy_fraction: assumed duty cycle for the prewarm
            equilibrium estimate.
        faults: node degradations active for the whole run (power
            failures, pinned clocks) — the paper's straggler incident.
        power_control: closed-loop GPU power management
            (:mod:`repro.powerctl`). The default disables it entirely:
            no runtime is built and the physics follows the exact
            pre-powerctl code path, bit for bit.
        fault_timeline: transient mid-run fault events
            (:mod:`repro.resilience`). The empty default builds no
            fault runtime at all: the physics follows the exact
            pre-resilience code path, bit for bit.
        collective_timeout_s: NCCL-style watchdog — a rendezvous
            collective whose arrival skew exceeds this is recorded as a
            hang on the fault trace (only consulted when a fault
            timeline is active).
    """

    physics_dt_s: float = DEFAULT_STEP_S
    telemetry_interval_s: float = 0.1
    thermal_prewarm: bool = True
    prewarm_busy_fraction: float = 0.75
    faults: FaultSpec = HEALTHY
    power_control: PowerControlConfig = NO_POWER_CONTROL
    fault_timeline: FaultTimeline = EMPTY_TIMELINE
    collective_timeout_s: float = 30.0


@dataclass
class SimOutcome:
    """Everything one simulated run produced.

    Attributes:
        records: Chakra-style kernel records across all GPUs, in
            completion order, as a column table (iterate it for
            :class:`~repro.engine.kernels.KernelRecord` rows).
        makespan_s: completion time of the last task.
        iteration_end_s: per-iteration completion times.
        telemetry: sampled per-GPU time series, held as one
            ``(samples, num_gpus)`` matrix per field.
        traffic: per-GPU fabric byte counters.
        throttle_ratio: per-physical-GPU fraction of time throttled.
        mean_freq_ratio: per-physical-GPU time-weighted clock ratio.
        tokens_per_iteration / num_iterations: workload geometry.
        power_control: setpoint timeline and decision log of the active
            :mod:`repro.powerctl` governor (None when power control was
            off).
        fault_trace: applied fault transitions and detected hangs of the
            run's :class:`~repro.core.faults.FaultTimeline` (None when
            the timeline was empty).
    """

    records: KernelTable
    makespan_s: float
    iteration_end_s: list[float]
    telemetry: TelemetryLog
    traffic: TrafficLedger
    throttle_ratio: list[float]
    mean_freq_ratio: list[float]
    tokens_per_iteration: int
    num_iterations: int
    power_control: PowerControlTrace | None = None
    fault_trace: FaultTrace | None = None


@dataclass(slots=True)
class CommMemos:
    """Communication costs a :class:`Simulator` fills as it runs.

    Several simulators of one mesh may share one instance: each key
    (collective op/p2p pair, rank group or GPU pair, payload, contention
    share) fixes its cost within a mesh, so a shared memo returns exactly
    what a fresh one would compute. Never share one across meshes.

    Attributes:
        comm: (op/kind, group, payload, bandwidth scale) -> CommCost.
    """

    comm: dict[tuple, CommCost] = field(default_factory=dict)


@dataclass(slots=True)
class _RunningCollective:
    """Book-keeping of an in-flight rendezvous collective."""

    group_start_s: float = 0.0
    arrivals: dict[int, float] = field(default_factory=dict)
    nic_nodes: tuple[int, ...] = ()
    pcie_rates: list[tuple[int, float]] = field(default_factory=list)
    comm_duration_s: float = 0.0


class Simulator:
    """Executes a :class:`TaskGraph` on a :class:`DeviceMesh`.

    ``memos`` lets runs of one mesh share their communication memos
    (see :class:`CommMemos`); by default each run starts empty.
    """

    def __init__(
        self,
        mesh: DeviceMesh,
        graph: TaskGraph,
        settings: SimSettings | None = None,
        memos: CommMemos | None = None,
    ) -> None:
        self.mesh = mesh
        self.graph = graph
        self.settings = settings or SimSettings()
        self.cluster = mesh.cluster
        self.world = graph.world_size
        if self.world != self.cluster.total_gpus:
            raise ValueError("task graph and cluster size mismatch")

        num_gpus = self.cluster.total_gpus
        self._pos = [0] * self.world
        # Heap entries are (time, seq, handler, *payload); ``seq`` breaks
        # time ties in push order, so the handler is never compared.
        self._heap: list[tuple] = []
        self._seq = itertools.count()

        self._compute_active = [0.0] * num_gpus
        self._comm_active = [0.0] * num_gpus
        self._memory_active = [0.0] * num_gpus
        self._pcie_rate = [0.0] * num_gpus

        node = self.cluster.node
        self._physics = VectorPhysics(self.cluster, self.settings.faults)
        self._power_vec = PowerVector(self.cluster)
        self._activity_dirty = True
        # The powers of the last physics step, (1, num_gpus), and the
        # telemetry rows that change only with activity (compute/comm
        # flags and the PCIe row), built at the first sample after each
        # refresh; every _pcie_rate change also marks activity dirty.
        self._powers: np.ndarray | None = None
        self._activity_rows: tuple | None = None
        # Lane 0's clocks as Python floats, refreshed whenever a physics
        # step replaces the clock array; a compute kernel reads its
        # GPU's entry once, at its start.
        self._freq = self._physics.freq
        self._clocks = self._freq.reshape(-1).tolist()

        # Closed-loop power control (repro.powerctl). Everything below
        # is guarded on self._powerctl so the default stays a strict
        # no-op.
        self._powerctl = build_runtime(
            self.settings.power_control, self.cluster
        )
        # The per-step control tick, for a governor that can actuate
        # mid-run (a static cap acts once, before the first step).
        self._closed_loop = (
            self._powerctl is not None and self._powerctl.closed_loop
        )
        self._next_control = 0.0
        self._control_elapsed = 0.0
        self._busy_time = (
            np.zeros(num_gpus)
            if self._powerctl is not None
            and self._powerctl.needs_busy_fraction
            else None
        )

        # Transient fault injection (repro.resilience). Everything it
        # touches is guarded on self._faultrt, so the empty-timeline
        # default stays a strict no-op.
        self._faultrt = build_fault_runtime(
            self.settings.fault_timeline,
            self.cluster,
            collective_timeout_s=self.settings.collective_timeout_s,
        )

        # Precomputed rank/GPU index tables (hot-path: avoids repeated
        # method dispatch through mesh/cluster per event).
        self._gpu_of = [self.mesh.gpu_of(r) for r in range(self.world)]
        per_node = node.gpus_per_node
        self._node_of = [g // per_node for g in range(num_gpus)]
        self._sustained = node.gpu.sustained_flops
        # Communication costs, shared across microbatches and iterations
        # (and across runs, when the caller passes the memos).
        self._comm_memo = (memos if memos is not None else CommMemos()).comm
        # Per-run comm plans (:meth:`_plan`, :meth:`_price`), and the
        # traffic slots their prices fold into the traffic ledger at the
        # end of the run: id(cost) -> [cost, repeats], in first-use order.
        self._plans: dict[tuple, tuple] = {}
        self._traffic_slots: dict[int, list] = {}
        self._queues = graph.queues

        self.telemetry = TelemetryLog(
            num_gpus=num_gpus,
            sample_interval_s=self.settings.telemetry_interval_s,
        )
        self.traffic = TrafficLedger(num_gpus=num_gpus)
        self._contention = NicContention(num_nodes=self.cluster.num_nodes)

        self._delivery: dict[int, float] = {}
        self._waiting: dict[int, tuple[Task, int, float]] = {}
        self._collectives: dict[int, _RunningCollective] = {}
        # Kernel records, eight values each in KernelTable column order
        # (KernelKind members in the kind column), sliced by ``run``.
        self._records: list = []
        self._record = self._records.extend
        self._iteration_end: dict[int, float] = {}

        self._phys_time = 0.0
        self._next_sample = 0.0

        # Completion handlers as plain functions called with the
        # simulator, so a finished run holds no reference cycle and is
        # freed by refcount. ``run`` reads them from here once.
        cls = type(self)
        self._handlers = {
            "compute": cls._on_compute_done,
            "send": cls._on_send_done,
            "recv": cls._on_recv_done,
            "collective": cls._on_collective_done,
        }

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(self) -> SimOutcome:
        """Execute the full graph and return the collected outcome."""
        if self._powerctl is not None:
            initial = self._powerctl.initial_setpoints()
            if initial is not None:
                self._physics.set_setpoints(initial)
            self._next_control = self._powerctl.config.control_interval_s
        if self.settings.thermal_prewarm:
            self._prewarm()
        handlers = self._handlers
        self._compute_done = handlers["compute"]
        self._send_done = handlers["send"]
        self._recv_done = handlers["recv"]
        self._collective_done = handlers["collective"]
        for rank in range(self.world):
            self._start(rank, 0.0)

        heap = self._heap
        pop = heapq.heappop
        dt = self.settings.physics_dt_s
        physics_step = self._physics_step
        phys_time = self._phys_time
        now = 0.0
        while heap:
            entry = pop(heap)
            now = entry[0]
            while now - phys_time >= dt:
                physics_step(dt)
                phys_time = self._phys_time
            entry[2](self, entry)
        makespan = now
        self._flush_physics(makespan)
        self._flush_traffic()
        self._check_finished()
        self.telemetry.trim()
        records = self._records
        return SimOutcome(
            records=KernelTable.from_lists(
                *(records[column::8] for column in range(8))
            ),
            makespan_s=makespan,
            iteration_end_s=[
                self._iteration_end[i]
                for i in range(self.graph.num_iterations)
            ],
            telemetry=self.telemetry,
            traffic=self.traffic,
            throttle_ratio=self._physics.throttle_ratios(),
            mean_freq_ratio=self._physics.mean_freq_ratios(),
            tokens_per_iteration=self.graph.tokens_per_iteration,
            num_iterations=self.graph.num_iterations,
            power_control=(
                self._powerctl.trace if self._powerctl is not None else None
            ),
            fault_trace=(
                self._faultrt.trace if self._faultrt is not None else None
            ),
        )

    # ------------------------------------------------------------------
    # Task dispatch
    # ------------------------------------------------------------------

    def _start(self, rank: int, now: float) -> None:
        """Start ``rank``'s next task (if any) at ``now``.

        A compute kernel starts inline (:meth:`_kernel_duration`'s
        formula): its duration divides its FLOPs by the GPU's clock at
        this instant, then its activity stacks on the GPU and its
        completion is pushed.
        """
        queue = self._queues[rank]
        pos = self._pos[rank]
        if pos >= len(queue):
            return
        task = queue[pos]
        kind = task.kind
        if kind is not TaskKind.COMPUTE:
            if kind is TaskKind.SEND:
                self._start_send(task, rank, now)
            elif kind is TaskKind.RECV:
                self._start_recv(task, rank, now)
            else:
                self._arrive_collective(task, rank, now)
            return
        gpu = self._gpu_of[rank]
        spec = task.compute
        duration = spec.fixed_duration_s
        if duration is None:
            duration = spec.flops / (
                self._sustained * spec.efficiency * self._clocks[gpu]
            )
            if spec.overlapped_comm_s > 0:
                duration = fused_duration(duration, spec.overlapped_comm_s)
        if spec.min_duration_s > duration:
            duration = spec.min_duration_s
        if self._faultrt is not None:
            duration = self._fault_penalty(duration, gpu, now)
        activity = spec.activity
        self._compute_active[gpu] += activity.compute
        self._comm_active[gpu] += activity.comm
        self._memory_active[gpu] += activity.memory
        self._activity_dirty = True
        heapq.heappush(self._heap, (
            now + duration, next(self._seq), self._compute_done,
            task, rank, now,
        ))

    def _start_send(self, task: Task, rank: int, now: float) -> None:
        spec = task.p2p
        key = (spec.src, spec.dst, spec.payload_bytes, spec.chunked)
        plan = self._plans.get(key) or self._plan(key, key[:2])
        (src_gpu, dst_gpu), nodes, prices = plan
        if nodes:
            share = self._contention.begin(nodes)
            if self._faultrt is not None:
                share *= self._faultrt.link_scale(nodes, now)
        else:
            share = 1.0
        price = prices.get(share)
        if price is None:
            price = self._price(
                prices, share, 1,
                ("p2p", src_gpu, dst_gpu, spec.payload_bytes, spec.chunked,
                 share),
                send_recv, self.cluster, src_gpu, dst_gpu,
                spec.payload_bytes, chunked=spec.chunked,
            )
        _, duration, _, rates, slot = price
        slot[1] += 1
        pcie_rate = self._pcie_rate
        for gpu, rate in rates:
            pcie_rate[gpu] += rate
        self._comm_active[src_gpu] += 1
        self._activity_dirty = True
        done = now + duration
        self._delivery[spec.message_id] = done
        heap, seq = self._heap, self._seq
        heapq.heappush(heap, (
            done, next(seq), self._send_done, task, rank, now, nodes, rates,
        ))
        waiting = self._waiting.pop(spec.message_id, None)
        if waiting is not None:
            wtask, wrank, wstart = waiting
            heapq.heappush(heap, (
                done + EPS, next(seq), self._recv_done, wtask, wrank, wstart,
            ))

    def _start_recv(self, task: Task, rank: int, now: float) -> None:
        gpu = self._gpu_of[rank]
        msg = task.p2p.message_id
        self._comm_active[gpu] += 1
        self._activity_dirty = True
        delivery = self._delivery.get(msg)
        if delivery is not None:
            heapq.heappush(self._heap, (
                max(now, delivery) + EPS, next(self._seq), self._recv_done,
                task, rank, now,
            ))
        else:
            self._waiting[msg] = (task, rank, now)

    def _arrive_collective(self, task: Task, rank: int, now: float) -> None:
        state = self._collectives.get(task.uid)
        if state is None:
            state = self._collectives[task.uid] = _RunningCollective()
        arrivals = state.arrivals
        arrivals[rank] = now
        self._comm_active[self._gpu_of[rank]] += 1
        self._activity_dirty = True
        if len(arrivals) == len(task.collective.ranks):
            self._start_collective(task, state, now)

    def _start_collective(
        self, task: Task, state: _RunningCollective, now: float
    ) -> None:
        spec = task.collective
        key = (spec.op, spec.ranks, spec.payload_bytes, spec.repeat)
        plan = self._plans.get(key) or self._plan(key, spec.ranks)
        gpus, nodes, prices = plan
        share = self._contention.begin(nodes) if nodes else 1.0
        if self._faultrt is not None:
            if nodes:
                share *= self._faultrt.link_scale(nodes, now)
            self._faultrt.observe_rendezvous(
                task.uid, min(state.arrivals.values()), now
            )
        price = prices.get(share)
        if price is None:
            price = self._price(
                prices, share, spec.repeat,
                (spec.op, spec.ranks, spec.payload_bytes, share),
                _COLLECTIVE_FNS[spec.op], self.cluster, gpus,
                spec.payload_bytes,
            )
        comm_duration, duration, volumes, rates, slot = price
        slot[1] += spec.repeat

        overlap = task.overlap_compute
        if overlap is not None:
            compute_durations = [
                self._kernel_duration(overlap, g, now) for g in gpus
            ]
            duration = max(
                fused_duration(max(compute_durations), comm_duration), EPS
            )
            rates = [(gpu, volume / duration) for gpu, volume in volumes]
            activity = overlap.activity
            for g in gpus:
                self._compute_active[g] += activity.compute
                self._comm_active[g] += activity.comm
                self._memory_active[g] += activity.memory
            self._activity_dirty = True
        pcie_rate = self._pcie_rate
        for gpu, rate in rates:
            pcie_rate[gpu] += rate

        state.group_start_s = now
        state.nic_nodes = nodes
        state.pcie_rates = rates
        state.comm_duration_s = comm_duration
        heapq.heappush(self._heap, (
            now + duration, next(self._seq), self._collective_done, task,
        ))

    # ------------------------------------------------------------------
    # Comm plans
    # ------------------------------------------------------------------

    def _plan(self, key: tuple, ranks: tuple[int, ...]) -> tuple:
        """The run's plan for a p2p pair (src, dst, payload, chunked) or
        a collective (op, ranks, payload, repeat): (GPUs, the nodes whose
        NICs they cross, prices by contention share)."""
        gpus = [self._gpu_of[rank] for rank in ranks]
        nodes = sorted({self._node_of[gpu] for gpu in gpus})
        plan = self._plans[key] = (
            gpus, tuple(nodes) if len(nodes) > 1 else (), {}
        )
        return plan

    def _price(self, prices: dict, share: float, repeat: int, key: tuple,
               cost_fn, *args, **kwargs) -> tuple:
        """A plan's price at contention ``share``: (comm seconds, duration,
        PCIe (gpu, bytes) and (gpu, rate) pairs, traffic slot), from the
        comm memo's cost under ``key``. A slot is made at a cost's first
        use in the run, so traffic folds in first-use order."""
        cost = self._comm_memo.get(key)
        if cost is None:
            cost = self._comm_memo[key] = cost_fn(
                *args, **kwargs, bandwidth_scale=share
            )
        comm_duration = cost.duration_s * repeat
        duration = max(comm_duration, EPS)
        volumes = [
            (gpu, pcie * repeat)
            for gpu, by_kind in cost.link_bytes.items()
            if (pcie := by_kind.get(LinkKind.PCIE, 0.0)) > 0
        ]
        rates = [(gpu, volume / duration) for gpu, volume in volumes]
        # The slot holds the cost, so its id stays unique for the run.
        slot = self._traffic_slots.get(id(cost))
        if slot is None:
            slot = self._traffic_slots[id(cost)] = [cost, 0]
        price = prices[share] = (comm_duration, duration, volumes, rates, slot)
        return price

    # ------------------------------------------------------------------
    # Completion handlers: ``handler(sim, entry)`` with the popped entry
    # ------------------------------------------------------------------

    def _on_compute_done(self, entry: tuple) -> None:
        now, _, _, task, rank, start = entry
        gpu = self._gpu_of[rank]
        self._unstack(gpu, task.compute.activity)
        self._record((gpu, rank, task.kernel, start, now, task.iteration,
                      task.microbatch, task.stage))
        self._pos[rank] += 1
        # Pop times never decrease, so the latest finish is this one.
        self._iteration_end[task.iteration] = now
        self._start(rank, now)

    def _on_send_done(self, entry: tuple) -> None:
        now, _, _, task, rank, start, nodes, rates = entry
        gpu = self._gpu_of[rank]
        self._comm_active[gpu] -= 1
        self._activity_dirty = True
        self._end_pcie_rates(rates)
        if nodes:
            self._contention.end(nodes)
        self._record((gpu, rank, task.kernel, start, now, task.iteration,
                      task.microbatch, task.stage))
        self._pos[rank] += 1
        self._iteration_end[task.iteration] = now
        self._start(rank, now)

    def _on_recv_done(self, entry: tuple) -> None:
        now, _, _, task, rank, wait_start = entry
        gpu = self._gpu_of[rank]
        self._comm_active[gpu] -= 1
        self._activity_dirty = True
        self._record((gpu, rank, task.kernel, wait_start, now,
                      task.iteration, task.microbatch, task.stage))
        self._pos[rank] += 1
        self._iteration_end[task.iteration] = now
        self._start(rank, now)

    def _on_collective_done(self, entry: tuple) -> None:
        now, _, _, task = entry
        state = self._collectives.pop(task.uid)
        if state.nic_nodes:
            self._contention.end(state.nic_nodes)
        self._end_pcie_rates(state.pcie_rates)
        overlap = task.overlap_compute
        if overlap is not None:
            # Overlapped: the comm kernel spans only its own (slowed)
            # duration; the fused compute kernel spans the full task.
            group_start = state.group_start_s
            comm_end = min(
                now,
                group_start + state.comm_duration_s * OVERLAP_COMM_SLOWDOWN,
            )
            fused_kernel = task.overlap_kernel or KernelKind.FWD_GEMM
        members = task.collective.ranks
        record = self._record
        kernel, iteration = task.kernel, task.iteration
        microbatch, stage = task.microbatch, task.stage
        for member in members:
            gpu = self._gpu_of[member]
            self._comm_active[gpu] -= 1
            if overlap is None:
                # Rendezvous wait is charged to the comm kernel, as NCCL
                # profilers report it.
                record((gpu, member, kernel, state.arrivals[member], now,
                        iteration, microbatch, stage))
            else:
                record((gpu, member, kernel, group_start, comm_end,
                        iteration, microbatch, stage))
                self._unstack(gpu, overlap.activity)
                record((gpu, member, fused_kernel, group_start, now,
                        iteration, microbatch, stage))
        self._activity_dirty = True
        self._iteration_end[task.iteration] = now
        for member in members:
            self._pos[member] += 1
            self._start(member, now)

    # ------------------------------------------------------------------
    # Durations, activity, traffic helpers
    # ------------------------------------------------------------------

    def _kernel_duration(
        self, spec: ComputeSpec, gpu: int, now: float
    ) -> float:
        """Duration of a compute kernel starting on ``gpu`` at ``now``.

        :meth:`_start` inlines this formula for plain compute tasks;
        this copy serves a collective's fused compute kernel.
        """
        duration = spec.fixed_duration_s
        if duration is None:
            duration = spec.flops / (
                self._sustained * spec.efficiency * self._clocks[gpu]
            )
            if spec.overlapped_comm_s > 0:
                duration = fused_duration(duration, spec.overlapped_comm_s)
        if spec.min_duration_s > duration:
            duration = spec.min_duration_s
        if self._faultrt is not None:
            duration = self._fault_penalty(duration, gpu, now)
        return duration

    def _fault_penalty(self, duration: float, gpu: int, now: float) -> float:
        """Apply an active fail-stop delay or ECC stretch on ``gpu``."""
        delay, stretch = self._faultrt.compute_penalty(
            self._node_of[gpu], now
        )
        if delay or stretch != 1.0:
            duration = duration * stretch + delay
        return duration

    def _unstack(self, gpu: int, activity: Activity) -> None:
        """Remove a finished kernel's fractional activity from a GPU."""
        compute = self._compute_active[gpu] - activity.compute
        comm = self._comm_active[gpu] - activity.comm
        memory = self._memory_active[gpu] - activity.memory
        self._compute_active[gpu] = compute
        self._comm_active[gpu] = comm
        self._memory_active[gpu] = memory
        self._activity_dirty = True
        if compute < -1e-9 or comm < -1e-9 or memory < -1e-9:
            raise RuntimeError(f"negative activity level on GPU {gpu}")

    def _end_pcie_rates(self, rates: list[tuple[int, float]]) -> None:
        for gpu, rate in rates:
            self._pcie_rate[gpu] = max(0.0, self._pcie_rate[gpu] - rate)

    def _flush_traffic(self) -> None:
        for cost, repeat in self._traffic_slots.values():
            self.traffic.record(cost, repeat)
        self._traffic_slots.clear()

    # ------------------------------------------------------------------
    # Physics loop
    # ------------------------------------------------------------------

    def _prewarm(self) -> None:
        """Initialise die temperatures at a busy-cluster steady state."""
        node = self.cluster.node
        busy = Activity(compute=self.settings.prewarm_busy_fraction)
        freq = 1.0
        if self._powerctl is not None:
            # Prewarm stands in for earlier governed iterations, so the
            # equilibrium estimate runs at the governed clock.
            freq = float(np.mean(self._powerctl.setpoints))
        self._physics.prewarm(gpu_power(node.gpu, busy, freq))

    def _flush_physics(self, end_time: float) -> None:
        remaining = end_time - self._phys_time
        if remaining > 1e-9:
            self._physics_step(remaining)

    def _physics_step(self, dt: float) -> None:
        physics = self._physics
        power_vec = self._power_vec
        if self._faultrt is not None:
            self._faultrt.apply_boundaries(self._phys_time, physics)
        if self._activity_dirty:
            power_vec.refresh_intensity(
                self._compute_active,
                self._comm_active,
                self._memory_active,
            )
            self._activity_dirty = False
            self._activity_rows = None
        powers = self._powers = power_vec.powers(physics.freq_flat)
        physics.step(dt, powers)
        if physics.freq is not self._freq:
            self._freq = physics.freq
            self._clocks = self._freq.reshape(-1).tolist()
        self._phys_time += dt
        if self._phys_time >= self._next_sample:
            self._sample_telemetry(self._phys_time)
            self._next_sample += self.settings.telemetry_interval_s
        if self._closed_loop:
            self._powerctl_tick(dt)

    def _powerctl_tick(self, dt: float) -> None:
        """Accrue governor inputs; actuate every control interval."""
        if self._busy_time is not None:
            # The levels the step's powers were refreshed from.
            self._busy_time += dt * (self._power_vec.levels[0] > 0)
        self._control_elapsed += dt
        if self._phys_time + 1e-9 < self._next_control:
            return
        runtime = self._powerctl
        busy = None
        if self._busy_time is not None and self._control_elapsed > 0:
            busy = self._busy_time / self._control_elapsed
        new = runtime.control(
            PowerCtlObservation(
                time_s=self._phys_time,
                temps_c=self._physics.die_c.reshape(-1),
                freq_ratio=self._physics.freq_flat[0],
                power_w=self._powers[0],
                busy_fraction=busy,
                dt_s=self._control_elapsed,
            )
        )
        if new is not None:
            self._physics.set_setpoints(new)
        if self._busy_time is not None:
            self._busy_time[:] = 0.0
        self._control_elapsed = 0.0
        self._next_control = (
            self._phys_time + runtime.config.control_interval_s
        )

    def _sample_telemetry(self, time_s: float) -> None:
        physics = self._physics
        rows = self._activity_rows
        if rows is None:
            compute, comm = self._power_vec.levels[:2] > 0
            rows = self._activity_rows = (
                compute, comm, np.maximum(np.asarray(self._pcie_rate), 0.0),
            )
        self.telemetry.record_step(
            time_s,
            self._powers[0],
            physics.die_c.reshape(-1),
            physics.freq_flat[0],
            *rows,
        )

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------

    def _check_finished(self) -> None:
        stuck = [
            rank
            for rank in range(self.world)
            if self._pos[rank] < len(self.graph.queues[rank])
        ]
        if stuck:
            details = []
            for rank in stuck[:8]:
                task = self.graph.queues[rank][self._pos[rank]]
                details.append(
                    f"rank {rank} stuck at task {task.uid} "
                    f"({task.kind.value}/{task.kernel.value})"
                )
            raise DeadlockError(
                f"{len(stuck)} ranks never finished: " + "; ".join(details)
            )


def simulate(
    mesh: DeviceMesh, graph: TaskGraph, settings: SimSettings | None = None
) -> SimOutcome:
    """Convenience wrapper: build a :class:`Simulator` and run it."""
    return Simulator(mesh, graph, settings).run()
