"""Batched grid evaluation: one anchor simulation, many vectorized replays.

Characterization sweeps (Figures 2, 4, 9-15, 23 and the powerctl /
inferserve setpoint searches) are grids of closely related configs: the
model, cluster, parallel strategy — and therefore the task graph, the
kernel-latency table, every memoised communication cost and the thermal
propagator — are shared, while only the frequency setpoint (or power
cap) varies. The per-config path still pays the full discrete-event walk
per point. This module evaluates such a grid in three phases:

1. **Anchor**: one real :class:`~repro.engine.simulator.Simulator` run
   (instrumented to log its event pop order) on the shared mesh/graph.
2. **Replay**: the remaining configs are advanced through the anchor's
   event *dependency* order simultaneously, with every event timestamp
   held as a ``(C,)`` numpy vector (one lane per config). Under a
   uniform static clock ceiling ``s`` the governed frequency is known in
   closed form — exactly ``1.0`` before the first physics step and
   exactly ``s`` from then on — so compute durations vectorize without
   stepping physics inside the event loop. Event times are computed with
   order-independent formulas (a collective starts at the elementwise
   max over its members' arrival vectors; a p2p receive completes at
   ``max(arrival, send_end) + EPS``), so lanes whose heap pop order
   differs from the anchor's still get exact times.
3. **Reconstruction + certification**: per config, the lane's true heap
   pop order is derived by sorting event times with the serial heap's
   tie-break (push order, itself recovered from the anchor's causal
   structure), then the simulator's own
   :class:`~repro.engine.physics.VectorPhysics` / ``PowerVector`` pair,
   built with one lane per config, is driven over the replayed activity
   timeline on the shared step-boundary grid — bit-for-bit the serial
   arithmetic, with no physics code of its own. Each lane is
   certified: every event must strictly follow the pop that pushed it,
   NIC-contention operations must keep their per-node order (shares are
   pure functions of per-node counters), each collective's last-arriving
   member and each p2p's rendezvous branch must match the anchor's, and
   the governed clock must equal the closed form after every physics
   step (violated exactly when thermal throttling or a power cap would
   have engaged). A lane failing any check runs as an ordinary
   simulation on the group's graph and comm-cost memos instead, and
   the group counts it under the failed certificate's name, so batched
   results are *field-by-field identical* to the serial path — pinned
   by ``tests/test_batched.py``. A certified lane's outputs are handed
   over in the columns the replay already holds: its kernel records are
   a :class:`~repro.engine.kernels.KernelTable` built by permuting the
   anchor's record columns into the lane's pop order, and its telemetry
   takes the lane's ``(samples, num_gpus)`` slices of the batched
   physics pass as matrices.

A replay costs about two to three runs on the shared graph whatever
its lane count, so a group replays only when at least
``_MIN_REPLAY_LANES`` members beyond the anchor are evaluated together;
smaller batches (and every later single probe of a
:class:`SetpointSession`) run each member as an ordinary simulation on
the group's graph and memos, which skips the graph build and the comm
costing of a fresh run.

Grids that are not batchable (static faults, fault timelines,
closed-loop governors, non-uniform per-GPU ceilings) take the ordinary
cached per-config path through the same :func:`evaluate_grid` API; axes
that change the task graph (microbatch, batch size, model, cluster)
split the grid into one group per graph.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable, Iterable

import numpy as np

from repro.comm.contention import NicContention
from repro.comm.traffic import TrafficLedger
from repro.core import sweep
from repro.core.faults import HEALTHY
from repro.core.parallel import ExecutionReport
from repro.core.results import RunResult
# ``_probe`` is core.sweep's batch probe, bound here too: the benchmark
# tracer (perfbench/tracing.py) counts batch probes as batched._probe.
from repro.core.sweep import RunIdentity, _probe  # noqa: F401
from repro.engine.kernels import KernelKind, KernelTable, kind_codes
from repro.engine.physics import PowerVector, VectorPhysics
from repro.engine.simulator import (
    EPS,
    CommMemos,
    SimOutcome,
    SimSettings,
    Simulator,
)
from repro.engine.task import Task, TaskKind
from repro.optimizations.overlap import (
    OVERLAP_COMM_SLOWDOWN,
    OVERLAP_COMPUTE_SLOWDOWN,
)
from repro.power.model import Activity, gpu_power
from repro.powerctl.config import NO_POWER_CONTROL, freq_for_power_limit
from repro.powerctl.governor import build_runtime
from repro.telemetry.monitor import TelemetryLog

__all__ = ["evaluate_grid", "SetpointSession"]


class _ReplayDiverged(Exception):
    """Replay left the anchor's footprint; every lane runs serially."""


# ----------------------------------------------------------------------
# Anchor: a real Simulator that logs its pop order
# ----------------------------------------------------------------------


class _RecordingSimulator(Simulator):
    """A :class:`Simulator` that records its event pop sequence.

    The wrapper only appends to a log before delegating to the original
    handler — no float operation is added or reordered, so the anchor's
    own outcome is exactly what a plain ``Simulator`` produces.
    """

    def __init__(self, mesh, graph, settings=None, memos=None) -> None:
        super().__init__(mesh, graph, settings, memos)
        self.pop_log: list[tuple[str, int]] = []
        log = self.pop_log

        # A heap entry is (time, seq, handler, task, rank, ...), or
        # (time, seq, handler, task) for a collective.
        def wrap(name, fn):
            if name == "collective":
                def handler(sim, entry):
                    log.append((name, entry[3].uid))
                    fn(sim, entry)
            else:
                def handler(sim, entry):
                    log.append((name, entry[4]))
                    fn(sim, entry)
            return handler

        self._handlers = {
            name: wrap(name, fn) for name, fn in self._handlers.items()
        }


# ----------------------------------------------------------------------
# Vectorized replay
# ----------------------------------------------------------------------


def _fused_vec(compute, comm_s: float):
    """Elementwise :func:`repro.optimizations.overlap.fused_duration`."""
    comm_slowed = comm_s * OVERLAP_COMM_SLOWDOWN
    contended = np.minimum(compute, comm_slowed)
    compute_slowed = compute + (OVERLAP_COMPUTE_SLOWDOWN - 1) * contended
    return np.maximum(compute_slowed, comm_slowed)


class _VectorReplay:
    """Re-executes the anchor's event DAG for ``C`` configs at once.

    Every event timestamp is a ``(C,)`` vector. The replay walks the
    anchor's pop sequence — a valid topological order of the dependency
    DAG — evaluating order-independent time formulas elementwise, walks
    its own scalar :class:`NicContention` (pure counters — shares are
    certified per lane before being trusted), and prices each send and
    collective from the anchor's comm plans. Activity/PCIe transitions,
    kernel records and traffic calls are logged columnar, each tagged
    with its enclosing pop (``pop1``: 0 = the pre-heap prelude, ``i + 1``
    = the i-th anchor pop), for later per-lane reordering.
    """

    def __init__(self, anchor: _RecordingSimulator,
                 setpoints: Iterable[float]) -> None:
        self._a = anchor
        self._s = np.array(list(setpoints), dtype=float)
        self.C = len(self._s)
        self._dt = anchor.settings.physics_dt_s
        self._sustained = anchor._sustained
        self._gpu_of = anchor._gpu_of
        self._queues = anchor._queues
        self._world = anchor.world
        self._plans = anchor._plans
        self._contention = NicContention(
            num_nodes=anchor.cluster.num_nodes
        )

        self._times: list[np.ndarray] = []
        self._opctr = itertools.count()
        self._cur_pop1 = 0  # 0 = prelude; anchor pop i runs as i + 1
        self._pos = [0] * self._world
        self._pending: list[tuple | None] = [None] * self._world
        self._pending_coll: dict[int, tuple] = {}
        self._delivery: dict[int, int] = {}
        self._send_pop1: dict[int, int] = {}
        self._waiting: dict[int, tuple[Task, int, int, int]] = {}
        self._collectives: dict[int, dict] = {}
        self._iter_end: dict[int, np.ndarray] = {}

        # Per anchor pop: popped event's time id, the pop during which
        # it was pushed (its heap tie-breaker lives there) and the push
        # counter within that pop.
        self.pop_tids: list[int] = []
        self.pop_trig1: list[int] = []
        self.pop_intra: list[int] = []
        # Activity transitions: (tid, gpu, d_compute, d_comm, d_memory).
        # Transition times equal the enclosing pop's time and are
        # causally ordered per GPU (exactly one rank per GPU), so no pop
        # tag is needed.
        self.act_tid: list[int] = []
        self.act_gpu: list[int] = []
        self.act_dc: list[float] = []
        self.act_dm: list[float] = []
        self.act_dmem: list[float] = []
        # PCIe rate transitions: ends clamp at zero (matching
        # ``Simulator._end_pcie_rates``), so this is an order-sensitive
        # fold, replayed per lane in the lane's true pop order.
        self.pcie_tid: list[int] = []
        self.pcie_gpu: list[int] = []
        self.pcie_rate: list = []
        self.pcie_end: list[bool] = []
        self.pcie_pop1: list[int] = []
        # Kernel records, columnar; start/end are time ids.
        self.rec_gpu: list[int] = []
        self.rec_rank: list[int] = []
        self.rec_kind: list[KernelKind] = []
        self.rec_iter: list[int] = []
        self.rec_mb: list[int] = []
        self.rec_stage: list[int] = []
        self.rec_start: list[int] = []
        self.rec_end: list[int] = []
        self.rec_pop1: list[int] = []
        # NIC-contention ops in anchor execution order (begin and end),
        # for the per-node order certificate.
        self.con_pop1: list[int] = []
        self.con_nodes: list[tuple[int, ...]] = []
        # Collective rendezvous bookkeeping: each member's arrival pop
        # plus the anchor's start pop (= its last arriver's pop).
        self.coll_member_pop1: list[int] = []
        self.coll_seg_len: list[int] = []
        self.coll_anchor_pop1: list[int] = []
        # P2P rendezvous branch bookkeeping: (send-start pop, recv
        # arrival pop) per matched pair.
        self.p2p_send_pop1: list[int] = []
        self.p2p_recv_pop1: list[int] = []
        # Traffic calls: folded per cost object (as the serial run's
        # traffic slots are, keyed by id) but flushed per lane in the
        # lane's first-use order.
        self.traf_cost_id: list[int] = []
        self.traf_cost: list = []
        self.traf_repeat: list[int] = []
        self.traf_pop1: list[int] = []

    # -- low-level helpers ---------------------------------------------

    def _tid(self, vec) -> int:
        self._times.append(vec)
        return len(self._times) - 1

    def _log_act(self, tid: int, gpu: int, activity: Activity,
                 delta: float) -> None:
        self.act_tid.append(tid)
        self.act_gpu.append(gpu)
        self.act_dc.append(activity.compute * delta)
        self.act_dm.append(activity.comm * delta)
        self.act_dmem.append(activity.memory * delta)

    def _log_comm(self, tid: int, gpu: int, delta: float) -> None:
        self.act_tid.append(tid)
        self.act_gpu.append(gpu)
        self.act_dc.append(0.0)
        self.act_dm.append(delta)
        self.act_dmem.append(0.0)

    def _log_pcie(self, tid: int, gpu: int, rate, end: bool) -> None:
        self.pcie_tid.append(tid)
        self.pcie_gpu.append(gpu)
        self.pcie_rate.append(rate)
        self.pcie_end.append(end)
        self.pcie_pop1.append(self._cur_pop1)

    def _log_con(self, nodes: tuple[int, ...]) -> None:
        self.con_pop1.append(self._cur_pop1)
        self.con_nodes.append(nodes)

    def _log_traffic(self, cost, repeat: int) -> None:
        self.traf_cost_id.append(id(cost))
        self.traf_cost.append(cost)
        self.traf_repeat.append(repeat)
        self.traf_pop1.append(self._cur_pop1)

    def _rec(self, task: Task, gpu: int, rank: int, start_tid: int,
             end_tid: int, kind: KernelKind) -> None:
        self.rec_gpu.append(gpu)
        self.rec_rank.append(rank)
        self.rec_kind.append(kind)
        self.rec_iter.append(task.iteration)
        self.rec_mb.append(task.microbatch)
        self.rec_stage.append(task.stage)
        self.rec_start.append(start_tid)
        self.rec_end.append(end_tid)
        self.rec_pop1.append(self._cur_pop1)

    def _compute_duration(self, spec, now):
        # Mirrors Simulator._compute_duration under the closed-form
        # frequency: 1.0 before the first physics step (event time
        # < dt), the uniform setpoint after it. Certification rejects
        # lanes where throttling/capping would have bent the clock away.
        if spec.fixed_duration_s is not None:
            return max(spec.fixed_duration_s, spec.min_duration_s)
        freq = np.where(now >= self._dt, self._s, 1.0)
        duration = spec.flops / (self._sustained * spec.efficiency * freq)
        if spec.overlapped_comm_s > 0:
            duration = _fused_vec(duration, spec.overlapped_comm_s)
        return np.maximum(duration, spec.min_duration_s)

    # -- task starts ----------------------------------------------------

    def _try_start(self, rank: int, now_tid: int) -> None:
        queue = self._queues[rank]
        pos = self._pos[rank]
        if pos >= len(queue):
            return
        task = queue[pos]
        now = self._times[now_tid]
        if task.kind is TaskKind.COMPUTE:
            gpu = self._gpu_of[rank]
            duration = self._compute_duration(task.compute, now)
            self._log_act(now_tid, gpu, task.compute.activity, 1.0)
            self._pending[rank] = (
                "compute", self._tid(now + duration), self._cur_pop1,
                next(self._opctr), task, now_tid,
            )
        elif task.kind is TaskKind.SEND:
            self._start_send(task, rank, now_tid)
        elif task.kind is TaskKind.RECV:
            self._start_recv(task, rank, now_tid)
        else:
            self._arrive_collective(task, rank, now_tid)

    def _start_send(self, task: Task, rank: int, now_tid: int) -> None:
        spec = task.p2p
        key = (spec.src, spec.dst, spec.payload_bytes, spec.chunked)
        plan = self._plans.get(key)
        if plan is None:
            raise _ReplayDiverged(f"p2p plan miss: {key}")
        (src_gpu, _), nodes, prices = plan
        if nodes:
            share = self._contention.begin(nodes)
            self._log_con(nodes)
        else:
            share = 1.0
        price = prices.get(share)
        if price is None:
            raise _ReplayDiverged(f"p2p price miss: {key} at {share}")
        _, duration, _, rates, slot = price
        self._log_traffic(slot[0], 1)
        for gpu, rate in rates:
            self._log_pcie(now_tid, gpu, rate, end=False)
        self._log_comm(now_tid, src_gpu, 1.0)
        now = self._times[now_tid]
        end = now + duration
        end_tid = self._tid(end)
        self._delivery[spec.message_id] = end_tid
        self._send_pop1[spec.message_id] = self._cur_pop1
        self._pending[rank] = (
            "send", end_tid, self._cur_pop1, next(self._opctr), task,
            now_tid, nodes, rates,
        )
        waiting = self._waiting.pop(spec.message_id, None)
        if waiting is not None:
            wtask, wrank, wstart_tid, wpop1 = waiting
            if self._pending[wrank] is not None:
                raise _ReplayDiverged("receiver already pending")
            # Order-independent completion: the serial waiting branch's
            # ``send_end + EPS`` equals ``max(arrival, send_end) + EPS``
            # because the arrival preceded the send start there; in a
            # lane where the rendezvous flips, the delivery branch
            # computes this same max. (The flip still moves the push —
            # the heap tie-breaker — so it is certified away.)
            done = np.maximum(self._times[wstart_tid], end) + EPS
            self._pending[wrank] = (
                "recv", self._tid(done), self._cur_pop1,
                next(self._opctr), wtask, wstart_tid,
            )
            self.p2p_send_pop1.append(self._cur_pop1)
            self.p2p_recv_pop1.append(wpop1)

    def _start_recv(self, task: Task, rank: int, now_tid: int) -> None:
        gpu = self._gpu_of[rank]
        msg = task.p2p.message_id
        self._log_comm(now_tid, gpu, 1.0)
        delivery_tid = self._delivery.get(msg)
        if delivery_tid is not None:
            now = self._times[now_tid]
            done = np.maximum(now, self._times[delivery_tid]) + EPS
            self._pending[rank] = (
                "recv", self._tid(done), self._cur_pop1,
                next(self._opctr), task, now_tid,
            )
            self.p2p_send_pop1.append(self._send_pop1[msg])
            self.p2p_recv_pop1.append(self._cur_pop1)
        else:
            self._waiting[msg] = (task, rank, now_tid, self._cur_pop1)

    def _arrive_collective(self, task: Task, rank: int,
                           now_tid: int) -> None:
        state = self._collectives.get(task.uid)
        if state is None:
            state = {"arrivals": {}, "arrival_pop1": {}}
            self._collectives[task.uid] = state
        state["arrivals"][rank] = now_tid
        state["arrival_pop1"][rank] = self._cur_pop1
        gpu = self._gpu_of[rank]
        self._log_comm(now_tid, gpu, 1.0)
        if len(state["arrivals"]) == len(task.collective.ranks):
            self._start_collective(task, state)

    def _start_collective(self, task: Task, state: dict) -> None:
        spec = task.collective
        key = (spec.op, spec.ranks, spec.payload_bytes, spec.repeat)
        plan = self._plans.get(key)
        if plan is None:
            raise _ReplayDiverged(f"collective plan miss: {key}")
        gpus, nodes, prices = plan
        if nodes:
            share = self._contention.begin(nodes)
            self._log_con(nodes)
        else:
            share = 1.0
        price = prices.get(share)
        if price is None:
            raise _ReplayDiverged(f"collective price miss: {key} at {share}")
        comm_duration, duration, volumes, rates, slot = price
        # Order-independent start: the serial collective starts at its
        # last arrival — the elementwise max over arrival vectors, since
        # the anchor's last arriver need not be the last in every lane.
        arrival_vecs = [
            self._times[state["arrivals"][m]] for m in spec.ranks
        ]
        now = (
            arrival_vecs[0] if len(arrival_vecs) == 1
            else np.maximum.reduce(arrival_vecs)
        )
        start_tid = self._tid(now)
        self._log_traffic(slot[0], spec.repeat)

        if task.overlap_compute is not None:
            # All member GPUs share the closed-form frequency, so the
            # serial per-GPU max() collapses to one vector.
            compute_d = self._compute_duration(task.overlap_compute, now)
            duration = np.maximum(_fused_vec(compute_d, comm_duration), EPS)
            rates = [(gpu, volume / duration) for gpu, volume in volumes]
            for gpu in gpus:
                self._log_act(
                    start_tid, gpu, task.overlap_compute.activity, 1.0
                )
        for gpu, rate in rates:
            self._log_pcie(start_tid, gpu, rate, end=False)
        state["gs_tid"] = start_tid
        state["nodes"] = nodes
        state["pcie"] = rates
        state["comm_duration"] = comm_duration
        self._pending_coll[task.uid] = (
            self._tid(now + duration), self._cur_pop1,
            next(self._opctr), task, state,
        )
        self.coll_anchor_pop1.append(self._cur_pop1)
        self.coll_seg_len.append(len(spec.ranks))
        self.coll_member_pop1.extend(
            state["arrival_pop1"][m] for m in spec.ranks
        )

    # -- completions ----------------------------------------------------

    def _advance(self, task: Task, rank: int, now_tid: int) -> None:
        self._pos[rank] += 1
        now = self._times[now_tid]
        previous = self._iter_end.get(task.iteration)
        self._iter_end[task.iteration] = (
            now if previous is None else np.maximum(previous, now)
        )
        self._try_start(rank, now_tid)

    def run(self) -> None:
        zero_tid = self._tid(np.zeros(self.C))
        for rank in range(self._world):
            self._try_start(rank, zero_tid)
        pending = self._pending
        for index, (name, key) in enumerate(self._a.pop_log):
            self._cur_pop1 = index + 1
            if name == "collective":
                entry = self._pending_coll.pop(key, None)
                if entry is None:
                    raise _ReplayDiverged(f"collective {key} not pending")
                tid, trig1, intra, task, state = entry
                self.pop_tids.append(tid)
                self.pop_trig1.append(trig1)
                self.pop_intra.append(intra)
                self._finish_collective(task, state, tid)
            else:
                entry = pending[key]
                if entry is None or entry[0] != name:
                    raise _ReplayDiverged(f"rank {key}: expected {name}")
                pending[key] = None
                tid, trig1, intra, task = entry[1:5]
                self.pop_tids.append(tid)
                self.pop_trig1.append(trig1)
                self.pop_intra.append(intra)
                if name == "compute":
                    self._finish_compute(task, key, entry[5], tid)
                elif name == "send":
                    self._finish_send(task, key, entry[5], entry[6],
                                      entry[7], tid)
                else:
                    self._finish_recv(task, key, entry[5], tid)
        if any(entry is not None for entry in pending) or self._pending_coll:
            raise _ReplayDiverged("events left pending after anchor log")

    def _finish_compute(self, task, rank, start_tid, tid) -> None:
        gpu = self._gpu_of[rank]
        self._log_act(tid, gpu, task.compute.activity, -1.0)
        self._rec(task, gpu, rank, start_tid, tid, task.kernel)
        self._advance(task, rank, tid)

    def _finish_send(self, task, rank, start_tid, nodes, rates,
                     tid) -> None:
        gpu = self._gpu_of[rank]
        self._log_comm(tid, gpu, -1.0)
        for pcie_gpu, rate in rates:
            self._log_pcie(tid, pcie_gpu, rate, end=True)
        if nodes:
            self._contention.end(nodes)
            self._log_con(nodes)
        self._rec(task, gpu, rank, start_tid, tid, task.kernel)
        self._advance(task, rank, tid)

    def _finish_recv(self, task, rank, wait_start_tid, tid) -> None:
        gpu = self._gpu_of[rank]
        self._log_comm(tid, gpu, -1.0)
        self._rec(task, gpu, rank, wait_start_tid, tid, task.kernel)
        self._advance(task, rank, tid)

    def _finish_collective(self, task, state, tid) -> None:
        if state["nodes"]:
            self._contention.end(state["nodes"])
            self._log_con(state["nodes"])
        for pcie_gpu, rate in state["pcie"]:
            self._log_pcie(tid, pcie_gpu, rate, end=True)
        now = self._times[tid]
        comm_end_tid = None
        for member in task.collective.ranks:
            gpu = self._gpu_of[member]
            self._log_comm(tid, gpu, -1.0)
            if task.overlap_compute is None:
                self._rec(task, gpu, member, state["arrivals"][member],
                          tid, task.kernel)
            else:
                if comm_end_tid is None:
                    comm_end = np.minimum(
                        now,
                        self._times[state["gs_tid"]]
                        + state["comm_duration"] * OVERLAP_COMM_SLOWDOWN,
                    )
                    comm_end_tid = self._tid(comm_end)
                self._rec(task, gpu, member, state["gs_tid"],
                          comm_end_tid, task.kernel)
                self._log_act(tid, gpu, task.overlap_compute.activity, -1.0)
                self._rec(task, gpu, member, state["gs_tid"], tid,
                          task.overlap_kernel or KernelKind.FWD_GEMM)
        for member in task.collective.ranks:
            self._advance(task, member, tid)

    # -- certification + reconstruction ---------------------------------

    def finalize(self) -> "_ReplayOutput":
        return _ReplayOutput(self)


class _ReplayOutput:
    """Shared (config-invariant) arrays + per-config reconstruction.

    Everything order-sensitive in a serial run — the heap pop order,
    per-node NIC-contention counter walks, per-GPU activity folds, the
    clamped PCIe-rate fold, kernel-record append order and traffic
    first-use order — is reconstructed per lane from the lane's *true*
    pop order, derived by sorting event times with the serial heap's
    exact tie-break: push order, i.e. (position of the pushing pop,
    push counter within it). Certificates reject any lane whose
    divergence this reconstruction cannot represent.
    """

    def __init__(self, replay: _VectorReplay) -> None:
        r = self._r = replay
        self._anchor = replay._a
        self.times = np.stack(replay._times) if replay._times else (
            np.zeros((0, replay.C))
        )
        self._P = P = len(r.pop_tids)
        pop_tids = np.asarray(r.pop_tids, dtype=np.int64)
        self._pop_times = (
            self.times[pop_tids] if P else np.zeros((0, replay.C))
        )
        self._trig1 = np.asarray(r.pop_trig1, dtype=np.int64)
        self._intra = np.asarray(r.pop_intra, dtype=np.int64)
        num_gpus = self._num_gpus = self._anchor.cluster.total_gpus

        # Certificate: every event strictly after the pop that pushed it
        # (makes the tie-break recursion on the lane's pop order
        # well-founded). Prelude pushes (trig1 == 0) precede t=0 pops
        # trivially.
        mask = self._trig1 > 0
        if P and mask.any():
            self.strict_ok = np.all(
                self._pop_times[mask] > self._pop_times[self._trig1[mask] - 1],
                axis=0,
            )
        else:
            self.strict_ok = np.ones(replay.C, dtype=bool)

        # Activity transitions, bucketed per GPU. Exactly one rank per
        # GPU means each GPU's transitions are its own rank's causal
        # chain: their times are nondecreasing in every lane and their
        # values lane-invariant, so the serial per-GPU running sums are
        # these per-GPU prefix arrays, sampled per lane by searchsorted.
        act_gpu = np.asarray(r.act_gpu, dtype=np.int64)
        self._act_tids = np.asarray(r.act_tid, dtype=np.int64)
        order = np.argsort(act_gpu, kind="stable")
        self._act_order = order
        self._act_seg = np.searchsorted(
            act_gpu[order], np.arange(num_gpus + 1)
        )

        def prefixes(values: list[float]) -> list[np.ndarray]:
            flat = np.asarray(values, dtype=float)[order]
            out = []
            for g in range(num_gpus):
                seg = flat[self._act_seg[g]:self._act_seg[g + 1]]
                out.append(np.concatenate(([0.0], np.cumsum(seg))))
            return out

        self._prefix_c = prefixes(r.act_dc)
        self._prefix_m = prefixes(r.act_dm)
        self._prefix_mem = prefixes(r.act_dmem)

        # PCIe ops bucketed per GPU (order within a bucket is the anchor
        # execution order; per lane they are re-sorted by true pop
        # position before folding).
        pcie_gpu = np.asarray(r.pcie_gpu, dtype=np.int64)
        self._pcie_tids = np.asarray(r.pcie_tid, dtype=np.int64)
        self._pcie_pop1 = np.asarray(r.pcie_pop1, dtype=np.int64)
        porder = np.argsort(pcie_gpu, kind="stable")
        self._pcie_order = porder
        self._pcie_seg = np.searchsorted(
            pcie_gpu[porder], np.arange(num_gpus + 1)
        )
        # Signed rates for the unclamped cumsum fast path: scalar rates
        # baked in, lane-dependent (vector) rates patched in per lane.
        n_pcie = len(r.pcie_rate)
        pcie_sgn = np.where(
            np.asarray(r.pcie_end, dtype=bool), -1.0, 1.0
        )
        signed_base = np.zeros(n_pcie)
        dep_idx: list[int] = []
        dep_rates: list[np.ndarray] = []
        for i, rate in enumerate(r.pcie_rate):
            if isinstance(rate, np.ndarray):
                dep_idx.append(i)
                dep_rates.append(rate)
            else:
                signed_base[i] = pcie_sgn[i] * rate
        self._pcie_signed_base = signed_base
        self._pcie_dep_idx = np.asarray(dep_idx, dtype=np.int64)
        self._pcie_dep = (
            np.stack(dep_rates) if dep_rates
            else np.zeros((0, replay.C))
        )
        self._pcie_dep_sgn = pcie_sgn[self._pcie_dep_idx]
        self._pcie_gpu_of = pcie_gpu

        # Contention ops per node, in anchor execution order.
        node_ops: dict[int, list[int]] = {}
        for k, nodes in enumerate(r.con_nodes):
            for node in nodes:
                node_ops.setdefault(node, []).append(r.con_pop1[k])
        self._node_ops = [
            np.asarray(ops, dtype=np.int64) for ops in node_ops.values()
        ]

        # Collective last-arriver / p2p branch certificates.
        self._coll_members = np.asarray(
            r.coll_member_pop1, dtype=np.int64
        )
        self._coll_anchor = (
            np.repeat(
                np.asarray(r.coll_anchor_pop1, dtype=np.int64),
                np.asarray(r.coll_seg_len, dtype=np.int64),
            )
            if r.coll_anchor_pop1 else np.zeros(0, dtype=np.int64)
        )
        self._p2p_send = np.asarray(r.p2p_send_pop1, dtype=np.int64)
        self._p2p_recv = np.asarray(r.p2p_recv_pop1, dtype=np.int64)
        self._p2p_sign = np.sign(self._p2p_send - self._p2p_recv)

        # Lane-independent kernel-record columns, in KernelTable order
        # minus the start/end times.
        self._rec_columns = (
            np.asarray(r.rec_gpu),
            np.asarray(r.rec_rank),
            kind_codes(r.rec_kind),
            np.asarray(r.rec_iter),
            np.asarray(r.rec_mb),
            np.asarray(r.rec_stage),
        )
        self._rec_start = np.asarray(r.rec_start, dtype=np.int64)
        self._rec_end = np.asarray(r.rec_end, dtype=np.int64)
        self._rec_pop1 = np.asarray(r.rec_pop1, dtype=np.int64)

        # Traffic calls folded per cost object (serial semantics); the
        # per-lane flush order is each cost's first use in lane order.
        group_of: dict[int, int] = {}
        self._traf_costs: list = []
        self._traf_repeats: list[int] = []
        traf_group = []
        for cost_id, cost, repeat in zip(
            r.traf_cost_id, r.traf_cost, r.traf_repeat
        ):
            g = group_of.get(cost_id)
            if g is None:
                g = group_of[cost_id] = len(self._traf_costs)
                self._traf_costs.append(cost)
                self._traf_repeats.append(0)
            self._traf_repeats[g] += repeat
            traf_group.append(g)
        self._traf_group = np.asarray(traf_group, dtype=np.int64)
        self._traf_pop1 = np.asarray(r.traf_pop1, dtype=np.int64)

        # Shared physics boundary grid (sequential float accumulation,
        # exactly the serial ``_phys_time += dt`` chain) and the sample
        # schedule along it.
        dt = replay._dt
        self.makespans = (
            self._pop_times.max(axis=0) if P else np.zeros(replay.C)
        )
        boundaries = [0.0]
        max_makespan = float(self.makespans.max()) if replay.C else 0.0
        while max_makespan - boundaries[-1] >= dt:
            boundaries.append(boundaries[-1] + dt)
        self._boundaries = np.asarray(boundaries)
        interval = self._anchor.settings.telemetry_interval_s
        self._sample_flags: list[bool] = []
        self._next_samples: list[float] = []
        next_sample = 0.0
        for j in range(1, len(boundaries)):
            fired = boundaries[j] >= next_sample
            if fired:
                next_sample += interval
            self._sample_flags.append(fired)
            self._next_samples.append(next_sample)
        self._prep: dict | None = None

    # -- lane pop order --------------------------------------------------

    def _lane_order(self, lane: int) -> np.ndarray | None:
        """Positions of anchor pops in this lane's true heap pop order.

        The serial heap pops by (time, push seq); push seq order is
        (position of the pushing pop, push counter within it). Sorting
        by lane time and resolving ties with that key — well-founded
        because every pusher strictly precedes its pushee (certified) —
        reproduces the serial order exactly.
        """
        P = self._P
        lane_times = self._pop_times[:, lane]
        srt = np.argsort(lane_times, kind="stable")
        pos = np.empty(P, dtype=np.int64)
        pos[srt] = np.arange(P)
        if P <= 1:
            return pos
        # Fixpoint of (time, pusher position, intra) lexsort. Pushing
        # pops are strictly earlier in time (certified), so after
        # iteration k every tie group whose pusher chains thread at most
        # k earlier tie groups is final; untied positions are final from
        # the time-major sort alone. Convergence is detected by pos
        # stability; the recursion depth bound is a safety net.
        trig1 = self._trig1
        intra = self._intra
        has = trig1 > 0
        safe = np.where(has, trig1 - 1, 0)
        arange = np.arange(P)
        for _ in range(64):
            key = np.where(has, pos[safe], -1)
            order = np.lexsort((intra, key, lane_times))
            new_pos = np.empty(P, dtype=np.int64)
            new_pos[order] = arange
            if np.array_equal(new_pos, pos):
                return pos
            pos = new_pos
        return self._lane_order_slow(lane_times, pos)

    def _lane_order_slow(self, lane_times: np.ndarray,
                         pos: np.ndarray) -> np.ndarray:
        """Exact recursive tie-break (reference path, rarely taken)."""
        P = self._P
        srt = np.empty(P, dtype=np.int64)
        srt[pos] = np.arange(P)
        st = lane_times[srt]
        starts = np.flatnonzero(
            np.concatenate(([True], st[1:] != st[:-1]))
        )
        ends = np.append(starts[1:], P)
        multi = np.flatnonzero(ends - starts > 1)
        trig1 = self._trig1
        intra = self._intra
        for run in multi:
            a, b = int(starts[run]), int(ends[run])
            members = srt[a:b].tolist()
            # Pushing pops are strictly earlier in time, so their
            # positions are already final when their run is reached.
            members.sort(
                key=lambda m: (
                    pos[trig1[m] - 1] if trig1[m] > 0 else -1,
                    intra[m],
                )
            )
            srt[a:b] = members
            pos[members] = np.arange(a, b)
        return pos

    # -- lane-batched physics -------------------------------------------

    def prepare(self, settings_list: list[SimSettings]) -> None:
        """One lane-batched physics pass shared by every reconstruct.

        Steps one :class:`VectorPhysics` / :class:`PowerVector` pair,
        one lane per config, over the replayed activity timeline on the
        shared step-boundary grid, so every lane performs the serial
        simulator's float operations. A lane whose run ends earlier is
        frozen (``active``) while longer lanes keep stepping, then takes
        its final partial step alone. Lanes where the governed clock
        leaves the effective ceiling — a power cap or thermal throttle
        engaging, which the closed-form event times cannot represent —
        are flagged; reconstruct rejects them and the group runs that
        config as an ordinary simulation on the shared graph.
        """
        C = self._r.C
        cluster = self._anchor.cluster
        G = self._num_gpus
        settings0 = settings_list[0] if settings_list else SimSettings()
        dt = settings0.physics_dt_s
        physics = VectorPhysics(cluster, settings0.faults, lanes=C)
        power = PowerVector(cluster, lanes=C)

        ok = np.ones(C, dtype=bool)
        ordered = ok.copy()

        # Per-lane setpoint ceilings and prewarm power, applied as
        # Simulator.run applies them (a ceiling of 1.0 leaves the
        # hardware ceiling unchanged).
        runtimes = [
            build_runtime(s.power_control, cluster) for s in settings_list
        ]
        setpoints = np.ones((C, G))
        for lane, runtime in enumerate(runtimes):
            initial = (
                runtime.initial_setpoints() if runtime is not None else None
            )
            if initial is not None:
                setpoints[lane] = initial
        physics.set_setpoints(setpoints)
        if settings0.thermal_prewarm:
            busy = Activity(compute=settings0.prewarm_busy_fraction)
            physics.prewarm([
                gpu_power(
                    cluster.node.gpu,
                    busy,
                    1.0 if runtime is None
                    else float(np.mean(runtime.setpoints)),
                )
                for runtime in runtimes
            ])

        boundaries = self._boundaries
        steps_arr = (
            np.sum(
                self.makespans[:, None] - boundaries[None, :-1] >= dt,
                axis=1,
            ).astype(np.int64)
            if len(boundaries) > 1 else np.zeros(C, dtype=np.int64)
        )
        S = int(steps_arr.max()) if C else 0

        # Per-lane activity timelines, all lanes at once: ordered per
        # GPU (self._act_order), monotonicity-checked (searchsorted
        # silently misreads unsorted input), then sampled at the step
        # boundaries through one offset-packed searchsorted per lane.
        N = len(self._act_tids)
        comp = np.zeros((C, S, G))
        comm = np.zeros((C, S, G))
        mem = np.zeros((C, S, G))
        seg = self._act_seg
        if N:
            A = self.times[self._act_tids][self._act_order]  # (N, C)
            if N > 1:
                diffs = np.diff(A, axis=0)
                inner = seg[1:-1]
                boundary_mask = np.zeros(N - 1, dtype=bool)
                boundary_mask[
                    inner[(inner > 0) & (inner <= N - 1)] - 1
                ] = True
                ordered = ~np.any(diffs[~boundary_mask] < 0, axis=0)
                ok &= ordered
            if S:
                span = float(self._boundaries[-1]) + 1.0
                gpu_of_op = np.repeat(
                    np.arange(G), np.diff(seg)
                ).astype(float)
                base = A + gpu_of_op[:, None] * span
                queries = (
                    boundaries[1:S + 1][None, :]
                    + np.arange(G)[:, None] * span
                ).ravel()
                row_g = np.repeat(np.arange(G), S)
                big_c = np.concatenate(self._prefix_c)
                big_m = np.concatenate(self._prefix_m)
                big_mem = np.concatenate(self._prefix_mem)
                # Concatenated prefixes carry one extra leading zero per
                # GPU, so the global prefix index is cut + gpu.
                for lane in range(C):
                    if not ok[lane]:
                        continue
                    cuts = np.searchsorted(
                        base[:, lane], queries, side="left"
                    )
                    idx = cuts + row_g
                    comp[lane] = big_c[idx].reshape(G, S).T
                    comm[lane] = big_m[idx].reshape(G, S).T
                    mem[lane] = big_mem[idx].reshape(G, S).T
        final_c = np.asarray([p[-1] for p in self._prefix_c])
        final_m = np.asarray([p[-1] for p in self._prefix_m])
        final_mem = np.asarray([p[-1] for p in self._prefix_mem])

        sample_j = np.flatnonzero(
            np.asarray(self._sample_flags[:S], dtype=bool)
        )
        sample_times = boundaries[sample_j + 1] if S else np.zeros(0)
        SP = len(sample_j)
        stash_pow = np.empty((C, SP, G))
        stash_die = np.empty((C, SP, G))
        stash_freq = np.empty((C, SP, G))
        # Sampled steps strictly below a lane's step count belong to it.
        cnt = (
            np.searchsorted(sample_j, steps_arr, side="left")
            if SP else np.zeros(C, dtype=np.int64)
        )

        # Full steps on the shared grid. The clock-equals-closed-form
        # certificate is checked after every step a lane takes.
        si = 0
        for j in range(S):
            power.refresh_intensity(comp[:, j], comm[:, j], mem[:, j])
            powers = power.powers(physics.freq_flat)
            active = j < steps_arr
            physics.step(dt, powers, active)
            ok &= ~(active & physics.off_ceiling())
            if si < SP and sample_j[si] == j:
                stash_pow[:, si] = powers
                stash_die[:, si] = physics.die_c.reshape(C, G)
                stash_freq[:, si] = physics.freq_flat
                si += 1

        # Final partial step (one lane at a time: each lane's remainder
        # is its own dt), then the lane's throttle/clock ratios.
        power.refresh_intensity(final_c, final_m, final_mem)
        lanes = np.arange(C)
        final_samples: dict[int, tuple] = {}
        throttle: list[list[float] | None] = [None] * C
        mean_freq: list[list[float] | None] = [None] * C
        for lane in np.flatnonzero(ok).tolist():
            sl = int(steps_arr[lane])
            phys_time = float(boundaries[sl])
            remaining = float(self.makespans[lane]) - phys_time
            if remaining > 1e-9:
                powers = power.powers(physics.freq_flat)
                physics.step(remaining, powers, lanes == lane)
                if physics.off_ceiling()[lane]:
                    ok[lane] = False
                    continue
                phys_time += remaining
                next_sample = self._next_samples[sl - 1] if sl else 0.0
                if phys_time >= next_sample:
                    final_samples[lane] = (
                        phys_time,
                        powers[lane],
                        physics.die_c[lane].reshape(-1).copy(),
                        physics.freq_flat[lane].copy(),
                    )
            throttle[lane] = physics.throttle_ratios(lane)
            mean_freq[lane] = physics.mean_freq_ratios(lane)

        self._prep = {
            "ok": ok,
            "ordered": ordered,
            "steps": steps_arr,
            "cnt": cnt,
            "sample_j": sample_j,
            "sample_times": sample_times,
            "pow": stash_pow,
            "die": stash_die,
            "freq": stash_freq,
            "comp": comp,
            "comm": comm,
            "final_c": final_c,
            "final_m": final_m,
            "final": final_samples,
            "throttle": throttle,
            "mean_freq": mean_freq,
            "runtimes": runtimes,
        }

    # -- per-config reconstruction --------------------------------------

    def reconstruct(self, lane: int, settings: SimSettings,
                    graph) -> SimOutcome | str:
        """Rebuild one lane's :class:`SimOutcome`.

        A lane that fails a certificate gets the certificate's name
        instead: ``"strict order"``, ``"last arriver"``, ``"p2p
        branch"``, ``"NIC order"``, ``"activity order"`` or
        ``"clock"``.
        """
        if not self.strict_ok[lane]:
            return "strict order"
        pos = self._lane_order(lane)
        P = self._P
        # pos1[p1]: lane pop position of pop tag p1 (prelude -> -1).
        pos1 = np.empty(P + 1, dtype=np.int64)
        pos1[0] = -1
        if P:
            pos1[1:] = pos

        # Certificate: each collective still starts at the anchor's
        # last-arriving member's pop (so its start-side ops keep their
        # anchor enclosing pop and intra-pop position).
        if self._coll_members.size and np.any(
            pos1[self._coll_members] > pos1[self._coll_anchor]
        ):
            return "last arriver"
        # Certificate: each p2p rendezvous resolves on the same side
        # (the completion push — the heap tie-breaker — moves pops when
        # the branch flips).
        if self._p2p_send.size and not np.array_equal(
            np.sign(pos1[self._p2p_send] - pos1[self._p2p_recv]),
            self._p2p_sign,
        ):
            return "p2p branch"
        # Certificate: NIC-contention ops keep their per-node order, so
        # every begin sees the anchor's counter state and the shares
        # (hence comm costs) used for this lane's times are exact.
        # Distinct pops have distinct positions; ops within one pop keep
        # their anchor execution order.
        for ops in self._node_ops:
            if ops.size > 1 and np.any(np.diff(pos1[ops]) < 0):
                return "NIC order"

        prep = self._prep
        if not prep["ordered"][lane]:
            return "activity order"
        if not prep["ok"][lane]:
            return "clock"
        num_gpus = self._num_gpus
        makespan = float(self.makespans[lane])
        runtime = prep["runtimes"][lane]

        # Telemetry rows come from the shared lane-batched physics pass
        # (bit-identical to the serial VectorPhysics walk); only the
        # order-sensitive PCIe fold is per-lane.
        cnt = int(prep["cnt"][lane])
        sampled = prep["sample_times"][:cnt].tolist()
        pcie_states = self._pcie_lane_states(lane, pos1, sampled)

        jj = prep["sample_j"][:cnt]
        times = sampled
        matrices = [
            prep["pow"][lane, :cnt],
            prep["die"][lane, :cnt],
            prep["freq"][lane, :cnt],
            prep["comp"][lane, jj] > 0,
            prep["comm"][lane, jj] > 0,
            np.maximum(pcie_states[:cnt], 0.0),
        ]
        final = prep["final"].get(lane)
        if final is not None:
            t_final, *rows = final
            rows += [
                prep["final_c"] > 0,
                prep["final_m"] > 0,
                np.maximum(pcie_states[-1], 0.0),
            ]
            times = times + [t_final]
            matrices = [
                np.vstack([matrix, row])
                for matrix, row in zip(matrices, rows)
            ]
        telemetry = TelemetryLog.from_matrices(
            num_gpus, settings.telemetry_interval_s, times, matrices
        )

        traffic = TrafficLedger(num_gpus=num_gpus)
        if self._traf_pop1.size:
            flush_order = np.argsort(
                pos1[self._traf_pop1], kind="stable"
            )
            seen = np.zeros(len(self._traf_costs), dtype=bool)
            for call in flush_order:
                g = self._traf_group[call]
                if not seen[g]:
                    seen[g] = True
                    traffic.record(
                        self._traf_costs[g], self._traf_repeats[g]
                    )

        # Kernel records: the anchor's columns in this lane's pop order,
        # with this lane's event times.
        r = self._r
        lane_times = self.times[:, lane]
        perm = np.argsort(pos1[self._rec_pop1], kind="stable")
        gpu, rank, kind, iteration, microbatch, stage = (
            column[perm] for column in self._rec_columns
        )
        records = KernelTable(
            gpu, rank, kind,
            lane_times[self._rec_start[perm]],
            lane_times[self._rec_end[perm]],
            iteration, microbatch, stage,
        )

        return SimOutcome(
            records=records,
            makespan_s=makespan,
            iteration_end_s=[
                float(r._iter_end[i][lane])
                for i in range(graph.num_iterations)
            ],
            telemetry=telemetry,
            traffic=traffic,
            throttle_ratio=prep["throttle"][lane],
            mean_freq_ratio=prep["mean_freq"][lane],
            tokens_per_iteration=graph.tokens_per_iteration,
            num_iterations=graph.num_iterations,
            power_control=runtime.trace if runtime is not None else None,
            fault_trace=None,
        )

    def _pcie_lane_states(self, lane: int, pos1: np.ndarray,
                          sampled: list[float]) -> np.ndarray:
        """Clamped PCIe-rate fold states at each sampled boundary + end.

        The serial fold ``rate = max(0.0, rate - delta)`` is
        order-sensitive, so each GPU's ops are folded in the lane's true
        pop order; states are captured at boundaries (which never split
        a pop: ops at a boundary's exact time belong to pops at or after
        it and are excluded by the strict ``<`` cut).

        Fast path: ``np.cumsum`` over signed rates is the same
        sequential fold without the clamp; whenever no running prefix is
        strictly negative the clamp never binds and the cumsum states
        are the serial states (``max(0.0, -0.0)`` only flips a zero
        sign, which compares equal everywhere downstream). A GPU whose
        prefix dips below zero takes the exact python walk instead.
        """
        r = self._r
        num_gpus = self._num_gpus
        out = np.zeros((len(sampled) + 1, num_gpus))
        if not len(r.pcie_tid):
            return out
        op_times = self.times[self._pcie_tids, lane]
        keys = pos1[self._pcie_pop1]
        rates = r.pcie_rate
        is_end = r.pcie_end
        porder = self._pcie_order
        seg = self._pcie_seg
        signed = self._pcie_signed_base
        if self._pcie_dep_idx.size:
            signed = signed.copy()
            signed[self._pcie_dep_idx] = (
                self._pcie_dep_sgn * self._pcie_dep[:, lane]
            )
        # One composite argsort orders every GPU's bucket by true pop
        # position at once (buckets are contiguous in porder, so
        # offsetting keys by gpu * span keeps them disjoint).
        span = self._P + 1
        composite = keys[porder] + self._pcie_gpu_of[porder] * span
        ordered_all = porder[np.argsort(composite, kind="stable")]
        sampled_arr = np.asarray(sampled)
        for g in range(num_gpus):
            ordered = ordered_all[seg[g]:seg[g + 1]]
            if not ordered.size:
                continue
            run = np.cumsum(signed[ordered])
            times_g = op_times[ordered]
            cuts = np.searchsorted(times_g, sampled_arr, side="left")
            if run.min() >= 0.0:
                runz = np.concatenate(([0.0], run))
                out[:len(sampled), g] = runz[cuts]
                out[len(sampled), g] = runz[-1]
                continue
            state = 0.0
            k = 0
            ops = ordered.tolist()
            for w, stop in enumerate(cuts.tolist()):
                while k < stop:
                    i = ops[k]
                    rate = rates[i]
                    if isinstance(rate, np.ndarray):
                        rate = rate[lane]
                    if is_end[i]:
                        state = max(0.0, state - rate)
                    else:
                        state += rate
                    k += 1
                out[w, g] = state
            while k < len(ops):
                i = ops[k]
                rate = rates[i]
                if isinstance(rate, np.ndarray):
                    rate = rate[lane]
                if is_end[i]:
                    state = max(0.0, state - rate)
                else:
                    state += rate
                k += 1
            out[len(sampled), g] = state
        return out


# ----------------------------------------------------------------------
# Grid batching: grouping, caching, sessions
# ----------------------------------------------------------------------


def _resolve_settings(kwargs: dict) -> SimSettings:
    return kwargs.get("settings") or SimSettings()


def _uniform_setpoint(settings: SimSettings, cluster) -> float | None:
    """Effective uniform static clock ceiling, or None if not static."""
    control = settings.power_control
    if not control.active:
        return 1.0
    if control.governor != "static":
        return None
    if control.power_limit_w is not None:
        return freq_for_power_limit(cluster.node.gpu, control.power_limit_w)
    if control.gpu_freq_setpoints:
        values = control.gpu_freq_setpoints
        if len(values) != cluster.total_gpus:
            return None
        first = values[0]
        if any(v != first for v in values):
            return None
        return first
    return control.freq_setpoint


@dataclass
class _Member:
    """One grid point routed through a batch group."""

    kind: str
    kwargs: dict
    settings: SimSettings
    setpoint: float


def _batchable(kind: str, kwargs: dict) -> _Member | None:
    """A :class:`_Member` if this payload can join an anchor+replay group."""
    if kind not in ("train", "infer"):
        return None
    settings = _resolve_settings(kwargs)
    if settings.faults != HEALTHY:
        return None
    if settings.fault_timeline.events:
        return None
    from repro.core.experiment import _resolve_cluster

    try:
        cluster = _resolve_cluster(kwargs["cluster"])
    except Exception:
        return None
    setpoint = _uniform_setpoint(settings, cluster)
    if setpoint is None:
        return None
    return _Member(kind, kwargs, settings, setpoint)


def _group_key(member: _Member):
    """Graph-group identity: everything but the power-control axis."""
    rest = {k: v for k, v in member.kwargs.items() if k != "settings"}
    neutral = replace(member.settings, power_control=NO_POWER_CONTROL)
    return (member.kind, sweep.freeze(rest), sweep.freeze(neutral))


#: Fewest members beyond the anchor that one evaluation replays; below
#: it each member runs as an ordinary simulation on the group's graph
#: and memos. One replay of L lanes costs, in runs on the shared graph
#: (benchmarks/replay_crossover.py: six cells, all three clusters,
#: dense and MoE; table in docs/performance.md section 4): L=1
#: 2.0-2.4, L=2 1.9-2.5, L=3 2.1-2.7, L=6 2.6-3.6. Three lanes is the
#: fewest whose replay costs no more than running them on every cell.
_MIN_REPLAY_LANES = 3


class _BatchGroup:
    """One shared-graph group: one graph build, then replay or runs.

    The group builds its graph once, from its first member, which runs
    as the anchor. Members evaluated together replay against a
    recording anchor when at least ``_MIN_REPLAY_LANES`` of them lie
    beyond it. Every other member (a lane a certificate rejects, every
    lane of a diverged replay, or a batch too small to replay) runs as
    a plain :class:`Simulator` on the same graph, sharing the group's
    :class:`CommMemos`; both paths equal a fresh serial run field by
    field. The graph, memos and recording anchor are retained, so a
    :class:`SetpointSession` keeps refining setpoints against them
    across calls.

    ``replayed`` counts members rebuilt from a replay, and ``serial``
    counts every other non-anchor member by reason: a certificate name
    (see :meth:`_ReplayOutput.reconstruct`), ``"replay diverged"`` or
    ``"below lane count"``.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._run = None
        self._memos = CommMemos()
        self._anchor: _RecordingSimulator | None = None
        self.replayed = 0
        self.serial: Counter[str] = Counter()

    def _build(self, kwargs: dict) -> None:
        # The graph key is every kwarg but ``settings`` (see _group_key),
        # so the anchor's graph is the one each member's serial run
        # would build.
        from repro.core.experiment import prepare_run

        self._run = prepare_run(
            inference=self.kind == "infer",
            **{
                k: v for k, v in kwargs.items()
                if k not in ("settings", "warmup_iterations")
            },
        )

    def _simulator(self, member: _Member, cls=Simulator) -> Simulator:
        return cls(
            self._run.mesh, self._run.graph,
            member.kwargs.get("settings"), self._memos,
        )

    def _wrap(self, member: _Member, outcome: SimOutcome) -> RunResult:
        return self._run.result(
            outcome, member.kwargs.get("warmup_iterations", 1)
        )

    def evaluate(self, members: list[_Member]) -> list[RunResult]:
        """Run every member, replaying where enough lanes share a call."""
        fresh = self._run is None
        if fresh:
            self._build(members[0].kwargs)
        # A call on a group with no recording anchor yet records its
        # first member, so that member is not a lane.
        if len(members) - (self._anchor is None) < _MIN_REPLAY_LANES:
            if len(members) > fresh:
                self.serial["below lane count"] += len(members) - fresh
            return [
                self._wrap(member, self._simulator(member).run())
                for member in members
            ]
        results = []
        if self._anchor is None:
            self._anchor = self._simulator(members[0], _RecordingSimulator)
            results.append(self._wrap(members[0], self._anchor.run()))
        rest = members[len(results):]
        for member, outcome in zip(rest, self._replay(rest)):
            if isinstance(outcome, str):
                self.serial[outcome] += 1
                outcome = self._simulator(member).run()
            else:
                self.replayed += 1
            results.append(self._wrap(member, outcome))
        return results

    def _replay(self, members: list[_Member]) -> list[SimOutcome | str]:
        try:
            replay = _VectorReplay(
                self._anchor, [m.setpoint for m in members]
            )
            replay.run()
            output = replay.finalize()
            output.prepare([m.settings for m in members])
            return [
                output.reconstruct(lane, member.settings, self._run.graph)
                for lane, member in enumerate(members)
            ]
        except _ReplayDiverged:
            return ["replay diverged"] * len(members)


def _plain_run(identity: RunIdentity) -> RunResult:
    # The runner is looked up per call, so test doubles patched on the
    # sweep module keep working.
    kind, kwargs = identity.payload
    return sweep._runner_for(kind)(**kwargs)


def _run_misses(misses: list[RunIdentity], group_for):
    """Yield ``(index, result)`` for uncached payloads, batching where
    graphs are shared.

    Batchable payloads are grouped by task graph; ``group_for(members)``
    gives the :class:`_BatchGroup` that evaluates a group's members
    together, or ``None`` to run them one by one. Everything else runs
    the ordinary per-config path.
    """
    grouped: dict[tuple, list[tuple[int, _Member]]] = {}
    for index, identity in enumerate(misses):
        member = _batchable(*identity.payload)
        if member is None:
            yield index, _plain_run(identity)
        else:
            grouped.setdefault(_group_key(member), []).append(
                (index, member)
            )
    for pairs in grouped.values():
        group = group_for(pairs)
        if group is None:
            for index, _ in pairs:
                yield index, _plain_run(misses[index])
        else:
            outputs = group.evaluate([member for _, member in pairs])
            yield from zip([index for index, _ in pairs], outputs)


def _new_group(pairs) -> _BatchGroup | None:
    return _BatchGroup(pairs[0][1].kind) if len(pairs) > 1 else None


def evaluate_grid(payloads: list[tuple[str, dict]], cache: bool = True,
                  report: ExecutionReport | None = None) -> list[RunResult]:
    """Evaluate a grid of run payloads, batching where graphs are shared.

    The batched equivalent of calling
    :func:`repro.core.sweep.cached_run` per payload, through
    :func:`repro.core.sweep.cached_batch` (one key and one probe per
    distinct payload; duplicates collapse to one run and return the
    same object) and with identical results. The misses are grouped by
    task graph and each group is evaluated on one build of it (see
    :class:`_BatchGroup`); a group of one, and everything that is not
    batchable, runs the ordinary per-config path.

    Args:
        payloads: ``(kind, kwargs)`` pairs as accepted by ``cached_run``.
        cache: consult/fill the persistent store (the in-process memo is
            always used, mirroring the serial path).
        report: an :class:`~repro.core.parallel.ExecutionReport` that
            receives the input positions the cache answered.
    """
    return sweep.cached_batch(
        payloads, lambda misses, _: _run_misses(misses, _new_group),
        report, cache,
    )


class SetpointSession:
    """Batched evaluator over static-setpoint variants of one workload.

    Setpoint searches (:func:`repro.optimize.optimize_setpoint`
    and friends) probe many static clock ceilings of the *same* run.
    A session keeps its group's task graph, comm-cost memos and
    recording anchor (if any) alive between calls, so every probe after
    the first skips the graph build: a call with at least
    ``_MIN_REPLAY_LANES`` new setpoints beyond the anchor replays, and
    smaller ones (the opening three-probe bracket, each golden-section
    refinement) run each setpoint as a simulation on the shared graph.
    Results are cached exactly like :func:`evaluate_grid` (same loop,
    keys, memo and store writes).
    """

    def __init__(self, kind: str,
                 kwargs_for: Callable[[float], dict]) -> None:
        self._kind = kind
        self._kwargs_for = kwargs_for
        self._group: _BatchGroup | None = None

    def _session_group(self, pairs) -> _BatchGroup:
        if self._group is None:
            self._group = _BatchGroup(self._kind)
        return self._group

    def evaluate(self, setpoints: Iterable[float], cache: bool = True,
                 report: ExecutionReport | None = None
                 ) -> dict[float, RunResult]:
        """Evaluate (and cache) each distinct setpoint; returns a map.

        ``report`` receives the positions, among the distinct
        setpoints, that the cache answered.
        """
        ordered = list(dict.fromkeys(setpoints))
        results = sweep.cached_batch(
            [(self._kind, self._kwargs_for(sp)) for sp in ordered],
            lambda misses, _: _run_misses(misses, self._session_group),
            report, cache,
        )
        return dict(zip(ordered, results))
