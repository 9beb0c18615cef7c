"""Per-run comm plans and per-cluster tables.

A send or collective start prices itself from a per-run plan (its GPUs,
NIC nodes and a contention-share -> price table) instead of calling the
cost models each time. These tests pin that the plan path is float for
float the cost models' own answer, that ``clear_cache`` empties the
per-cluster tables, that :class:`TaskGraph` still checks every task,
and that a stamped message's SEND and RECV share one spec.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.collectives import (
    allgather,
    allreduce,
    alltoall,
    reduce_scatter,
    send_recv,
)
from repro.comm.contention import NicContention
from repro.comm.message import TRANSFER_TIMES, transfer_time
from repro.comm.traffic import TrafficLedger
from repro.core.faults import HEALTHY, FaultEvent, FaultKind, FaultTimeline
from repro.core.sweep import clear_cache
from repro.engine.builder import GraphBuilder
from repro.engine.kernels import KernelKind
from repro.engine.physics import STEP_PROPAGATORS, VectorPhysics
from repro.engine.simulator import (
    EPS,
    SimSettings,
    Simulator,
    _RunningCollective,
)
from repro.engine.task import (
    CollectiveOp,
    CollectiveSpec,
    ComputeSpec,
    P2PSpec,
    Task,
    TaskGraph,
    TaskKind,
)
from repro.hardware.cluster import H200_X32, MI250_X32
from repro.hardware.interconnect import LinkKind
from repro.hardware.topology import PATHS, resolve_path
from repro.optimizations.overlap import fused_duration
from repro.parallelism.mapping import DeviceMesh
from repro.parallelism.strategy import OptimizationConfig, ParallelismConfig
from repro.resilience.runtime import build_fault_runtime

COST_FNS = {
    CollectiveOp.ALLREDUCE: allreduce,
    CollectiveOp.ALLGATHER: allgather,
    CollectiveOp.REDUCE_SCATTER: reduce_scatter,
    CollectiveOp.ALLTOALL: alltoall,
}
NOW = 1.0
GPUS_PER_NODE = 8


def _simulator(cluster, placement, degrade) -> Simulator:
    """A simulator over an empty graph, with ``degrade`` = (node,
    severity) of a link fault active at ``NOW`` (or None)."""
    mesh = DeviceMesh(
        cluster=cluster,
        config=ParallelismConfig(dp=cluster.total_gpus),
        placement=tuple(placement),
    )
    graph = TaskGraph(
        queues=[[] for _ in range(cluster.total_gpus)],
        num_iterations=1,
        tokens_per_iteration=1,
    )
    timeline = FaultTimeline()
    if degrade is not None:
        node, severity = degrade
        timeline = FaultTimeline(events=(FaultEvent(
            kind=FaultKind.LINK_DEGRADE, node=node, time_s=0.0,
            duration_s=10.0, severity=severity,
        ),))
    sim = Simulator(mesh, graph, SimSettings(fault_timeline=timeline))
    # The completion handlers ``run`` binds before the first start.
    for name, handler in sim._handlers.items():
        setattr(sim, f"_{name}_done", handler)
    return sim


def _expected_rates(cost, repeat, duration):
    return [
        (gpu, pcie * repeat / duration)
        for gpu, by_kind in cost.link_bytes.items()
        if (pcie := by_kind.get(LinkKind.PCIE, 0.0)) > 0
    ]


@st.composite
def _cases(draw):
    cluster = draw(st.sampled_from([H200_X32, MI250_X32]))
    placement = draw(st.permutations(range(cluster.total_gpus)))
    op = draw(st.sampled_from(["p2p", *COST_FNS]))
    intra = draw(st.booleans())
    if intra:
        node = draw(st.integers(0, cluster.num_nodes - 1))
        pool = range(node * GPUS_PER_NODE, (node + 1) * GPUS_PER_NODE)
    else:
        pool = range(cluster.total_gpus)
    size = 2 if op == "p2p" else draw(st.integers(2, 6))
    ranks = draw(st.lists(st.sampled_from(pool), min_size=size,
                          max_size=size, unique=True))
    payload = draw(st.floats(1e3, 1e9))
    degrade = draw(st.none() | st.tuples(
        st.integers(0, cluster.num_nodes - 1), st.floats(0.05, 1.0)
    ))
    return dict(
        cluster=cluster, placement=placement, op=op, ranks=ranks,
        payload=payload, degrade=degrade,
        chunked=draw(st.booleans()),
        repeat=draw(st.integers(1, 4)),
        overlap=op != "p2p" and draw(st.booleans()),
        # Concurrent flows already on the NICs before each start.
        busy=draw(st.lists(st.integers(0, 3), min_size=1, max_size=4)),
    )


class TestPlanPricing:
    """Plan-priced starts equal calling the cost models directly."""

    @settings(max_examples=60, deadline=None)
    @given(case=_cases())
    def test_plan_price_equals_cost_model(self, case):
        cluster = case["cluster"]
        sim = _simulator(cluster, case["placement"], case["degrade"])
        gpu_of = case["placement"]
        ranks = case["ranks"]
        gpus = [gpu_of[r] for r in ranks]
        nodes = sorted({g // GPUS_PER_NODE for g in gpus})
        nodes = tuple(nodes) if len(nodes) > 1 else ()
        faults = build_fault_runtime(sim.settings.fault_timeline, cluster)
        contention = NicContention(num_nodes=cluster.num_nodes)
        ledger = TrafficLedger(num_gpus=cluster.total_gpus)
        folded: dict[tuple, list] = {}
        repeat = 1 if case["op"] == "p2p" else case["repeat"]
        overlap = ComputeSpec(flops=4e12) if case["overlap"] else None

        for start, busy in enumerate(case["busy"]):
            for _ in range(busy):
                if nodes:
                    contention.begin(nodes)
                    sim._contention.begin(nodes)
            share = contention.begin(nodes) if nodes else 1.0
            if nodes and faults is not None:
                share *= faults.link_scale(nodes, NOW)
            sim._heap.clear()
            sim._pcie_rate[:] = [0.0] * cluster.total_gpus
            if case["op"] == "p2p":
                spec = P2PSpec(ranks[0], ranks[1], case["payload"],
                               case["chunked"], start)
                task = Task(start, TaskKind.SEND, KernelKind.PP_SEND,
                            (ranks[0],), p2p=spec)
                sim._start_send(task, ranks[0], NOW)
                key = ("p2p", *gpus, case["payload"], case["chunked"],
                       share)
                cost = send_recv(cluster, gpus[0], gpus[1], case["payload"],
                                 chunked=case["chunked"],
                                 bandwidth_scale=share)
                duration = max(cost.duration_s, EPS)
                rates = sim._heap[0][7]
            else:
                spec = CollectiveSpec(case["op"], tuple(ranks),
                                      case["payload"], repeat)
                task = Task(start, TaskKind.COLLECTIVE,
                            KernelKind.TP_ALLREDUCE, tuple(ranks),
                            collective=spec, overlap_compute=overlap)
                state = _RunningCollective(arrivals={r: NOW for r in ranks})
                sim._start_collective(task, state, NOW)
                key = (case["op"], tuple(ranks), case["payload"], share)
                cost = COST_FNS[case["op"]](
                    cluster, gpus, case["payload"], bandwidth_scale=share
                )
                duration = cost.duration_s * repeat
                if overlap is not None:
                    duration = fused_duration(
                        max(sim._kernel_duration(overlap, g, NOW)
                            for g in gpus),
                        duration,
                    )
                duration = max(duration, EPS)
                rates = state.pcie_rates
            assert sim._comm_memo[key] == cost
            assert sim._heap[0][0] == NOW + duration
            expected = _expected_rates(cost, repeat, duration)
            assert rates == expected
            pcie = [0.0] * cluster.total_gpus
            for gpu, rate in expected:
                pcie[gpu] += rate
            assert sim._pcie_rate == pcie
            folded.setdefault(key, [cost, 0])[1] += repeat

        for cost, count in folded.values():
            ledger.record(cost, count)
        sim._flush_traffic()
        assert sim.traffic == ledger


class TestClusterTables:
    def test_clear_cache_empties_the_tables(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        transfer_time(resolve_path(H200_X32, 0, 9), 1e6)
        VectorPhysics(H200_X32, HEALTHY)._propagator(
            SimSettings().physics_dt_s
        )
        assert PATHS and TRANSFER_TIMES and STEP_PROPAGATORS
        clear_cache()
        assert not PATHS and not TRANSFER_TIMES and not STEP_PROPAGATORS

    def test_paths_are_kept_per_cluster(self):
        path = resolve_path(H200_X32, 0, 9)
        assert resolve_path(H200_X32, 0, 9) is path
        # Equal paths share one links tuple, hence one transfer time.
        assert resolve_path(H200_X32, 1, 10).links is path.links
        other = resolve_path(MI250_X32, 0, 9)
        assert other.links != path.links

    def test_default_step_propagator_is_shared_partial_is_not(self):
        clear_cache()
        dt = SimSettings().physics_dt_s
        first = VectorPhysics(H200_X32, HEALTHY)
        second = VectorPhysics(H200_X32, HEALTHY)
        assert first._propagator(dt) is second._propagator(dt)
        assert len(STEP_PROPAGATORS) == 1
        first._propagator(0.0123)
        assert len(STEP_PROPAGATORS) == 1
        assert 0.0123 not in second._propagators


class TestTaskChecks:
    """TaskGraph checks every task with the messages Task once raised."""

    @pytest.mark.parametrize("task, message", [
        (Task(0, TaskKind.COMPUTE, KernelKind.FWD_GEMM, (0,)),
         "COMPUTE task needs a ComputeSpec"),
        (Task(0, TaskKind.COLLECTIVE, KernelKind.TP_ALLREDUCE, (0,)),
         "COLLECTIVE task needs a CollectiveSpec"),
        (Task(0, TaskKind.SEND, KernelKind.PP_SEND, (0,)),
         "P2P task needs a P2PSpec"),
        (Task(0, TaskKind.RECV, KernelKind.PP_RECV, (0,)),
         "P2P task needs a P2PSpec"),
        (Task(0, TaskKind.COMPUTE, KernelKind.FWD_GEMM, (),
              compute=ComputeSpec(flops=1.0)),
         "task must have at least one rank"),
    ])
    def test_malformed_task_rejected(self, task, message):
        queues = [[task], [Task(
            1, TaskKind.COMPUTE, KernelKind.FWD_GEMM, (1,),
            compute=ComputeSpec(flops=1.0),
        )]]
        with pytest.raises(ValueError, match=message):
            TaskGraph(queues=queues, num_iterations=1,
                      tokens_per_iteration=1)


class TestStampedMessages:
    def test_send_and_recv_share_one_spec(self, tiny_model, small_cluster):
        mesh = DeviceMesh(
            cluster=small_cluster,
            config=ParallelismConfig(tp=2, pp=2, dp=2),
        )
        graph = GraphBuilder(
            tiny_model, mesh, microbatch_size=1, global_batch_size=8,
            opts=OptimizationConfig(), iterations=2,
        ).build()
        specs: dict[int, list] = {}
        for queue in graph.queues:
            for task in queue:
                if task.p2p is not None:
                    specs.setdefault(task.p2p.message_id, []).append(task)
        # Every later iteration is stamped from the first.
        stamped = [
            tasks for tasks in specs.values() if tasks[0].iteration == 1
        ]
        assert stamped
        for send, recv in stamped:
            assert {send.kind, recv.kind} == {TaskKind.SEND, TaskKind.RECV}
            assert send.p2p is recv.p2p
