"""Tests for the fat-tree fabric model."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.fabric import (
    FatTreeSpec,
    allreduce_seconds_at_scale,
    bisection_bandwidth,
    effective_node_bandwidth,
    fabric_for_projection,
)
from repro.hardware.interconnect import INFINIBAND_100G, infiniband
from repro.units import GB


def _fabric_graph(spec: FatTreeSpec) -> dict[str, dict[str, float]]:
    """The fabric as an undirected capacity graph (bytes/s per edge).

    Vertices: ``node{i}``, ``leaf{l}`` and one aggregated ``spine`` (a
    non-blocking spine tier collapses to one vertex for capacity
    analysis).
    """
    graph: dict[str, dict[str, float]] = {}

    def edge(u: str, v: str, capacity: float) -> None:
        graph.setdefault(u, {})[v] = capacity
        graph.setdefault(v, {})[u] = capacity

    for i in range(spec.num_nodes):
        edge(f"node{i}", f"leaf{i // spec.nodes_per_leaf}",
             spec.node_link.peak_effective_bandwidth)
    for leaf in range(spec.num_leaves):
        edge(f"leaf{leaf}", "spine", spec.leaf_uplink_bytes_per_s)
    return graph


def _max_flow_bisection(spec: FatTreeSpec) -> float:
    """Oracle: Edmonds-Karp max flow from the first node half to the
    second, through a super-source and a super-sink."""
    residual = {u: dict(nbrs) for u, nbrs in _fabric_graph(spec).items()}
    residual["SRC"], residual["SNK"] = {}, {}
    half = spec.num_nodes // 2
    for i in range(spec.num_nodes):
        end = "SRC" if i < half else "SNK"
        residual[end][f"node{i}"] = residual[f"node{i}"][end] = float("inf")
    flow = 0.0
    while True:
        parent = {"SRC": None}
        queue = deque(["SRC"])
        while queue and "SNK" not in parent:
            u = queue.popleft()
            for v, capacity in residual[u].items():
                if capacity > 0 and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if "SNK" not in parent:
            return flow
        path, v = [], "SNK"
        while parent[v] is not None:
            path.append((parent[v], v))
            v = parent[v]
        push = min(residual[u][v] for u, v in path)
        for u, v in path:
            residual[u][v] -= push
            residual[v][u] += push
        flow += push


def _spec(num_nodes=64, nodes_per_leaf=16, oversubscription=1.0):
    return FatTreeSpec(
        num_nodes=num_nodes,
        nodes_per_leaf=nodes_per_leaf,
        node_link=INFINIBAND_100G,
        oversubscription=oversubscription,
    )


class TestSpec:
    def test_leaf_count(self):
        assert _spec(64, 16).num_leaves == 4
        assert _spec(65, 16).num_leaves == 5

    def test_uplink_capacity_scales_with_oversubscription(self):
        blocking = _spec(oversubscription=4.0)
        nonblocking = _spec(oversubscription=1.0)
        assert blocking.leaf_uplink_bytes_per_s == pytest.approx(
            nonblocking.leaf_uplink_bytes_per_s / 4
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            _spec(num_nodes=0)
        with pytest.raises(ValueError):
            _spec(oversubscription=0.5)


class TestGraph:
    def test_structure(self):
        graph = _fabric_graph(_spec(8, 4))
        assert len(graph) == 8 + 2 + 1  # nodes, leaves, spine
        assert "leaf0" in graph["node0"]
        assert "spine" in graph["leaf1"]


class TestBisection:
    def test_nonblocking_bisection_is_nic_limited(self):
        """At 1:1 the bisection equals half the nodes' NIC capacity."""
        spec = _spec(64, 16, oversubscription=1.0)
        nic = INFINIBAND_100G.peak_effective_bandwidth
        assert bisection_bandwidth(spec) == pytest.approx(32 * nic)

    def test_oversubscription_cuts_bisection(self):
        nonblocking = bisection_bandwidth(_spec(oversubscription=1.0))
        blocked = bisection_bandwidth(_spec(oversubscription=4.0))
        assert blocked == pytest.approx(nonblocking / 4)

    def test_single_leaf_has_full_bisection(self):
        """Intra-leaf traffic never touches the spine."""
        spec = _spec(num_nodes=8, nodes_per_leaf=8)
        nic = INFINIBAND_100G.peak_effective_bandwidth
        assert bisection_bandwidth(spec) == pytest.approx(4 * nic)

    def test_rejects_single_node(self):
        with pytest.raises(ValueError):
            bisection_bandwidth(_spec(num_nodes=1))


#: The specs the bisection tests above use, plus the fabric ablation's
#: (256 nodes at its largest DP, 32 per leaf, 100G and 800G NICs).
ORACLE_SPECS = [
    _spec(64, 16, 1.0), _spec(64, 16, 4.0), _spec(8, 8), _spec(8, 4),
] + [
    fabric_for_projection(256, link, oversubscription=ratio)
    for link in (INFINIBAND_100G, infiniband(800))
    for ratio in (1.0, 2.0, 4.0)
]


class TestBisectionOracle:
    """The closed form against a max flow over the explicit graph."""

    @pytest.mark.parametrize("spec", ORACLE_SPECS)
    def test_matches_max_flow(self, spec):
        assert bisection_bandwidth(spec) == pytest.approx(
            _max_flow_bisection(spec), rel=1e-12
        )

    @given(
        num_nodes=st.integers(min_value=2, max_value=80),
        nodes_per_leaf=st.integers(min_value=1, max_value=24),
        oversubscription=st.floats(min_value=1.0, max_value=16.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_max_flow_on_random_trees(
        self, num_nodes, nodes_per_leaf, oversubscription
    ):
        spec = _spec(num_nodes, nodes_per_leaf, oversubscription)
        assert bisection_bandwidth(spec) == pytest.approx(
            _max_flow_bisection(spec), rel=1e-12
        )


class TestEffectiveBandwidth:
    def test_nonblocking_keeps_nic_rate(self):
        spec = _spec(oversubscription=1.0)
        assert effective_node_bandwidth(spec) == pytest.approx(
            INFINIBAND_100G.peak_effective_bandwidth
        )

    def test_oversubscription_divides_rate(self):
        spec = _spec(oversubscription=2.0)
        assert effective_node_bandwidth(spec) == pytest.approx(
            INFINIBAND_100G.peak_effective_bandwidth / 2
        )

    def test_single_leaf_unaffected(self):
        spec = _spec(num_nodes=8, nodes_per_leaf=8, oversubscription=4.0)
        assert effective_node_bandwidth(spec) == pytest.approx(
            INFINIBAND_100G.peak_effective_bandwidth
        )


class TestAllReduceAtScale:
    def test_grows_with_oversubscription(self):
        fast = allreduce_seconds_at_scale(
            _spec(oversubscription=1.0), 1 * GB, 64
        )
        slow = allreduce_seconds_at_scale(
            _spec(oversubscription=4.0), 1 * GB, 64
        )
        assert slow == pytest.approx(4 * fast)

    def test_single_node_free(self):
        assert allreduce_seconds_at_scale(_spec(), 1 * GB, 1) == 0.0

    def test_too_many_participants(self):
        with pytest.raises(ValueError):
            allreduce_seconds_at_scale(_spec(num_nodes=4), 1 * GB, 8)

    def test_projection_builder_clamps_leaf(self):
        spec = fabric_for_projection(8, INFINIBAND_100G, nodes_per_leaf=32)
        assert spec.nodes_per_leaf == 8
