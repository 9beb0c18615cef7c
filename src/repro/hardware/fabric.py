"""Inter-node fabric topologies: fat-trees with oversubscription.

The paper's clusters hang off a single 100 Gb/s InfiniBand switch tier
(Figure 1), and its Section 7.1 projection treats the fabric as a flat
pipe. Real datacenter fabrics are multi-tier fat-trees whose leaf-to-
spine *oversubscription* decides how much of the node-level bandwidth
survives when traffic leaves the rack — exactly the "network performance
becomes an even more critical factor" regime Figure 22 points at.

This module computes the tree's bisection bandwidth in closed form and
exposes the effective per-node bandwidth under all-to-all-ish load —
which the projection can consume in place of the flat-pipe assumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.hardware.interconnect import LinkSpec


@dataclass(frozen=True)
class FatTreeSpec:
    """A two-tier (leaf/spine) fat-tree.

    Attributes:
        num_nodes: server nodes attached to the fabric.
        nodes_per_leaf: nodes under each leaf switch.
        node_link: the node-to-leaf link (the cluster's NIC rate).
        oversubscription: ratio of downlink to uplink capacity per leaf
            (1.0 = non-blocking; 4.0 = a 4:1 oversubscribed leaf).
    """

    num_nodes: int
    nodes_per_leaf: int
    node_link: LinkSpec
    oversubscription: float = 1.0

    def __post_init__(self) -> None:
        if self.num_nodes < 1 or self.nodes_per_leaf < 1:
            raise ValueError("node counts must be positive")
        if self.oversubscription < 1.0:
            raise ValueError("oversubscription must be >= 1.0")

    @property
    def num_leaves(self) -> int:
        """Leaf switches needed to host every node."""
        return math.ceil(self.num_nodes / self.nodes_per_leaf)

    @property
    def leaf_downlink_bytes_per_s(self) -> float:
        """Aggregate node-facing capacity of one fully populated leaf."""
        return (
            self.nodes_per_leaf * self.node_link.peak_effective_bandwidth
        )

    @property
    def leaf_uplink_bytes_per_s(self) -> float:
        """Aggregate spine-facing capacity of one leaf."""
        return self.leaf_downlink_bytes_per_s / self.oversubscription


def bisection_bandwidth(spec: FatTreeSpec) -> float:
    """Bisection bandwidth between the two node halves (bytes/s).

    The max flow from the first half of the nodes to the second, in
    closed form for the leaf/spine tree. Within a leaf, every pair of a
    source-half and a sink-half node exchanges at the NIC rate without
    touching the spine. The rest crosses the spine, limited per leaf by
    its uplink, so the cross-leaf flow is the smaller of what the
    source-heavy leaves can send up and the sink-heavy leaves can take
    down.
    """
    if spec.num_nodes < 2:
        raise ValueError("bisection needs at least two nodes")
    nic = spec.node_link.peak_effective_bandwidth
    uplink = spec.leaf_uplink_bytes_per_s
    half = spec.num_nodes // 2
    local = up = down = 0.0
    for first in range(0, spec.num_nodes, spec.nodes_per_leaf):
        last = min(first + spec.nodes_per_leaf, spec.num_nodes)
        sources = max(0, min(last, half) - first)
        sinks = last - first - sources
        local += min(sources, sinks) * nic
        up += min(max(sources - sinks, 0) * nic, uplink)
        down += min(max(sinks - sources, 0) * nic, uplink)
    return local + min(up, down)


def effective_node_bandwidth(spec: FatTreeSpec) -> float:
    """Per-node bandwidth under uniform cross-leaf load (bytes/s).

    When every node talks across the fabric (ring AllReduce over many
    nodes, all-to-all expert traffic), each leaf's uplink is shared by
    its nodes: the per-node rate is the NIC rate divided by the
    oversubscription factor. Intra-leaf pairs are unaffected; this is
    the pessimistic cross-leaf figure the projection needs.
    """
    if spec.num_leaves == 1:
        return spec.node_link.peak_effective_bandwidth
    return (
        spec.node_link.peak_effective_bandwidth / spec.oversubscription
    )


def allreduce_seconds_at_scale(
    spec: FatTreeSpec, payload_bytes_per_node: float, num_nodes: int
) -> float:
    """Ring AllReduce time over ``num_nodes`` through this fabric.

    The ring crosses leaves, so its sustained rate is the effective
    (oversubscription-degraded) per-node bandwidth.
    """
    if num_nodes < 2:
        return 0.0
    if num_nodes > spec.num_nodes:
        raise ValueError("more participants than fabric nodes")
    bandwidth = effective_node_bandwidth(spec)
    return 2.0 * (num_nodes - 1) / num_nodes * (
        payload_bytes_per_node / bandwidth
    )


def fabric_for_projection(
    num_nodes: int,
    node_link: LinkSpec,
    nodes_per_leaf: int = 32,
    oversubscription: float = 1.0,
) -> FatTreeSpec:
    """Convenience builder for projection-scale fabrics."""
    return FatTreeSpec(
        num_nodes=num_nodes,
        nodes_per_leaf=min(nodes_per_leaf, num_nodes),
        node_link=node_link,
        oversubscription=oversubscription,
    )
