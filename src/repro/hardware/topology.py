"""Topology resolution: which links a transfer between two ranks crosses.

This is the piece that makes collectives *topology-aware* (or exposes the
cost when they are not): intra-node traffic rides NVLink/xGMI, while
inter-node traffic crosses host PCIe on both ends plus the InfiniBand
fabric, sharing NICs with every other flow of the node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.hardware.cluster import ClusterSpec
from repro.hardware.interconnect import LinkKind, LinkSpec


@dataclass(frozen=True)
class Path:
    """The links one point-to-point transfer traverses, in order.

    Attributes:
        links: traversed fabric segments.
        src: source global rank.
        dst: destination global rank.
        inter_node: whether the path leaves the source node.
    """

    links: tuple[LinkSpec, ...]
    src: int
    dst: int
    inter_node: bool

    @property
    def bottleneck_bandwidth(self) -> float:
        """Peak effective bandwidth of the narrowest segment (bytes/s)."""
        return min(link.peak_effective_bandwidth for link in self.links)

    @property
    def latency_s(self) -> float:
        """Sum of per-segment base latencies."""
        return sum(link.latency_s for link in self.links)

    @property
    def uses_pcie(self) -> bool:
        """Whether the path includes a host PCIe segment."""
        return any(link.kind is LinkKind.PCIE for link in self.links)


#: Paths per cluster object: ``id(cluster) -> ((src, dst) -> Path, links
#: tuples by value, cluster)``; equal paths share one links tuple (and so
#: one transfer-time entry). Holding the cluster keeps its id unique;
#: :func:`repro.core.sweep.clear_cache` empties it.
PATHS: dict[int, tuple[dict, dict, ClusterSpec]] = {}


def resolve_path(cluster: ClusterSpec, src: int, dst: int) -> Path:
    """Links traversed by a transfer from rank ``src`` to rank ``dst``.

    Same package (MI250 GCD pair) -> intra-package xGMI; same node ->
    node fabric; different nodes -> PCIe + InfiniBand + PCIe. Paths are
    kept per cluster in :data:`PATHS`.
    """
    entry = PATHS.get(id(cluster))
    if entry is None:
        entry = PATHS[id(cluster)] = ({}, {}, cluster)
    paths, links_by_value, _ = entry
    path = paths.get((src, dst))
    if path is None:
        links, inter_node = _links(cluster, src, dst)
        path = paths[src, dst] = Path(
            links=links_by_value.setdefault(links, links),
            src=src, dst=dst, inter_node=inter_node,
        )
    return path


def _links(
    cluster: ClusterSpec, src: int, dst: int
) -> tuple[tuple[LinkSpec, ...], bool]:
    """(links, inter_node) of the path from ``src`` to ``dst``."""
    if src == dst:
        raise ValueError("src and dst must differ")
    node = cluster.node
    if cluster.same_node(src, dst):
        a, b = cluster.local_index(src), cluster.local_index(dst)
        if node.intra_package_link is not None and node.same_package(a, b):
            return (node.intra_package_link,), False
        return (node.intra_node_link,), False
    return (node.host_pcie, cluster.inter_node_link, node.host_pcie), True


def group_spans_nodes(cluster: ClusterSpec, ranks: Iterable[int]) -> bool:
    """Whether a communication group crosses node boundaries."""
    nodes = {cluster.node_of(r) for r in ranks}
    return len(nodes) > 1


def nodes_of_group(cluster: ClusterSpec, ranks: Iterable[int]) -> set[int]:
    """Set of nodes hosting the given ranks."""
    return {cluster.node_of(r) for r in ranks}


def ring_paths(cluster: ClusterSpec, ranks: list[int]) -> list[Path]:
    """Paths of the logical ring ``ranks[0] -> ranks[1] -> ... -> ranks[0]``.

    Ring collectives (NCCL-style AllReduce/AllGather) stream data around
    this ring; the slowest hop bounds throughput.
    """
    if len(ranks) < 2:
        raise ValueError("a ring needs at least 2 ranks")
    if len(set(ranks)) != len(ranks):
        raise ValueError("ring ranks must be distinct")
    return [
        resolve_path(cluster, ranks[i], ranks[(i + 1) % len(ranks)])
        for i in range(len(ranks))
    ]


def slowest_hop(paths: Iterable[Path]) -> Path:
    """The path with the lowest bottleneck bandwidth."""
    paths = list(paths)
    if not paths:
        raise ValueError("no paths given")
    return min(paths, key=lambda p: p.bottleneck_bandwidth)
