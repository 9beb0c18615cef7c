"""Shared-NIC and PCIe-lane contention model.

Unlike DGX systems that assume dedicated communication paths, the paper's
scale-out clusters share NICs and PCIe lanes between every GPU of a node
(Section 4.2). The :class:`NicContention` tracker counts concurrently
active inter-node flows per node; the bandwidth a new flow receives is the
fair share ``1 / concurrent_flows`` of the node's NIC capacity (bounded
below so a flood of tiny flows cannot starve completely).
"""

from __future__ import annotations

from dataclasses import dataclass, field

MIN_SHARE = 0.05  # a flow never gets less than 5% of the fabric


@dataclass
class NicContention:
    """Per-node count of active inter-node flows."""

    num_nodes: int
    _active: dict[int, int] = field(default_factory=dict)

    def begin(self, nodes: tuple[int, ...]) -> float:
        """Register a flow over ``nodes``' NICs; return its bandwidth share.

        The share is computed *after* registering, against the most
        contended involved node.
        """
        if not nodes:
            return 1.0
        active = self._active
        for node in nodes:
            if not 0 <= node < self.num_nodes:
                self._check(node)
            active[node] = active.get(node, 0) + 1
        worst = max(map(active.__getitem__, nodes))
        if worst <= 1:
            return 1.0
        return max(MIN_SHARE, 1.0 / worst)

    def end(self, nodes: tuple[int, ...]) -> None:
        """Unregister a flow previously passed to :meth:`begin`."""
        active = self._active
        for node in nodes:
            if not 0 <= node < self.num_nodes:
                self._check(node)
            count = active.get(node, 0)
            if count <= 0:
                raise ValueError(f"no active flows on node {node}")
            active[node] = count - 1

    def share(self, nodes: tuple[int, ...]) -> float:
        """Fair bandwidth share for a flow crossing ``nodes``' NICs."""
        if not nodes:
            return 1.0
        worst = max(self._active.get(node, 0) for node in nodes)
        if worst <= 1:
            return 1.0
        return max(MIN_SHARE, 1.0 / worst)

    def active_flows(self, node: int) -> int:
        """Currently active inter-node flows through ``node``'s NICs."""
        self._check(node)
        return self._active.get(node, 0)

    def _check(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} out of range")
