"""Interconnect link models.

Each :class:`LinkSpec` is a point-to-point or switched fabric segment with
a peak bandwidth, base latency, and a large-message efficiency ceiling.
Effective throughput for a given message additionally depends on message
size and flow concurrency; those effects live in :mod:`repro.comm.message`
and :mod:`repro.comm.contention` — this module only describes the wires.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.units import GB, GBPS, US


class LinkKind(Enum):
    """Fabric classes appearing in the paper's clusters (Figure 1)."""

    NVLINK = "nvlink"
    XGMI = "xgmi"
    PCIE = "pcie"
    INFINIBAND = "infiniband"

    # C-level identity hash (see repro.engine.kernels.KernelCategory).
    __hash__ = object.__hash__


@dataclass(frozen=True)
class LinkSpec:
    """One fabric segment.

    Attributes:
        kind: fabric class.
        bandwidth_bytes_per_s: peak unidirectional bandwidth.
        latency_s: per-message base latency (software + wire).
        efficiency: achievable fraction of peak for very large messages
            (protocol overhead ceiling).
    """

    kind: LinkKind
    bandwidth_bytes_per_s: float
    latency_s: float
    efficiency: float = 0.9

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth must be positive")
        if not 0 < self.efficiency <= 1:
            raise ValueError("efficiency must be in (0, 1]")

    @property
    def peak_effective_bandwidth(self) -> float:
        """Large-message bandwidth ceiling in bytes/s."""
        return self.bandwidth_bytes_per_s * self.efficiency


# Catalog: the three clusters' fabrics (Table 3 / Figure 1). --------------

NVLINK4 = LinkSpec(  # NVLink/NVSwitch inside an HGX node: 900 GB/s per GPU
    kind=LinkKind.NVLINK,
    bandwidth_bytes_per_s=450 * GB,  # unidirectional
    latency_s=2 * US,
    efficiency=0.85,
)

XGMI = LinkSpec(  # xGMI mesh inside an MI250 node (per-GCD aggregate)
    kind=LinkKind.XGMI,
    bandwidth_bytes_per_s=100 * GB,
    latency_s=3 * US,
    efficiency=0.8,
)

XGMI_INTRA_PACKAGE = LinkSpec(  # between the two GCDs of one MI250 package
    kind=LinkKind.XGMI,
    bandwidth_bytes_per_s=200 * GB,
    latency_s=1.5 * US,
    efficiency=0.85,
)

PCIE_GEN5 = LinkSpec(  # GPU <-> NIC path inside the host
    kind=LinkKind.PCIE,
    bandwidth_bytes_per_s=64 * GB,
    latency_s=5 * US,
    efficiency=0.8,
)

PCIE_GEN4 = LinkSpec(  # MI250 host PCIe
    kind=LinkKind.PCIE,
    bandwidth_bytes_per_s=32 * GB,
    latency_s=6 * US,
    efficiency=0.8,
)

INFINIBAND_100G = LinkSpec(  # 100 Gbps HDR IB between nodes (all clusters)
    kind=LinkKind.INFINIBAND,
    bandwidth_bytes_per_s=100 * GBPS,
    latency_s=12 * US,
    efficiency=0.9,
)


def infiniband(gbps: float) -> LinkSpec:
    """An InfiniBand fabric at an arbitrary rate (Section 7.1 sweeps)."""
    if gbps <= 0:
        raise ValueError("gbps must be positive")
    return LinkSpec(
        kind=LinkKind.INFINIBAND,
        bandwidth_bytes_per_s=gbps * GBPS,
        latency_s=12 * US,
        efficiency=0.9,
    )
