"""Hardware platform models: GPUs, links, nodes, clusters, topology."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.hardware.cluster": (
        "H100_X64", "H200_X32", "MI250_X32", "ClusterSpec", "cluster_names",
        "get_cluster", "one_gpu_per_node",
    ),
    "repro.hardware.fabric": (
        "FatTreeSpec", "allreduce_seconds_at_scale", "bisection_bandwidth",
        "effective_node_bandwidth", "fabric_for_projection",
    ),
    "repro.hardware.gpu": ("H100", "H200", "MI250_GCD", "GPUSpec", "get_gpu"),
    "repro.hardware.interconnect": (
        "INFINIBAND_100G", "NVLINK4", "PCIE_GEN4", "PCIE_GEN5", "XGMI",
        "XGMI_INTRA_PACKAGE", "LinkKind", "LinkSpec", "infiniband",
    ),
    "repro.hardware.node": (
        "HGX_H100_NODE", "HGX_H200_NODE", "MI250_NODE", "AirflowLayout",
        "NodeSpec",
    ),
    "repro.hardware.topology": (
        "Path", "group_spans_nodes", "nodes_of_group", "resolve_path",
        "ring_paths", "slowest_hop",
    ),
})

__all__ = [
    "H100",
    "H100_X64",
    "H200",
    "H200_X32",
    "HGX_H100_NODE",
    "HGX_H200_NODE",
    "INFINIBAND_100G",
    "MI250_GCD",
    "MI250_NODE",
    "MI250_X32",
    "NVLINK4",
    "PCIE_GEN4",
    "PCIE_GEN5",
    "XGMI",
    "XGMI_INTRA_PACKAGE",
    "AirflowLayout",
    "ClusterSpec",
    "FatTreeSpec",
    "allreduce_seconds_at_scale",
    "bisection_bandwidth",
    "effective_node_bandwidth",
    "fabric_for_projection",
    "GPUSpec",
    "LinkKind",
    "LinkSpec",
    "NodeSpec",
    "Path",
    "cluster_names",
    "get_cluster",
    "get_gpu",
    "group_spans_nodes",
    "infiniband",
    "nodes_of_group",
    "one_gpu_per_node",
    "resolve_path",
    "ring_paths",
    "slowest_hop",
]
