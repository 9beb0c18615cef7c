"""Communication cost models, traffic accounting, and contention."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.comm.collectives": (
        "CommCost", "allgather", "allreduce", "alltoall", "broadcast",
        "reduce_scatter", "send_recv",
    ),
    "repro.comm.contention": ("MIN_SHARE", "NicContention"),
    "repro.comm.message": (
        "chunking_efficiency", "effective_bandwidth", "segment_time",
        "transfer_time",
    ),
    "repro.comm.traffic": ("TrafficLedger",),
})

__all__ = [
    "MIN_SHARE",
    "CommCost",
    "NicContention",
    "TrafficLedger",
    "allgather",
    "allreduce",
    "alltoall",
    "broadcast",
    "chunking_efficiency",
    "effective_bandwidth",
    "reduce_scatter",
    "segment_time",
    "send_recv",
    "transfer_time",
]
