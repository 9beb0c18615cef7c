"""Chakra-style execution trace aggregation and export."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.trace.export": (
        "TRACE_HEADER", "read_trace_csv", "write_trace_csv",
    ),
    "repro.trace.chakra": (
        "KernelBreakdown", "PressureSummary", "comm_skew", "filter_records",
        "mean_breakdown", "per_rank_breakdown", "pressure_summary",
    ),
})

__all__ = [
    "TRACE_HEADER",
    "KernelBreakdown",
    "read_trace_csv",
    "write_trace_csv",
    "PressureSummary",
    "comm_skew",
    "filter_records",
    "mean_breakdown",
    "per_rank_breakdown",
    "pressure_summary",
]
