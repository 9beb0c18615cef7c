"""Zeus-style telemetry: sampling, metrics, CSV export, anomalies."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.telemetry.anomaly": (
        "AnomalyKind", "DetectorConfig", "GpuAnomaly", "NodeIncident",
        "detect_gpu_anomalies", "diagnose", "group_node_incidents",
    ),
    "repro.telemetry.export": (
        "FLEET_TELEMETRY_HEADER", "SERVING_REQUESTS_HEADER",
        "SERVING_TIMELINE_HEADER", "TELEMETRY_HEADER", "read_telemetry_csv",
        "write_fleet_telemetry_csv", "write_serving_requests_csv",
        "write_serving_timeline_csv", "write_telemetry_csv",
    ),
    "repro.telemetry.metrics": (
        "ClusterStats", "EfficiencySummary", "GpuStats", "efficiency_summary",
        "front_rear_gap_c", "normalized_heatmap", "temperature_heatmap",
        "window_stats",
    ),
    "repro.telemetry.monitor": ("GpuSeries", "TelemetryLog"),
})

__all__ = [
    "FLEET_TELEMETRY_HEADER",
    "SERVING_REQUESTS_HEADER",
    "SERVING_TIMELINE_HEADER",
    "TELEMETRY_HEADER",
    "write_fleet_telemetry_csv",
    "write_serving_requests_csv",
    "write_serving_timeline_csv",
    "AnomalyKind",
    "DetectorConfig",
    "GpuAnomaly",
    "NodeIncident",
    "detect_gpu_anomalies",
    "diagnose",
    "group_node_incidents",
    "ClusterStats",
    "EfficiencySummary",
    "GpuSeries",
    "GpuStats",
    "TelemetryLog",
    "efficiency_summary",
    "front_rear_gap_c",
    "normalized_heatmap",
    "read_telemetry_csv",
    "temperature_heatmap",
    "window_stats",
    "write_telemetry_csv",
]
