"""Zeus-style telemetry: sampling, metrics, CSV export, anomalies."""

from repro.telemetry.anomaly import (
    AnomalyKind,
    DetectorConfig,
    GpuAnomaly,
    NodeIncident,
    detect_gpu_anomalies,
    diagnose,
    group_node_incidents,
)
from repro.telemetry.export import (
    FLEET_TELEMETRY_HEADER,
    SERVING_REQUESTS_HEADER,
    SERVING_TIMELINE_HEADER,
    TELEMETRY_HEADER,
    read_telemetry_csv,
    write_fleet_telemetry_csv,
    write_serving_requests_csv,
    write_serving_timeline_csv,
    write_telemetry_csv,
)
from repro.telemetry.metrics import (
    ClusterStats,
    EfficiencySummary,
    GpuStats,
    efficiency_summary,
    front_rear_gap_c,
    normalized_heatmap,
    temperature_heatmap,
    window_stats,
)
from repro.telemetry.monitor import GpuSeries, TelemetryLog

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
