"""SVG figure generation (artifact-style visualization scripts)."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.viz.charts": (
        "ChartSpec", "HeatmapSpec", "Series", "grouped_bar_chart", "heatmap",
        "line_chart", "stacked_bar_chart",
    ),
    "repro.viz.figures": (
        "energy_efficiency_comparison", "kernel_breakdown_figure",
        "microbatch_sweep_figure", "schedule_timeline_figure",
        "temperature_heatmap_figure", "thermal_timeseries_figure",
        "throttle_heatmap_figure", "throughput_comparison",
    ),
    "repro.viz.palette": (
        "CATEGORICAL", "SEQUENTIAL", "SURFACE", "sequential_color",
        "series_color",
    ),
    "repro.viz.svg": ("SvgCanvas",),
})

__all__ = [
    "CATEGORICAL",
    "SEQUENTIAL",
    "SURFACE",
    "ChartSpec",
    "HeatmapSpec",
    "Series",
    "SvgCanvas",
    "energy_efficiency_comparison",
    "grouped_bar_chart",
    "heatmap",
    "kernel_breakdown_figure",
    "line_chart",
    "microbatch_sweep_figure",
    "schedule_timeline_figure",
    "sequential_color",
    "series_color",
    "stacked_bar_chart",
    "temperature_heatmap_figure",
    "thermal_timeseries_figure",
    "throttle_heatmap_figure",
    "throughput_comparison",
]
