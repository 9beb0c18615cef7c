"""Paper-figure SVG generators over :class:`~repro.core.results.RunResult`.

These mirror the artifact's visualization scripts: feed them the
simulated runs and they render the corresponding paper figure as a
standalone SVG file. Each returns the SVG string; pass ``path`` to also
write it.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.core.results import RunResult
from repro.engine.kernels import KernelCategory
from repro.viz.charts import (
    ChartSpec,
    HeatmapSpec,
    Series,
    grouped_bar_chart,
    heatmap,
    line_chart,
    stacked_bar_chart,
)

if TYPE_CHECKING:
    from repro.datacenter.fleet import FleetOutcome

BREAKDOWN_CATEGORIES = (
    KernelCategory.COMPUTE,
    KernelCategory.ALLREDUCE,
    KernelCategory.SENDRECV,
    KernelCategory.ALLTOALL,
    KernelCategory.ALLGATHER_RS,
    KernelCategory.OPTIMIZER,
)


def _maybe_save(svg: str, path: str | Path | None) -> str:
    if path is not None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(svg)
    return svg


def throughput_comparison(
    results: dict[str, RunResult],
    title: str = "Training throughput",
    path: str | Path | None = None,
) -> str:
    """Figure 2-style grouped bars: tokens/s per labelled run."""
    if not results:
        raise ValueError("no results given")
    labels = tuple(results)
    values = tuple(
        results[label].efficiency().tokens_per_s for label in labels
    )
    spec = ChartSpec(
        title=title,
        categories=labels,
        series=(Series(name="tokens/s", values=values),),
        unit="tokens/s",
    )
    return _maybe_save(grouped_bar_chart(spec), path)


def energy_efficiency_comparison(
    results: dict[str, RunResult],
    title: str = "Energy efficiency",
    path: str | Path | None = None,
) -> str:
    """Figure 2-style bars for tokens/J."""
    labels = tuple(results)
    values = tuple(
        results[label].efficiency().tokens_per_joule for label in labels
    )
    spec = ChartSpec(
        title=title,
        categories=labels,
        series=(Series(name="tokens/J", values=values),),
        unit="tokens/J",
    )
    return _maybe_save(grouped_bar_chart(spec), path)


def kernel_breakdown_figure(
    results: dict[str, RunResult],
    title: str = "Kernel time per iteration",
    path: str | Path | None = None,
) -> str:
    """Figure 3/7/8-style stacked kernel-time bars per configuration."""
    labels = tuple(results)
    series = []
    for category in BREAKDOWN_CATEGORIES:
        values = tuple(
            results[label].kernel_breakdown().get(category)
            for label in labels
        )
        if any(v > 0 for v in values):
            series.append(Series(name=category.value, values=values))
    spec = ChartSpec(
        title=title,
        categories=labels,
        series=tuple(series),
        unit="seconds / iteration",
    )
    return _maybe_save(stacked_bar_chart(spec), path)


def temperature_heatmap_figure(
    result: RunResult,
    title: str = "Mean GPU temperature",
    path: str | Path | None = None,
) -> str:
    """Figure 17a/18a-style (node x local GPU) temperature heatmap."""
    matrix = result.temperature_heatmap()
    spec = HeatmapSpec(
        title=f"{title} — {result.parallelism.name}",
        row_labels=tuple(
            f"node {n}" for n in range(matrix.shape[0])
        ),
        col_labels=tuple(
            f"GPU {g}" for g in range(matrix.shape[1])
        ),
        values=tuple(tuple(float(v) for v in row) for row in matrix),
        unit="degC (rear positions are the right columns' siblings)",
    )
    return _maybe_save(heatmap(spec), path)


def throttle_heatmap_figure(
    result: RunResult,
    title: str = "Clock throttling ratio",
    path: str | Path | None = None,
) -> str:
    """Figure 17b/18b-style throttling heatmap."""
    per_node = result.cluster.node.gpus_per_node
    matrix = np.array(result.throttle_ratio()).reshape(-1, per_node)
    spec = HeatmapSpec(
        title=f"{title} — {result.parallelism.name}",
        row_labels=tuple(f"node {n}" for n in range(matrix.shape[0])),
        col_labels=tuple(f"GPU {g}" for g in range(per_node)),
        values=tuple(tuple(float(v) for v in row) for row in matrix),
        unit="fraction of time throttled",
    )
    return _maybe_save(heatmap(spec), path)


def thermal_timeseries_figure(
    result: RunResult,
    gpus: tuple[int, ...] = (0, 4),
    labels: tuple[str, ...] = ("front GPU", "rear GPU"),
    path: str | Path | None = None,
) -> str:
    """Figure 19-style temperature-over-time panel, front vs rear."""
    if len(gpus) != len(labels):
        raise ValueError("one label per GPU")
    telemetry = result.outcome.telemetry
    series_list = []
    times = None
    for gpu, label in zip(gpus, labels):
        series = telemetry.series(gpu)
        if times is None or len(series.times_s) < len(times):
            times = series.times_s
        series_list.append((label, series.temp_c))
    length = len(times)
    spec = ChartSpec(
        title=f"GPU temperature over time — {result.label}",
        categories=tuple(str(i) for i in range(length)),
        series=tuple(
            Series(name=label, values=tuple(float(v) for v in temps[:length]))
            for label, temps in series_list
        ),
        unit="degC",
    )
    return _maybe_save(
        line_chart(
            spec,
            x_values=tuple(float(t) for t in times[:length]),
            x_label="time (s)",
        ),
        path,
    )


def powerctl_timeline_figure(
    result: RunResult,
    gpu: int | None = None,
    path: str | Path | None = None,
) -> str:
    """Setpoint-vs-temperature timeline of a power-governed run.

    Plots the die temperature of one GPU (hottest by default) together
    with the governor's clock setpoint for that GPU, both against the
    throttle threshold — the closed-loop picture behind the powerctl
    governors. Requires a run with power control enabled.
    """
    trace = result.outcome.power_control
    if trace is None:
        raise ValueError(
            "run has no power-control trace; enable a powerctl governor "
            "via SimSettings.power_control"
        )
    if gpu is None:
        gpu = result.stats().hottest_gpu()
    telemetry = result.outcome.telemetry
    series = telemetry.series(gpu)
    times = tuple(float(t) for t in series.times_s)
    setpoints = tuple(
        100.0 * trace.setpoint_at(gpu, t) for t in times
    )
    throttle = result.cluster.node.gpu.throttle_temp_c
    spec = ChartSpec(
        title=(
            f"Power control timeline — {trace.governor} governor, "
            f"GPU {gpu} — {result.label}"
        ),
        categories=tuple(str(i) for i in range(len(times))),
        series=(
            Series(
                name="die temperature (degC)",
                values=tuple(float(v) for v in series.temp_c),
            ),
            Series(
                name="clock setpoint (% of boost)",
                values=setpoints,
            ),
            Series(
                name="throttle threshold (degC)",
                values=tuple(float(throttle) for _ in times),
            ),
        ),
        unit="degC / % boost",
    )
    return _maybe_save(
        line_chart(spec, x_values=times, x_label="time (s)"),
        path,
    )


def schedule_timeline_figure(
    result: RunResult,
    iteration: int | None = None,
    path: str | Path | None = None,
) -> str:
    """Per-stage pipeline timeline: F/B/W lanes with visible bubbles.

    One lane per pipeline stage (the first rank of each stage), blocks
    for forward, backward, and — when the schedule splits the backward,
    as ``zb-h1`` does — weight-grad work, labelled with the microbatch
    index. Pipeline receive intervals render as gaps in the lane: the
    bubbles a schedule is judged by (docs/schedules.md). Requires a
    pipelined run (``pp >= 2``).
    """
    from repro.viz.palette import (
        CATEGORICAL,
        GRID,
        SURFACE,
        TEXT_PRIMARY,
        TEXT_SECONDARY,
    )
    from repro.viz.svg import SvgCanvas
    from repro.engine.kernels import KernelKind

    if result.parallelism.pp <= 1:
        raise ValueError(
            "schedule timeline needs a pipelined run (pp >= 2)"
        )
    records = result.outcome.records
    if not records:
        raise ValueError("run has no kernel records to plot")
    if iteration is None:
        iteration = int(records.iteration.max())
    records = records[records.iteration == iteration]
    # One representative rank per stage: the lowest rank that ran
    # stage-bound compute there (tp/dp siblings replay the same shape).
    staged = records[records.stage >= 0]
    stages = np.unique(staged.stage).tolist()
    if not stages:
        raise ValueError(f"iteration {iteration} has no stage records")
    lanes = {}
    for stage in stages:
        rank = staged.rank[staged.stage == stage].min()
        lanes[stage] = list(records[records.rank == rank])
    t0 = min(r.start_s for lane in lanes.values() for r in lane)
    t1 = max(r.end_s for lane in lanes.values() for r in lane)
    span = max(t1 - t0, 1e-9)

    left, top, row_h, gap = 96.0, 56.0, 30.0, 8.0
    plot_w = 760.0
    height = top + len(stages) * (row_h + gap) + 86.0
    width = left + plot_w + 40.0
    canvas = SvgCanvas(width, height, background=SURFACE)
    schedule = result.parallelism.pipeline_schedule
    canvas.text(
        16, 28,
        f"Pipeline schedule timeline — {schedule} — {result.label}",
        fill=TEXT_PRIMARY, size=16, weight="bold",
    )

    def x_of(t: float) -> float:
        return left + plot_w * ((t - t0) / span)

    block_fill = {
        KernelKind.FWD_GEMM: CATEGORICAL[0],
        KernelKind.EMBEDDING: CATEGORICAL[0],
        KernelKind.BWD_GEMM: CATEGORICAL[1],
        KernelKind.WGRAD_GEMM: CATEGORICAL[2],
        KernelKind.RECOMPUTE_GEMM: CATEGORICAL[3],
    }
    block_label = {
        KernelKind.FWD_GEMM: "F",
        KernelKind.BWD_GEMM: "B",
        KernelKind.WGRAD_GEMM: "W",
        KernelKind.RECOMPUTE_GEMM: "R",
    }
    for i, stage in enumerate(stages):
        y = top + i * (row_h + gap)
        canvas.text(
            16, y + row_h * 0.65,
            f"stage {stage}", fill=TEXT_SECONDARY, size=11,
        )
        # Lane background = bubble color: whatever no block covers is
        # time the rank spent waiting on a peer (or truly idle).
        canvas.rect(left, y, plot_w, row_h, fill=GRID, rx=2)
        for record in lanes[stage]:
            x = x_of(record.start_s)
            w = max(0.6, x_of(record.end_s) - x)
            fill = block_fill.get(record.kind)
            if fill is not None:
                canvas.rect(x, y + 2, w, row_h - 4, fill=fill, rx=1)
                label = block_label.get(record.kind)
                if label is not None and w > 16 and record.microbatch >= 0:
                    canvas.text(
                        x + w / 2, y + row_h * 0.65,
                        f"{label}{record.microbatch}",
                        fill=SURFACE, size=9, weight="bold",
                        anchor="middle",
                    )
            elif record.kind is not KernelKind.PP_RECV:
                # Comms/optimizer: thin neutral blocks so bubbles (the
                # GRID-colored gaps, mostly pp_recv waits) stand out.
                canvas.rect(
                    x, y + row_h * 0.3, w, row_h * 0.4,
                    fill=CATEGORICAL[4], rx=1,
                )

    axis_y = top + len(stages) * (row_h + gap) + 6
    canvas.line(left, axis_y, left + plot_w, axis_y, stroke=TEXT_SECONDARY)
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        x = left + plot_w * frac
        canvas.line(x, axis_y, x, axis_y + 4, stroke=TEXT_SECONDARY)
        canvas.text(
            x, axis_y + 16, f"{span * frac:.3f}s",
            fill=TEXT_SECONDARY, size=10, anchor="middle",
        )
    canvas.text(
        16, height - 14,
        f"iteration {iteration}  "
        f"F/B/W = forward / input-grad / weight-grad, R = recompute, "
        f"grey = comm/optimizer, lane background = bubble",
        fill=TEXT_SECONDARY, size=11,
    )
    return _maybe_save(canvas.to_string(), path)


def fleet_timeline_figure(
    outcome: "FleetOutcome",
    title: str = "Fleet timeline",
    path: str | Path | None = None,
) -> str:
    """Gantt-style fleet schedule: one row per node, one bar per attempt.

    Training and inference attempts take the first two categorical
    colors; attempts a node fault interrupted carry a red outline
    (their post-checkpoint work was lost). The footer reports the
    policy and the goodput/energy headline.
    """
    from repro.datacenter.jobs import JobKind
    from repro.viz.palette import (
        CATEGORICAL,
        GRID,
        SURFACE,
        TEXT_PRIMARY,
        TEXT_SECONDARY,
    )
    from repro.viz.svg import SvgCanvas

    rows: list[tuple[int, int]] = [
        (ci, ni)
        for ci, cluster in enumerate(outcome.clusters)
        for ni in range(cluster.num_nodes)
    ]
    row_of = {key: i for i, key in enumerate(rows)}
    makespan = max(outcome.makespan_s, 1e-9)

    left, top, row_h, gap = 110.0, 56.0, 22.0, 4.0
    plot_w = 720.0
    height = top + len(rows) * (row_h + gap) + 64.0
    width = left + plot_w + 40.0
    canvas = SvgCanvas(width, height, background=SURFACE)
    canvas.text(16, 28, title, fill=TEXT_PRIMARY, size=16, weight="bold")

    def x_of(t: float) -> float:
        return left + plot_w * (t / makespan)

    for i, (ci, ni) in enumerate(rows):
        y = top + i * (row_h + gap)
        canvas.text(
            16, y + row_h * 0.7,
            f"{outcome.clusters[ci].name}/n{ni}",
            fill=TEXT_SECONDARY, size=11,
        )
        canvas.rect(left, y, plot_w, row_h, fill=GRID, rx=2)

    kind_fill = {
        JobKind.TRAINING: CATEGORICAL[0],
        JobKind.INFERENCE: CATEGORICAL[1],
    }
    fault_stroke = CATEGORICAL[5]
    for job_idx, record in enumerate(outcome.records.values()):
        for interval in record.intervals:
            x0 = x_of(interval.start_s)
            bar_w = max(1.5, x_of(interval.end_s) - x0)
            for node in interval.nodes:
                y = top + row_of[(interval.cluster, node)] * (row_h + gap)
                canvas.rect(
                    x0, y + 2, bar_w, row_h - 4,
                    fill=kind_fill[record.spec.kind], rx=2,
                    stroke=fault_stroke if interval.interrupted else None,
                    stroke_width=2.0 if interval.interrupted else 0.0,
                )
                if bar_w > 24:
                    canvas.text(
                        x0 + 3, y + row_h * 0.68, f"j{job_idx}",
                        fill=SURFACE, size=10, weight="bold",
                    )

    axis_y = top + len(rows) * (row_h + gap) + 6
    canvas.line(left, axis_y, left + plot_w, axis_y, stroke=TEXT_SECONDARY)
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        x = left + plot_w * frac
        canvas.line(x, axis_y, x, axis_y + 4, stroke=TEXT_SECONDARY)
        canvas.text(
            x, axis_y + 16, f"{makespan * frac:.0f}s",
            fill=TEXT_SECONDARY, size=10, anchor="middle",
        )
    metrics = outcome.metrics()
    canvas.text(
        16, height - 14,
        f"policy={outcome.config.policy}  "
        f"goodput={metrics.goodput_tokens_per_s:,.0f} tok/s  "
        f"goodput/J={metrics.goodput_tokens_per_joule:.3f}  "
        f"restarts={metrics.restarts}  "
        f"train/infer = blue/aqua, red outline = fault-interrupted",
        fill=TEXT_SECONDARY, size=11,
    )
    return _maybe_save(canvas.to_string(), path)


def mtbf_goodput_figure(
    sweep: list[dict[str, object]],
    title: str = "Goodput vs node MTBF",
    path: str | Path | None = None,
) -> str:
    """MTBF-vs-goodput curves, one line per recovery policy.

    Takes :func:`repro.resilience.recovery.sweep_mtbf` output — one
    policy-to-:class:`ResilienceRun` mapping per MTBF grid point — and
    plots goodput fraction (ideal makespan over actual) against MTBF.
    """
    if not sweep:
        raise ValueError("no sweep results given")
    policies = tuple(sweep[0])
    if any(tuple(row) != policies for row in sweep):
        raise ValueError("every MTBF point must cover the same policies")
    mtbfs = tuple(row[policies[0]].mtbf_s for row in sweep)
    series = tuple(
        Series(
            name=policy,
            values=tuple(
                100.0 * row[policy].goodput_fraction for row in sweep
            ),
        )
        for policy in policies
    )
    spec = ChartSpec(
        title=title,
        categories=tuple(f"{m:.0f}s" for m in mtbfs),
        series=series,
        unit="goodput (% of fault-free)",
    )
    return _maybe_save(
        line_chart(spec, x_values=mtbfs, x_label="node MTBF (s)"), path
    )


def microbatch_sweep_figure(
    sweeps: dict[str, dict[int, RunResult]],
    title: str = "Microbatch scaling",
    path: str | Path | None = None,
) -> str:
    """Figure 13/14-style: throughput per strategy across microbatches."""
    microbatches = sorted(
        {mb for per_strategy in sweeps.values() for mb in per_strategy}
    )
    series = []
    for strategy, per_mb in sweeps.items():
        values = tuple(
            per_mb[mb].efficiency().tokens_per_s if mb in per_mb else 0.0
            for mb in microbatches
        )
        series.append(Series(name=strategy, values=values))
    spec = ChartSpec(
        title=title,
        categories=tuple(f"mb{mb}" for mb in microbatches),
        series=tuple(series),
        unit="tokens/s",
    )
    return _maybe_save(grouped_bar_chart(spec), path)


def serving_timeline_figure(
    outcome,
    title: str = "Serving timeline",
    path: str | Path | None = None,
) -> str:
    """Three-panel serving run: load, TTFT scatter, power + KV pressure.

    Takes a :class:`repro.inferserve.ServingOutcome`. The top panel
    tracks queue depth, in-flight requests, and active replicas; the
    middle panel scatters each completed request's TTFT against its
    arrival time with the SLO target as a horizontal rule; the bottom
    panel overlays window-mean power with KV-cache utilization.
    """
    from repro.viz.palette import (
        CATEGORICAL,
        GRID,
        SURFACE,
        TEXT_PRIMARY,
        TEXT_SECONDARY,
    )
    from repro.viz.svg import SvgCanvas

    samples = list(outcome.samples)
    if not samples:
        raise ValueError("outcome has no samples to plot")
    horizon = max(outcome.duration_s, samples[-1].time_s, 1e-9)

    left, plot_w = 86.0, 700.0
    panel_h, panel_gap, top = 130.0, 46.0, 56.0
    width = left + plot_w + 40.0
    height = top + 3 * panel_h + 2 * panel_gap + 56.0
    canvas = SvgCanvas(width, height, background=SURFACE)
    canvas.text(16, 28, title, fill=TEXT_PRIMARY, size=16, weight="bold")

    def x_of(t: float) -> float:
        return left + plot_w * (t / horizon)

    def panel(index: int, label: str) -> float:
        y0 = top + index * (panel_h + panel_gap)
        canvas.rect(left, y0, plot_w, panel_h, fill=GRID, rx=3)
        canvas.text(left, y0 - 8, label, fill=TEXT_SECONDARY, size=11)
        return y0

    def draw_series(y0: float, times, values, peak: float, color: str,
                    width_px: float = 2.0) -> None:
        peak = max(peak, 1e-9)
        points = [
            (x_of(t), y0 + panel_h - panel_h * min(1.0, v / peak))
            for t, v in zip(times, values)
        ]
        if len(points) >= 2:
            canvas.polyline(points, stroke=color, width=width_px)

    times = [s.time_s for s in samples]

    # Panel 0: offered load vs. capacity.
    y0 = panel(0, "load: queued / in-flight / active replicas")
    queue_peak = max(
        max(s.queued for s in samples),
        max(s.in_flight for s in samples),
        max(s.active_replicas for s in samples),
        1,
    )
    draw_series(y0, times, [s.queued for s in samples], queue_peak,
                CATEGORICAL[0])
    draw_series(y0, times, [s.in_flight for s in samples], queue_peak,
                CATEGORICAL[1])
    draw_series(y0, times, [s.active_replicas for s in samples],
                queue_peak, CATEGORICAL[2])
    canvas.text(left + plot_w, y0 - 8, f"peak {queue_peak:g}",
                fill=TEXT_SECONDARY, size=10, anchor="end")

    # Panel 1: TTFT scatter with the SLO rule.
    y1 = panel(1, "TTFT per request (s)")
    completed = [r for r in outcome.requests
                 if not r.rejected and r.replica >= 0]
    slo_s = outcome.config.slo.ttft_p99_s
    ttft_peak = max(
        [r.ttft_s for r in completed] + [slo_s], default=slo_s
    )
    slo_y = y1 + panel_h - panel_h * min(1.0, slo_s / max(ttft_peak, 1e-9))
    canvas.line(left, slo_y, left + plot_w, slo_y,
                stroke=CATEGORICAL[5], width=1.5)
    canvas.text(left + plot_w, slo_y - 4, f"SLO {slo_s:g}s",
                fill=CATEGORICAL[5], size=10, anchor="end")
    # Long traces complete tens of thousands of requests; an evenly
    # strided subsample keeps the SVG small without changing the shape
    # (the p99 line and the SLO rule carry the tail, not the dots).
    max_points = 2000
    stride = max(1, len(completed) // max_points)
    for record in completed[::stride]:
        cy = y1 + panel_h - panel_h * min(
            1.0, record.ttft_s / max(ttft_peak, 1e-9)
        )
        canvas.circle(x_of(record.arrival_s), cy, 1.5,
                      fill=CATEGORICAL[3])

    # Panel 2: power draw and KV-cache pressure.
    y2 = panel(2, "power (W) / KV utilization")
    power_peak = max(max(s.power_w for s in samples), 1e-9)
    draw_series(y2, times, [s.power_w for s in samples], power_peak,
                CATEGORICAL[4])
    draw_series(y2, times, [s.kv_utilization for s in samples], 1.0,
                CATEGORICAL[5], width_px=1.5)
    canvas.text(left + plot_w, y2 - 8, f"peak {power_peak:,.0f} W",
                fill=TEXT_SECONDARY, size=10, anchor="end")

    axis_y = top + 3 * panel_h + 2 * panel_gap + 6
    canvas.line(left, axis_y, left + plot_w, axis_y,
                stroke=TEXT_SECONDARY)
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        x = left + plot_w * frac
        canvas.line(x, axis_y, x, axis_y + 4, stroke=TEXT_SECONDARY)
        canvas.text(x, axis_y + 16, f"{horizon * frac:.0f}s",
                    fill=TEXT_SECONDARY, size=10, anchor="middle")

    metrics = outcome.metrics()
    canvas.text(
        16, height - 14,
        f"goodput={metrics.goodput_per_s:.2f} req/s  "
        f"attainment={metrics.slo_attainment:.1%}  "
        f"TTFT p99={metrics.ttft_p99_s:.3f}s  "
        f"energy/token={metrics.energy_per_token_j:.2f} J",
        fill=TEXT_SECONDARY, size=11,
    )
    return _maybe_save(canvas.to_string(), path)
