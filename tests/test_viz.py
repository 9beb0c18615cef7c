"""Tests for the SVG figure generation."""

import xml.etree.ElementTree as ET

import pytest

from repro.core.experiment import execute_training
from repro.engine.simulator import SimSettings
from repro.viz.charts import (
    ChartSpec,
    HeatmapSpec,
    Series,
    grouped_bar_chart,
    heatmap,
    line_chart,
    stacked_bar_chart,
)
from repro.viz.figures import (
    fleet_timeline_figure,
    kernel_breakdown_figure,
    microbatch_sweep_figure,
    temperature_heatmap_figure,
    thermal_timeseries_figure,
    throttle_heatmap_figure,
    throughput_comparison,
)
from repro.viz.palette import (
    CATEGORICAL,
    SEQUENTIAL,
    sequential_color,
    series_color,
)
from repro.viz.svg import SvgCanvas

FAST = SimSettings(physics_dt_s=0.01, telemetry_interval_s=0.02)


def _parse(svg: str) -> ET.Element:
    return ET.fromstring(svg)


@pytest.fixture(scope="module")
def result():
    return execute_training(
        model="gpt3-13b",
        cluster="mi250x32",
        parallelism="TP2-PP4",
        microbatch_size=1,
        global_batch_size=16,
        settings=FAST,
    )


class TestPalette:
    def test_categorical_fixed_order(self):
        assert series_color(0) == CATEGORICAL[0]
        assert series_color(7) == CATEGORICAL[7]

    def test_ninth_series_rejected(self):
        """Categorical hues are never generated (fixed-order rule)."""
        with pytest.raises(ValueError):
            series_color(8)

    def test_sequential_endpoints(self):
        assert sequential_color(0.0, 0.0, 1.0) == SEQUENTIAL[0]
        assert sequential_color(1.0, 0.0, 1.0) == SEQUENTIAL[-1]

    def test_sequential_clamps(self):
        assert sequential_color(-5.0, 0.0, 1.0) == SEQUENTIAL[0]
        assert sequential_color(9.0, 0.0, 1.0) == SEQUENTIAL[-1]

    def test_degenerate_range(self):
        assert sequential_color(1.0, 1.0, 1.0) in SEQUENTIAL


class TestSvgCanvas:
    def test_valid_xml(self):
        canvas = SvgCanvas(100, 50, "#fff")
        canvas.rect(0, 0, 10, 10, "#000")
        canvas.line(0, 0, 10, 10, "#000")
        canvas.text(5, 5, "label <&>", "#000")
        canvas.circle(5, 5, 2, "#000")
        canvas.polyline([(0, 0), (5, 5)], "#000")
        root = _parse(canvas.to_string())
        assert root.tag.endswith("svg")

    def test_escapes_text(self):
        canvas = SvgCanvas(10, 10, "#fff")
        canvas.text(0, 0, "<script>", "#000")
        assert "<script>" not in canvas.to_string()

    def test_save(self, tmp_path):
        canvas = SvgCanvas(10, 10, "#fff")
        path = canvas.save(tmp_path / "chart.svg")
        assert path.exists()

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            SvgCanvas(0, 10, "#fff")


class TestCharts:
    def _spec(self, num_series=2):
        return ChartSpec(
            title="test",
            categories=("a", "b", "c"),
            series=tuple(
                Series(name=f"s{i}", values=(1.0 + i, 2.0, 3.0))
                for i in range(num_series)
            ),
            unit="u",
        )

    def test_grouped_bars_valid_and_labeled(self):
        svg = grouped_bar_chart(self._spec())
        root = _parse(svg)
        texts = [t.text for t in root.iter() if t.tag.endswith("text")]
        # Legend for >= 2 series, plus direct value labels.
        assert "s0" in texts and "s1" in texts
        assert any(t == "3.0" for t in texts)

    def test_single_series_has_no_legend(self):
        svg = grouped_bar_chart(self._spec(num_series=1))
        root = _parse(svg)
        texts = [t.text for t in root.iter() if t.tag.endswith("text")]
        assert "s0" not in texts  # title names the single series

    def test_stacked_bars_valid(self):
        _parse(stacked_bar_chart(self._spec(3)))

    def test_line_chart_valid(self):
        svg = line_chart(self._spec(), x_values=(0.0, 1.0, 2.0),
                         x_label="time")
        root = _parse(svg)
        polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
        assert len(polylines) == 2

    def test_mismatched_series_rejected(self):
        with pytest.raises(ValueError):
            ChartSpec(
                title="bad",
                categories=("a",),
                series=(Series(name="s", values=(1.0, 2.0)),),
            )

    def test_too_many_series_rejected(self):
        with pytest.raises(ValueError):
            self._spec(num_series=9)

    def test_heatmap_valid(self):
        spec = HeatmapSpec(
            title="h",
            row_labels=("r0", "r1"),
            col_labels=("c0", "c1", "c2"),
            values=((1.0, 2.0, 3.0), (4.0, 5.0, 6.0)),
        )
        root = _parse(heatmap(spec))
        rects = [e for e in root.iter() if e.tag.endswith("rect")]
        assert len(rects) == 1 + 6  # background + cells

    def test_heatmap_shape_validation(self):
        with pytest.raises(ValueError):
            HeatmapSpec(
                title="bad", row_labels=("r",), col_labels=("c",),
                values=((1.0, 2.0),),
            )


class TestFigureGenerators:
    def test_throughput_comparison(self, result, tmp_path):
        svg = throughput_comparison(
            {"TP2-PP4": result}, path=tmp_path / "fig2.svg"
        )
        _parse(svg)
        assert (tmp_path / "fig2.svg").exists()

    def test_kernel_breakdown(self, result):
        svg = kernel_breakdown_figure({"TP2-PP4": result})
        root = _parse(svg)
        texts = [t.text for t in root.iter() if t.tag.endswith("text")]
        assert "Compute" in texts

    def test_temperature_heatmap(self, result):
        root = _parse(temperature_heatmap_figure(result))
        rects = [e for e in root.iter() if e.tag.endswith("rect")]
        assert len(rects) == 1 + 32  # background + one cell per GPU

    def test_throttle_heatmap(self, result):
        _parse(throttle_heatmap_figure(result))

    def test_thermal_timeseries(self, result):
        root = _parse(thermal_timeseries_figure(result))
        polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
        assert len(polylines) == 2  # front and rear series

    def test_microbatch_sweep(self, result):
        svg = microbatch_sweep_figure({"TP2-PP4": {1: result}})
        _parse(svg)

    def test_empty_results_rejected(self):
        with pytest.raises(ValueError):
            throughput_comparison({})

    def test_fleet_timeline(self, tmp_path):
        from repro.datacenter import ArrivalConfig, FleetConfig, \
            simulate_fleet

        outcome = simulate_fleet(
            FleetConfig(
                arrivals=ArrivalConfig(num_jobs=4, seed=0)
            )
        )
        svg = fleet_timeline_figure(
            outcome, path=tmp_path / "fleet.svg"
        )
        root = _parse(svg)
        rects = [e for e in root.iter() if e.tag.endswith("rect")]
        nodes = sum(c.num_nodes for c in outcome.clusters)
        attempts = sum(
            len(i.nodes)
            for r in outcome.records.values()
            for i in r.intervals
        )
        # background + one lane per node + one bar per (attempt, node).
        assert len(rects) == 1 + nodes + attempts
        assert (tmp_path / "fleet.svg").exists()
