"""Additional coverage: CLI full-sweep wiring, viz extras, simulator
settings, topology helpers, and collective edge cases."""

import xml.etree.ElementTree as ET

import pytest

from repro.cli import main
from repro.comm.collectives import broadcast, send_recv
from repro.core.experiment import execute_training
from repro.engine.simulator import SimSettings
from repro.hardware.cluster import H200_X32, MI250_X32
from repro.hardware.topology import group_spans_nodes, nodes_of_group
from repro.units import MB

FAST = SimSettings(physics_dt_s=0.01, telemetry_interval_s=0.02)


class TestCliFullSweep:
    def test_full_sweep_runs_tiny_grid(self, capsys, tmp_path, monkeypatch):
        from repro.core import campaign as campaign_module
        from repro.core.campaign import ExperimentSpec
        import repro.cli as cli_module

        tiny = [
            ExperimentSpec(
                name="tiny_run",
                model="gpt3-13b",
                cluster="mi250x32",
                parallelism="TP8-PP1",
                global_batch_size=16,
            )
        ]
        monkeypatch.setattr(
            campaign_module, "paper_campaign", lambda clusters: tiny
        )
        code = main(
            ["full-sweep", "--cluster", "mi250x32",
             "--output", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "summary.csv").exists()
        assert (tmp_path / "tiny_run" / "summary.json").exists()
        assert "tiny_run" in capsys.readouterr().out


class TestVizExtras:
    def test_energy_comparison_figure(self):
        from repro.viz.figures import energy_efficiency_comparison

        result = execute_training(
            model="gpt3-13b", cluster="mi250x32", parallelism="TP8-PP1",
            microbatch_size=1, global_batch_size=16, settings=FAST,
        )
        svg = energy_efficiency_comparison({"TP8-PP1": result})
        root = ET.fromstring(svg)
        texts = [t.text for t in root.iter() if t.tag.endswith("text")]
        assert "tokens/J" in texts

    def test_heatmap_ink_flips_on_dark_cells(self):
        from repro.viz.charts import HeatmapSpec, heatmap
        from repro.viz.palette import SURFACE

        spec = HeatmapSpec(
            title="h",
            row_labels=("r",),
            col_labels=("lo", "hi"),
            values=((0.0, 100.0),),
        )
        svg = heatmap(spec)
        # The high-value cell's label uses surface-colored ink.
        assert f'fill="{SURFACE}"' in svg


class TestSimulatorSettings:
    def test_prewarm_fraction_changes_start_temp(self):
        hot = SimSettings(
            physics_dt_s=0.01, telemetry_interval_s=0.02,
            prewarm_busy_fraction=0.95,
        )
        cool = SimSettings(
            physics_dt_s=0.01, telemetry_interval_s=0.02,
            prewarm_busy_fraction=0.3,
        )
        common = dict(
            model="gpt3-13b", cluster="mi250x32", parallelism="TP8-PP1",
            microbatch_size=1, global_batch_size=16,
        )
        hot_run = execute_training(settings=hot, **common)
        cool_run = execute_training(settings=cool, **common)
        assert (
            hot_run.outcome.telemetry.series(0).temp_c[0]
            > cool_run.outcome.telemetry.series(0).temp_c[0]
        )

    def test_telemetry_interval_controls_sample_count(self):
        fine = execute_training(
            model="gpt3-13b", cluster="mi250x32", parallelism="TP8-PP1",
            microbatch_size=1, global_batch_size=16,
            settings=SimSettings(
                physics_dt_s=0.01, telemetry_interval_s=0.02
            ),
        )
        coarse = execute_training(
            model="gpt3-13b", cluster="mi250x32", parallelism="TP8-PP1",
            microbatch_size=1, global_batch_size=16,
            settings=SimSettings(
                physics_dt_s=0.01, telemetry_interval_s=0.2
            ),
        )
        assert len(fine.outcome.telemetry.series(0).times_s) > 3 * len(
            coarse.outcome.telemetry.series(0).times_s
        )


class TestTopologyHelpers:
    def test_nodes_of_group(self):
        assert nodes_of_group(H200_X32, [0, 1, 9]) == {0, 1}
        assert nodes_of_group(MI250_X32, range(8)) == {0}

    def test_group_spans_nodes_boundary(self):
        assert not group_spans_nodes(H200_X32, [7])
        assert group_spans_nodes(H200_X32, [7, 8])


class TestCollectiveEdgeCases:
    def test_broadcast_single_member_free(self):
        assert broadcast(H200_X32, [3], 1 * MB).duration_s == 0.0

    def test_broadcast_cross_node_slower(self):
        intra = broadcast(H200_X32, [0, 1, 2], 16 * MB)
        inter = broadcast(H200_X32, [0, 8, 16], 16 * MB)
        assert inter.duration_s > intra.duration_s

    def test_send_recv_self_rejected(self):
        with pytest.raises(ValueError):
            send_recv(H200_X32, 3, 3, 1 * MB)


class TestRunResultExtras:
    def test_temperature_heatmap_shape(self):
        result = execute_training(
            model="gpt3-13b", cluster="mi250x32", parallelism="TP8-PP1",
            microbatch_size=1, global_batch_size=16, settings=FAST,
        )
        matrix = result.temperature_heatmap()
        assert matrix.shape == (4, 8)

    def test_placement_defaults_to_identity(self):
        result = execute_training(
            model="gpt3-13b", cluster="mi250x32", parallelism="TP8-PP1",
            microbatch_size=1, global_batch_size=16, settings=FAST,
        )
        assert result.placement == tuple(range(32))
