"""Tests for the distributed inference characterization (Section 7.2)."""

import pytest

from repro.core.sweep import clear_cache
from repro.inferserve import sweep_inference


@pytest.fixture(scope="module", autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestInferenceSweep:
    def test_grid_coverage(self):
        points = sweep_inference(
            model="gpt3-13b",
            cluster="mi250x32",
            strategies=["TP2-PP4", "TP4-PP2"],
            microbatch_sizes=[1, 2],
            global_batch_size=16,
        )
        assert len(points) == 4
        labels = {(p.parallelism, p.microbatch_size) for p in points}
        assert ("TP2-PP4", 1) in labels
        assert ("TP4-PP2", 2) in labels

    def test_larger_microbatch_improves_throughput(self):
        """Figure 23: larger inference microbatches help throughput."""
        points = sweep_inference(
            model="gpt3-13b",
            cluster="mi250x32",
            strategies=["TP2-PP4"],
            microbatch_sizes=[1, 4],
            global_batch_size=16,
        )
        by_mb = {p.microbatch_size: p for p in points}
        assert by_mb[4].tokens_per_s > by_mb[1].tokens_per_s

    def test_metrics_exposed(self):
        points = sweep_inference(
            model="gpt3-13b",
            cluster="mi250x32",
            strategies=["TP2-PP4"],
            microbatch_sizes=[1],
            global_batch_size=16,
        )
        point = points[0]
        assert point.avg_power_w > 0
        assert point.peak_power_w >= point.avg_power_w
        assert point.avg_temp_c > 20
