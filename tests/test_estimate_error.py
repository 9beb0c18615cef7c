"""The analytic step-time estimate stays inside its measured error band.

``ESTIMATE_ERROR_BAND`` was measured over every buildable perfbench
cold-run cell at four clocks; this re-simulates, for each cluster ×
kind × schedule, the cell whose estimate / simulated ratio was lowest
and the one where it was highest, so a change to either the estimator
or the simulator that moves a ratio out of the band fails here.
"""

import pytest

from repro.api import SimRequest, submit
from repro.optimize.space import ESTIMATE_ERROR_BAND
from repro.serve.degraded import analytic_estimate

MOE = ("mixtral-8x7b", "TP4-PP2-EP2")

#: (cluster, kind, schedule, model, plan, microbatch, clock) of the
#: lowest- and highest-ratio cell per cluster × kind × schedule.
CELLS = [
    ("h100x64", "inference", "1f1b", *MOE, 1, 1.0),
    ("h100x64", "inference", "1f1b", "llama3-30b", "TP2-PP4", 4, 0.95),
    ("h100x64", "training", "1f1b", *MOE, 1, 1.0),
    ("h100x64", "training", "1f1b", "llama3-30b", "TP2-PP4", 4, 0.85),
    ("h100x64", "training", "interleaved", *MOE, 1, 1.0),
    ("h100x64", "training", "interleaved", "gpt3-30b", "TP2-PP4", 1, 0.85),
    ("h100x64", "training", "zb-h1", *MOE, 1, 0.85),
    ("h100x64", "training", "zb-h1", "llama3-30b", "TP2-PP4", 4, 0.95),
    ("h200x32", "inference", "1f1b", *MOE, 1, 1.0),
    ("h200x32", "inference", "1f1b", "llama3-30b", "TP2-PP4", 4, 0.85),
    ("h200x32", "training", "1f1b", *MOE, 1, 0.85),
    ("h200x32", "training", "1f1b", "llama3-30b", "TP2-PP4", 4, 0.95),
    ("h200x32", "training", "interleaved", *MOE, 1, 0.85),
    ("h200x32", "training", "interleaved", "llama3-30b", "TP2-PP4", 2, 0.9),
    ("h200x32", "training", "zb-h1", *MOE, 1, 0.85),
    ("h200x32", "training", "zb-h1", "llama3-30b", "TP2-PP4", 2, 0.9),
    ("mi250x32", "inference", "1f1b", *MOE, 1, 0.85),
    ("mi250x32", "inference", "1f1b", "gpt3-30b", "TP2-PP4", 4, 0.85),
    ("mi250x32", "training", "1f1b", *MOE, 1, 1.0),
    ("mi250x32", "training", "1f1b", "gpt3-30b", "TP2-PP4", 4, 0.85),
    ("mi250x32", "training", "interleaved", *MOE, 1, 1.0),
    ("mi250x32", "training", "interleaved", "gpt3-30b", "TP2-PP4", 2, 0.85),
    ("mi250x32", "training", "zb-h1", *MOE, 1, 1.0),
    ("mi250x32", "training", "zb-h1", "gpt3-30b", "TP2-PP4", 4, 0.85),
]


def _request(cluster, kind, schedule, model, plan, mb, clock):
    power = {} if clock == 1.0 else dict(
        governor="static", freq_setpoint=clock
    )
    return SimRequest(
        kind=kind, model=model, cluster=cluster, parallelism=plan,
        microbatch_size=mb, global_batch_size=32,
        pipeline_schedule=schedule, **power,
    )


@pytest.mark.parametrize("cell", CELLS, ids=lambda c: "-".join(map(str, c)))
def test_ratio_inside_band(cell):
    request = _request(*cell)
    estimate = analytic_estimate(request)
    simulated = submit(request, cache=False).efficiency().step_time_s
    low, high = ESTIMATE_ERROR_BAND[request.kind]
    assert estimate["error_bound"] == [low, high]
    assert low <= estimate["step_time_s"] / simulated <= high

