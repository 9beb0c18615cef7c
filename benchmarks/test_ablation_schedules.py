"""Ablation: pipeline schedules — 1F1B vs GPipe vs interleaved 1F1B.

The paper takes Megatron's 1F1B (and its interleaved variant, §1) as
given. This ablation quantifies why: with memory unconstrained, GPipe
matches 1F1B's wall time (same bubble, same work) but must hold *every*
microbatch's activations at the forward/backward boundary, while
interleaving trades extra P2P traffic for a smaller bubble — paying off
exactly when the bubble is the binding constraint.
"""

from paper import print_table

from repro.api import SimRequest, submit
from repro.models.catalog import GPT3_13B, GPT3_175B
from repro.models.memory import activation_bytes
from repro.units import GB

# A bubble-bound point: few microbatches per replica, deep pipeline.
BASE = dict(
    model="gpt3-13b",
    cluster="mi250x32",
    microbatch_size=1,
    global_batch_size=32,
)
PP, DP = 8, 2
MICROBATCHES = BASE["global_batch_size"] // DP  # per replica


def _run(schedule="1f1b"):
    return submit(SimRequest(
        parallelism=f"TP2-PP{PP}-DP{DP}", pipeline_schedule=schedule, **BASE,
    ))


def test_ablation_pipeline_schedules(benchmark):
    def build():
        return {
            "1f1b": _run(),
            "gpipe": _run("gpipe"),
            "interleaved": _run("interleaved"),
        }

    results = benchmark.pedantic(build, rounds=1, iterations=1)

    rows = []
    for name, result in results.items():
        memory = activation_bytes(
            GPT3_13B,
            1,
            tp=2,
            pp=PP,
            pipeline_schedule=(
                "gpipe" if name == "gpipe" else "1f1b"
            ),
            num_microbatches=MICROBATCHES,
        )
        rows.append(
            (
                name,
                result.efficiency().step_time_s,
                result.efficiency().tokens_per_s,
                memory / GB,
            )
        )
    print_table(
        "Ablation: pipeline schedules (GPT3-13B, TP2-PP8-DP2, 16 ubatches)",
        ["Schedule", "Step s", "tok/s", "Peak act GB/GPU"],
        rows,
    )

    plain = results["1f1b"]
    gpipe = results["gpipe"]
    interleaved = results["interleaved"]

    # GPipe matches 1F1B wall time when memory is unconstrained...
    ratio = (
        gpipe.efficiency().step_time_s
        / plain.efficiency().step_time_s
    )
    assert 0.9 < ratio < 1.1

    # ...but holds every microbatch's activations at once.
    gpipe_memory = activation_bytes(
        GPT3_13B, 1, tp=2, pp=PP, pipeline_schedule="gpipe",
        num_microbatches=MICROBATCHES,
    )
    one_f_one_b_memory = activation_bytes(GPT3_13B, 1, tp=2, pp=PP)
    assert gpipe_memory == one_f_one_b_memory * MICROBATCHES / PP

    # Interleaving wins in this bubble-bound regime (the §1 claim that
    # "interleaved scheduling can improve utilization").
    assert (
        interleaved.efficiency().tokens_per_s
        > plain.efficiency().tokens_per_s
    )

    # At paper scale, GPipe's memory bill is why nobody runs it: a
    # GPT3-175B TP8-PP8 replica with 128 microbatches would need ~230 GB
    # of activations per GPU.
    paper_scale = activation_bytes(
        GPT3_175B, 1, tp=8, pp=8, pipeline_schedule="gpipe",
        num_microbatches=128,
    )
    assert paper_scale > 141 * GB
