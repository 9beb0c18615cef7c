"""Replay-versus-runs crossover of the batched grid path.

For six sweep-sized cells (every cluster, dense and MoE) this prints
the cost of one vectorized replay of ``L`` lanes, and of one fresh run
(graph build, empty memos), in units of one simulation on the shared
graph with the group's warm comm-cost memos. A group replays only when
the replay is cheaper than running its lanes one by one, so
``_MIN_REPLAY_LANES`` in :mod:`repro.engine.batched` is the smallest
``L`` whose replay costs no more than ``L`` runs on every cell.

Run from the repository root (about a minute on a 2-core host)::

    PYTHONPATH=src python benchmarks/replay_crossover.py
"""

from __future__ import annotations

import statistics
import time

from repro.core.experiment import execute_training, prepare_run
from repro.engine.batched import _RecordingSimulator, _VectorReplay
from repro.engine.simulator import CommMemos, SimSettings, Simulator
from repro.optimize import settings_for_setpoint

CELLS = (
    ("gpt3-13b", "h100x64", "TP4-PP2"),
    ("mixtral-8x7b", "h100x64", "TP2-PP2-EP4"),
    ("gpt3-30b", "h200x32", "TP2-PP4"),
    ("mixtral-8x7b", "h200x32", "TP4-PP2-EP2"),
    ("llama3-30b", "mi250x32", "TP4-PP2"),
    ("mixtral-8x7b", "mi250x32", "TP2-PP2-EP4"),
)
ANCHOR = 0.6
LANE_SETPOINTS = (0.65, 0.7, 0.75, 0.8, 0.85, 0.9)
LANES = (1, 2, 3, 4, 6)
REPEATS = 5


def _medians_s(jobs: dict) -> dict:
    """Median seconds of each job, timed round-robin so that a change
    in host speed hits every job alike."""
    samples = {name: [] for name in jobs}
    for _ in range(REPEATS):
        for name, job in jobs.items():
            start = time.perf_counter()
            job()
            samples[name].append(time.perf_counter() - start)
    return {name: statistics.median(v) for name, v in samples.items()}


def _replay(anchor, settings: list[SimSettings], graph) -> None:
    replay = _VectorReplay(anchor, [s.power_control.freq_setpoint
                                    for s in settings])
    replay.run()
    output = replay.finalize()
    output.prepare(settings)
    for lane, lane_settings in enumerate(settings):
        output.reconstruct(lane, lane_settings, graph)


def crossover_row(model: str, cluster: str, plan: str) -> dict:
    kwargs = dict(model=model, cluster=cluster, parallelism=plan,
                  microbatch_size=1, global_batch_size=16)
    run = prepare_run(**kwargs)
    memos = CommMemos()
    anchor = _RecordingSimulator(
        run.mesh, run.graph, settings_for_setpoint(SimSettings(), ANCHOR),
        memos,
    )
    anchor.run()
    lanes = [settings_for_setpoint(SimSettings(), s) for s in LANE_SETPOINTS]
    jobs = {
        "shared": lambda: Simulator(run.mesh, run.graph, lanes[0],
                                    memos).run(),
        "fresh": lambda: execute_training(**kwargs, settings=lanes[0]),
    }
    for count in LANES:
        jobs[count] = (
            lambda count=count: _replay(anchor, lanes[:count], run.graph)
        )
    medians = _medians_s(jobs)
    shared_s = medians.pop("shared")
    row = {"cell": f"{model}/{cluster}/{plan}"}
    row.update({name: t / shared_s for name, t in medians.items()})
    return row


def main() -> None:
    header = ["cell", "fresh run"] + [f"replay L={n}" for n in LANES]
    print("| " + " | ".join(header) + " |")
    print("|" + "---|" * len(header))
    for cell in CELLS:
        row = crossover_row(*cell)
        values = [row["fresh"]] + [row[n] for n in LANES]
        print(f"| {row['cell']} | "
              + " | ".join(f"{v:.2f}" for v in values) + " |")


if __name__ == "__main__":
    main()
