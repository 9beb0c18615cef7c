"""Experiment campaigns: the artifact's ``full_sweep.sh`` equivalent.

A campaign is an explicit list of experiment specs (model, cluster,
strategy, optimizations, microbatch). Running it executes every spec,
writes one artifact directory per run (summary.json / telemetry.csv /
trace.csv), and produces a campaign-level ``summary.csv`` — the layout
the paper's analysis scripts consume from ``results/``.

The paper's own evaluation grid is available as
:func:`paper_campaign` (the full thing simulates for a while, like the
original's "5-6 days if executed serially" — ours takes minutes).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.core.artifact import run_summary, write_run_artifact
from repro.core.results import RunResult
from repro.parallelism.strategy import OptimizationConfig

SUMMARY_FIELDS = (
    "name",
    "model",
    "cluster",
    "parallelism",
    "dp",
    "optimizations",
    "microbatch_size",
    "step_time_s",
    "tokens_per_s",
    "tokens_per_joule",
    "avg_power_w",
    "peak_temp_c",
    "mean_freq_ratio",
    "max_throttle_ratio",
)


@dataclass(frozen=True)
class ExperimentSpec:
    """One campaign entry.

    Attributes:
        name: directory-safe identifier for the run's artifact.
        model / cluster / parallelism: catalog names + strategy string.
        optimizations: optimization toggles.
        microbatch_size / global_batch_size: batch geometry.
    """

    name: str
    model: str
    cluster: str
    parallelism: str
    optimizations: OptimizationConfig = field(
        default_factory=OptimizationConfig
    )
    microbatch_size: int = 1
    global_batch_size: int = 128

    def __post_init__(self) -> None:
        if not self.name or "/" in self.name:
            raise ValueError("spec name must be a non-empty path segment")


@dataclass
class CampaignResult:
    """Everything a campaign produced."""

    results: dict[str, RunResult]
    directory: Path | None
    summary_rows: list[dict]

    def result(self, name: str) -> RunResult:
        """Look up one run by spec name."""
        return self.results[name]


def _spec_kwargs(spec: ExperimentSpec) -> dict:
    return dict(
        model=spec.model,
        cluster=spec.cluster,
        parallelism=spec.parallelism,
        optimizations=spec.optimizations,
        microbatch_size=spec.microbatch_size,
        global_batch_size=spec.global_batch_size,
    )


def run_campaign(
    specs: list[ExperimentSpec],
    output_dir: str | Path | None = None,
    on_result: Callable[[ExperimentSpec, RunResult], None] | None = None,
    jobs: int = 1,
) -> CampaignResult:
    """Execute every spec; optionally write artifacts and summary.csv.

    Specs that share an identical simulation configuration simulate
    once and reuse the result (each spec name still gets its own
    artifact directory and summary row). Runs go through
    :func:`repro.core.parallel.map_runs`, so repeated campaigns reuse
    the persistent result store.

    Args:
        specs: experiments to run (names must be unique).
        output_dir: when given, write ``<dir>/<name>/`` artifacts and a
            campaign-level ``<dir>/summary.csv``.
        on_result: progress callback per finished run.
        jobs: worker processes for distinct configurations; 1 keeps the
            serial path, values below 1 mean auto. Results are
            independent of ``jobs``.
    """
    from repro.core.parallel import map_runs, resolve_jobs

    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        raise ValueError("campaign spec names must be unique")

    directory = Path(output_dir) if output_dir is not None else None
    results: dict[str, RunResult] = {}
    rows: list[dict] = []

    jobs = 1 if jobs == 1 else resolve_jobs(jobs)
    outputs = map_runs([("train", _spec_kwargs(spec)) for spec in specs],
                       jobs)
    for spec, result in zip(specs, outputs):
        results[spec.name] = result
        summary = run_summary(result)
        row = {"name": spec.name}
        row.update(
            {key: summary[key] for key in SUMMARY_FIELDS if key in summary}
        )
        rows.append(row)
        if directory is not None:
            write_run_artifact(result, directory / spec.name)
        if on_result is not None:
            on_result(spec, result)

    if directory is not None:
        directory.mkdir(parents=True, exist_ok=True)
        with (directory / "summary.csv").open("w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=SUMMARY_FIELDS)
            writer.writeheader()
            for row in rows:
                writer.writerow({k: row.get(k, "") for k in SUMMARY_FIELDS})
    return CampaignResult(
        results=results, directory=directory, summary_rows=rows
    )


def paper_campaign(
    clusters: tuple[str, ...] = ("h200x32", "h100x64"),
    include_optimizations: bool = True,
) -> list[ExperimentSpec]:
    """The paper's NVIDIA evaluation grid (Figures 2/4/9 backbone).

    One spec per (model, strategy, optimization, cluster). MI250 runs
    (Figures 10/14) use the scaled 30B models:
    ``paper_campaign(clusters=("mi250x32",))`` swaps the grid.
    """
    act = OptimizationConfig(activation_recompute=True)
    cc = OptimizationConfig(cc_overlap=True)
    grids = {
        ("h200x32", "h100x64"): {
            "gpt3-175b": ("TP8-PP4", "TP2-PP16"),
            "llama3-70b": ("TP4-PP4", "TP2-PP8"),
            "mixtral-8x22b": ("EP8-TP1-PP4", "TP8-PP4"),
            "mixtral-8x7b": ("EP8-TP1-PP2", "TP4-PP2"),
        },
        ("mi250x32",): {
            "gpt3-30b": ("TP8-PP2", "TP2-PP8"),
            "llama3-30b": ("TP4-PP4",),
        },
    }
    for key, grid in grids.items():
        if set(clusters) <= set(key) or clusters == key:
            break
    else:
        raise ValueError(f"no paper grid for clusters {clusters}")

    optimizations = [("base", OptimizationConfig())]
    if include_optimizations:
        optimizations += [("act", act), ("cc", cc)]

    specs = []
    for cluster in clusters:
        for model, strategies in grid.items():
            for strategy in strategies:
                for label, opts in optimizations:
                    specs.append(
                        ExperimentSpec(
                            name=f"{cluster}_{model}_{strategy}_{label}"
                            .lower(),
                            model=model,
                            cluster=cluster,
                            parallelism=strategy,
                            optimizations=opts,
                        )
                    )
    return specs
