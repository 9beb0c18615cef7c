"""Command-line interface: run experiments without writing Python.

Usage::

    python -m repro catalog
    python -m repro run --model gpt3-175b --cluster h200x32 \\
        --parallelism TP2-PP16 --activation-recompute --output results/a
    python -m repro run --kind serving --model llama3-70b \\
        --cluster h100x64 --trace diurnal --replicas 8 --autoscale
    python -m repro sweep --model gpt3-30b --cluster mi250x32 \\
        --parallelism TP8-PP2 TP2-PP8 --freq-setpoint 0.8 1.0
    python -m repro figures --model gpt3-30b --cluster h200x32 \\
        --parallelism TP4-PP8-DP1 --output figures/
    python -m repro full-sweep --cluster h200x32 --output results/
    python -m repro fleet --policy thermal-aware --power-cap-kw 10
    python -m repro optimize --model gpt3-13b --cluster h100x64 \\
        --parallelisms TP4-PP2 --schedules 1f1b zb-h1 --max-slowdown none
    python -m repro resilience sweep --model gpt3-13b --cluster h100x64 \\
        --parallelism TP4-PP2 --mtbf-s 1800 3600 7200
    python -m repro serve --port 8053 --concurrency 2
    python -m repro chaos --scenario soak --seed 0 --json
    python -m repro cache clear

Workload subcommands build a :class:`repro.api.SimRequest` (or an
``OptimizeRequest``) and run it through the typed API the ``serve``
broker speaks over HTTP. :func:`_add_fields` generates the flags of
``run``, ``figures``, ``sweep``, ``optimize``, ``fleet`` and
``resilience run|sweep`` from the fields of the schema each one builds,
and the request classes do all the validation; docs/api.md ("CLI
conventions") gives the rules, the shared ``--json``/``--jobs``/cache
flags and the exit codes (0 ok, 2 bad arguments, 3 runtime failure).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import os
import re
import sys
import tempfile
import typing
from dataclasses import asdict
from pathlib import Path

from repro.api import (
    FleetParams, OptimizeRequest, SimRequest, submit, submit_many,
)
from repro.core.artifact import run_summary, write_run_artifact
from repro.hardware.cluster import cluster_names, get_cluster
from repro.inferserve.config import ServingConfig
from repro.models.catalog import get_model, model_names
from repro.parallelism.enumerate import ConfigSearchSpace, valid_configs
from repro.resilience.recovery import RecoveryConfig

#: ``Any``-typed request fields that carry a nested schema.
_NESTED = {"serving": ServingConfig}

#: The grid axes of ``sweep``, outermost first.
_SWEEP_AXES = (
    "parallelism", "microbatch_size", "pipeline_schedule", "freq_setpoint",
)

#: A ``snake_case`` identifier: the only words an error rewrite touches.
_FIELD_NAME = re.compile(r"\b[a-z][a-z0-9]*(?:_[a-z0-9]+)+\b")

#: Resolved field annotations, once per schema class.
_type_hints = functools.cache(typing.get_type_hints)


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _parse_as(kind: type, optional: bool):
    """argparse ``type`` for one value of a field (``none`` -> None
    for optional fields)."""

    def parse(text: str):
        if optional and text.lower() == "none":
            return None
        return kind(text)

    parse.__name__ = kind.__name__
    return parse


def _add_fields(parser, cls, *, only=None, axes=(), defaults=None,
                path=(), taken=None) -> list[tuple[str, tuple]]:
    """Add one flag per documented field of dataclass ``cls``.

    Returns ``(dest, field path)`` pairs for :func:`_values`. Top-level
    scalars default to the field's default (or ``defaults[name]``);
    list-valued fields, ``axes`` and nested fields are absent from the
    namespace unless given, so the schema's own default applies.
    """
    taken = set() if taken is None else taken
    hints = _type_hints(cls)
    names = {spec.name for spec in dataclasses.fields(cls)}
    specs: list[tuple[str, tuple]] = []
    nested = []
    for spec in dataclasses.fields(cls):
        name = spec.metadata.get("flag", spec.name)
        hint = _NESTED.get(spec.name, hints[spec.name])
        if (only is not None and spec.name not in only) or name in taken:
            continue
        if dataclasses.is_dataclass(hint):
            nested.append((spec.name, hint))
            continue
        if "help" not in spec.metadata:
            continue
        taken.add(name)
        args = typing.get_args(hint)
        optional = type(None) in args
        if optional:
            hint = next(arg for arg in args if arg is not type(None))
        many = typing.get_origin(hint) is tuple or spec.name in axes
        if typing.get_origin(hint) is tuple:
            hint = typing.get_args(hint)[0]
        default = (defaults or {}).get(spec.name, spec.default)
        text = _FIELD_NAME.sub(  # sibling fields named as flags
            lambda m: _flag(m[0]) if m[0] in names else m[0],
            spec.metadata["help"],
        )
        if default not in ("", None, ()):
            shown = " ".join(map(str, default)) if isinstance(
                default, tuple) else default
            text += f" (default: {shown})"
        options: dict = dict(
            dest=name, help=text.replace("%", "%%"),
            default=argparse.SUPPRESS if path or many else default,
        )
        if hint is bool:
            options["action"] = argparse.BooleanOptionalAction
        else:
            options["type"] = _parse_as(hint, optional)
            if many:
                options.update(action="extend", nargs="+")
        parser.add_argument(_flag(name), **options)
        specs.append((name, path + (spec.name,)))
    for name, schema in nested:
        specs += _add_fields(
            parser, schema, path=path + (name,), taken=taken
        )
    return specs


def _values(args: argparse.Namespace, specs=None) -> dict:
    """The (nested) field values a generated-flag namespace carries."""
    values: dict = {}
    for dest, path in args._fields if specs is None else specs:
        if hasattr(args, dest):
            value = getattr(args, dest)
            target = values
            for key in path[:-1]:
                target = target.setdefault(key, {})
            target[path[-1]] = (
                tuple(value) if isinstance(value, list) else value
            )
    return values


def _flagify(message: str, args: argparse.Namespace) -> str:
    """Spell the request fields an error names as this command's flags."""
    flags = {
        path[-1]: _flag(dest)
        for dest, path in [*getattr(args, "_fields", ()),
                           *getattr(args, "_workload", ())]
    }
    return _FIELD_NAME.sub(lambda m: flags.get(m[0], m[0]), message)


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _print_summary(result) -> None:
    efficiency = result.efficiency()
    stats = result.stats()
    print(f"run           : {result.label}")
    print(f"dp            : {result.parallelism.dp}")
    print(f"step time     : {efficiency.step_time_s:.2f} s")
    print(f"throughput    : {efficiency.tokens_per_s:,.0f} tokens/s")
    print(f"energy        : {efficiency.tokens_per_joule:.3f} tokens/J")
    print(f"avg power     : {stats.avg_power_w / 1000:.1f} kW")
    per_gpu_power = result.per_gpu_mean_power_w()
    mean_power = sum(per_gpu_power) / len(per_gpu_power)
    print(
        f"per-GPU power : {min(per_gpu_power):.0f}/{mean_power:.0f}/"
        f"{max(per_gpu_power):.0f} W (min/mean/max)"
    )
    print(f"total energy  : {efficiency.energy_j:,.0f} J")
    print(f"peak temp     : {stats.peak_temp_c:.1f} C")
    print(f"mean clock    : {stats.mean_freq_ratio:.3f}")
    print(f"max throttle  : {max(result.throttle_ratio()):.2f}")
    trace = result.outcome.power_control
    if trace is not None:
        print(
            f"governor      : {trace.governor} "
            f"({len(trace.decisions)} actuations)"
        )
    faults = result.outcome.fault_trace
    if faults is not None:
        print(
            f"faults        : {faults.applied} applied, "
            f"{len(faults.hangs)} collective hang(s) detected"
        )


def cmd_catalog(args: argparse.Namespace) -> int:
    """List the models and clusters available."""
    models = [(name, get_model(name)) for name in model_names()]
    clusters = [(name, get_cluster(name)) for name in cluster_names()]
    if args.as_json:
        _emit_json({
            "models": [
                {"name": name, "params_b": model.total_params / 1e9,
                 "kind": "moe" if model.is_moe else "dense"}
                for name, model in models
            ],
            "clusters": [
                {"name": name, "nodes": cluster.num_nodes,
                 "gpus_per_node": cluster.node.gpus_per_node,
                 "gpu": cluster.node.gpu.name}
                for name, cluster in clusters
            ],
        })
        return 0
    print("models:")
    for name, model in models:
        kind = "MoE" if model.is_moe else "dense"
        print(f"  {name:<16} {model.total_params / 1e9:6.0f}B {kind}")
    print("clusters:")
    for name, cluster in clusters:
        print(
            f"  {name:<10} {cluster.num_nodes} nodes x "
            f"{cluster.node.gpus_per_node} {cluster.node.gpu.name}"
        )
    return 0


def cmd_configs(args: argparse.Namespace) -> int:
    """List memory-valid parallelism configurations."""
    model = get_model(args.model)
    cluster = get_cluster(args.cluster)
    space = ConfigSearchSpace(microbatch_size=args.microbatch)
    configs = valid_configs(model, cluster, space, recompute=args.act)
    if getattr(args, "as_json", False):
        _emit_json({
            "model": model.name,
            "cluster": cluster.name,
            "configs": [
                {"name": config.name, "dp": config.dp}
                for config in configs
            ],
        })
        return 0
    print(
        f"{len(configs)} valid configurations for {model.name} on "
        f"{cluster.name}:"
    )
    for config in configs:
        print(f"  {config.name:<16} dp={config.dp}")
    return 0


def _write_outputs(request: SimRequest, result, output: str) -> dict:
    """Write a run's artifact directory, or a serving deployment's
    request/timeline CSVs and figure; returns the written paths."""
    if request.kind != "serving":
        return {"artifact": str(write_run_artifact(result, output))}
    from repro.telemetry.export import (
        write_serving_requests_csv,
        write_serving_timeline_csv,
    )
    from repro.viz.figures import serving_timeline_figure

    directory = Path(output)
    paths = {
        "requests_csv": str(write_serving_requests_csv(
            result, directory / "serving_requests.csv")),
        "timeline_csv": str(write_serving_timeline_csv(
            result, directory / "serving_timeline.csv")),
        "figure": str(directory / "serving.svg"),
    }
    serving_timeline_figure(result, path=directory / "serving.svg")
    return paths


def cmd_run(args: argparse.Namespace) -> int:
    """Run one experiment; optionally write its artifacts."""
    request = SimRequest.from_dict(_values(args))
    result = submit(request)
    serving = request.kind == "serving"
    outputs = (
        _write_outputs(request, result, args.output) if args.output else {}
    )
    warning = None
    if request.fault_time is not None and \
            result.fault_events_applied() == 0:
        # Horizon is only known after the run: surface a fault that
        # landed past the end instead of silently simulating a clean run.
        warning = (
            f"--fault-time {request.fault_time:g}s never fired; the run "
            f"ended at {result.window_end_s:.1f}s (raise --iterations or "
            "--global-batch-size to lengthen the run)"
        )
    if args.as_json:
        payload = asdict(result.metrics()) if serving else dict(
            run_summary(result), artifact=None
        )
        payload.update(request_digest=request.digest(), **outputs)
        if warning is not None:
            payload["warning"] = warning
        _emit_json(payload)
        return 0
    if serving:
        print(f"deployment    : {request.label}")
        _print_serving_outcome(result)
    else:
        _print_summary(result)
    if warning is not None:
        print(f"warning: {warning}", file=sys.stderr)
    for name, path in outputs.items():
        print(f"{name:<14}: {path}")
    return 0


def _sweep_row(request: SimRequest, result) -> dict:
    if request.kind == "serving":
        return dict(setpoint=request.freq_setpoint, **asdict(result.metrics()))
    efficiency = result.efficiency()
    stats = result.stats()
    return {
        "strategy": request.parallelism,
        "microbatch": request.microbatch_size,
        "schedule": request.pipeline_schedule,
        "setpoint": request.freq_setpoint,
        "tokens_per_s": efficiency.tokens_per_s,
        "energy_j": efficiency.energy_j,
        "tokens_per_joule": efficiency.tokens_per_joule,
        "peak_temp_c": stats.peak_temp_c,
        "mean_freq_ratio": stats.mean_freq_ratio,
    }


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run a strategy x microbatch x schedule x setpoint grid."""
    from repro.core.parallel import ExecutionReport

    base = _values(args)
    field_defaults = {
        spec.name: spec.default for spec in dataclasses.fields(SimRequest)
    }
    axes = [base.pop(name, (field_defaults[name],)) for name in _SWEEP_AXES]
    requests = [
        SimRequest.from_dict({**base, **dict(zip(_SWEEP_AXES, point))})
        for point in itertools.product(*axes)
    ]
    report = ExecutionReport()
    results = submit_many(requests, jobs=args.jobs, report=report)
    if report.crashed:
        print(
            f"warning: sweep survived worker crashes "
            f"({report.describe()})",
            file=sys.stderr,
        )
    rows = [
        _sweep_row(request, result)
        for request, result in zip(requests, results)
    ]
    cached = len(report.cached)
    if args.as_json:
        _emit_json({"rows": rows, "cached": cached})
        return 0
    if requests[0].kind == "serving":
        print(f"{'setpoint':>8} {'goodput':>8} {'attain%':>8} "
              f"{'ttft99':>8} {'J/token':>8}")
        for row in rows:
            print(
                f"{row['setpoint']:>8.4f} {row['goodput_per_s']:>8.2f} "
                f"{100 * row['slo_attainment']:>8.1f} "
                f"{row['ttft_p99_s']:>8.3f} "
                f"{row['energy_per_token_j']:>8.3f}"
            )
    else:
        print(f"{'strategy':<16} {'mb':>3} {'schedule':<11} "
              f"{'setpoint':>8} {'tok/s':>10} {'energy_J':>12} "
              f"{'tok/J':>7} {'peakT':>6} {'clock':>6}")
        for row in rows:
            print(
                f"{row['strategy']:<16} {row['microbatch']:>3} "
                f"{row['schedule']:<11} {row['setpoint']:>8.4f} "
                f"{row['tokens_per_s']:>10,.0f} {row['energy_j']:>12,.0f} "
                f"{row['tokens_per_joule']:>7.3f} "
                f"{row['peak_temp_c']:>6.1f} {row['mean_freq_ratio']:>6.3f}"
            )
    print(f"{cached} of {len(requests)} points answered from cache")
    return 0


def cmd_full_sweep(args: argparse.Namespace) -> int:
    """Run the paper's evaluation grid and write all artifacts."""
    from repro.core.campaign import paper_campaign, run_campaign

    as_json = getattr(args, "as_json", False)
    specs = paper_campaign(clusters=tuple(args.cluster))
    if not as_json:
        print(f"{len(specs)} experiments -> {args.output}")

    def progress(spec, result):
        print(
            f"  {spec.name:<48} "
            f"{result.efficiency().tokens_per_s:>10,.0f} tok/s"
        )

    campaign = run_campaign(
        specs,
        output_dir=args.output,
        on_result=None if as_json else progress,
        jobs=args.jobs,
    )
    summary_csv = campaign.directory / "summary.csv"
    if as_json:
        _emit_json({
            "experiments": len(specs),
            "summary_csv": str(summary_csv),
            "rows": campaign.summary_rows,
        })
        return 0
    print(f"summary: {summary_csv}")
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    """Render the figure bundle for one configuration."""
    from repro.viz.figures import (
        kernel_breakdown_figure,
        powerctl_timeline_figure,
        schedule_timeline_figure,
        temperature_heatmap_figure,
        thermal_timeseries_figure,
        throttle_heatmap_figure,
        throughput_comparison,
    )

    request = SimRequest.from_dict(_values(args))
    if request.kind == "serving":
        raise ValueError(
            "figures renders training and inference runs; "
            "'run --kind serving --output DIR' writes the serving figure"
        )
    result = submit(request)
    output = Path(args.output)
    label = result.parallelism.name
    throughput_comparison({label: result}, path=output / "throughput.svg")
    kernel_breakdown_figure({label: result}, path=output / "breakdown.svg")
    temperature_heatmap_figure(result, path=output / "temperature.svg")
    throttle_heatmap_figure(result, path=output / "throttling.svg")
    thermal_timeseries_figure(result, path=output / "timeseries.svg")
    names = [
        "throughput.svg", "breakdown.svg", "temperature.svg",
        "throttling.svg", "timeseries.svg",
    ]
    if result.parallelism.pp > 1:
        schedule_timeline_figure(result, path=output / "schedule.svg")
        names.append("schedule.svg")
    if result.outcome.power_control is not None:
        powerctl_timeline_figure(result, path=output / "powerctl.svg")
        names.append("powerctl.svg")
    if args.as_json:
        _emit_json({
            "output": str(output),
            "figures": [str(output / name) for name in names],
        })
        return 0
    print(f"wrote {len(names)} figures to {output}")
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    """Simulate a multi-job fleet and print the goodput/energy summary."""
    from repro.datacenter import format_fleet_summary, simulate_fleet

    request = SimRequest(kind="fleet", fleet=_values(args))
    outcome = simulate_fleet(request.to_fleet_config(), jobs=args.jobs)
    telemetry_csv = timeline_svg = None
    if args.output:
        from repro.telemetry.export import write_fleet_telemetry_csv
        from repro.viz.figures import fleet_timeline_figure

        output = Path(args.output)
        telemetry_csv = write_fleet_telemetry_csv(
            outcome.samples, output / "fleet_telemetry.csv"
        )
        timeline_svg = output / "fleet_timeline.svg"
        fleet_timeline_figure(outcome, path=timeline_svg)
    if args.as_json:
        _emit_json(dict(
            asdict(outcome.metrics()),
            telemetry_csv=str(telemetry_csv) if telemetry_csv else None,
            timeline_svg=str(timeline_svg) if timeline_svg else None,
        ))
        return 0
    print(format_fleet_summary(outcome.metrics()))
    if telemetry_csv is not None:
        print(f"telemetry     : {telemetry_csv}")
        print(f"timeline      : {timeline_svg}")
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    """Joint configuration auto-search (docs/optimize.md)."""
    from repro.core.parallel import resolve_jobs
    from repro.optimize import run_optimize

    request = OptimizeRequest.from_dict(_values(args))
    if args.output and request.kind == "serving":
        raise ValueError(
            "--output writes a training search's best run; pass the best "
            "deployment to 'run --kind serving --output DIR'"
        )
    jobs = 1 if args.jobs == 1 else resolve_jobs(args.jobs)
    result = run_optimize(request, jobs=jobs)
    best = result.best
    outputs = {}
    if args.output:
        best_run = SimRequest(
            model=request.model, cluster=request.cluster,
            parallelism=best.parallelism,
            microbatch_size=best.microbatch_size,
            global_batch_size=request.global_batch_size,
            iterations=request.iterations,
            pipeline_schedule=best.pipeline_schedule,
            freq_setpoint=best.setpoint,
        )
        outputs = _write_outputs(best_run, submit(best_run), args.output)
    if args.as_json:
        _emit_json({**result.to_dict(), **outputs})
        return 0
    prune = result.prune
    print(
        f"search        : min {result.objective} over {prune.raw} "
        f"candidates ({request.model} on {request.cluster}, "
        f"kind={result.kind})"
    )
    print(
        f"pruned        : {prune.raw - prune.simulated}/{prune.raw} "
        f"before simulation ({100 * prune.pruned_fraction:.1f}%): "
        f"tiling {prune.pruned_tiling}, "
        f"schedule {prune.pruned_schedule}, "
        f"memory {prune.pruned_memory}, "
        f"power cap {prune.pruned_power_cap}, "
        f"ranked out {prune.ranked_out}"
    )
    print(
        f"probes        : {result.probes_total} simulations, "
        f"{result.probes_cached} answered from cache"
    )
    if result.kind == "serving":
        print(
            f"{'replicas':>8} {'gpus_per_replica':>16} {'setpoint':>8} "
            f"{'energy_per_token_j':>18} {'ttft_p99_s':>10} {'cost':>12} "
            f"{'feasible':>8}"
        )

        def row(c) -> str:
            return (
                f"{c.replicas:>8} {c.gpus_per_replica:>16} "
                f"{c.setpoint:>8.4f} {c.energy_per_token_j:>18.5g} "
                f"{c.ttft_p99_s:>10.4f}"
            )

        def describe(c) -> str:
            return (
                f"{c.replicas} replicas x {c.gpus_per_replica} GPUs @ "
                f"setpoint {c.setpoint:.4f} (energy/token "
                f"{c.energy_per_token_j:.5g} J, TTFT p99 "
                f"{c.ttft_p99_s:.4f} s, cost {c.cost:.5g})"
            )
    else:
        print(
            f"{'config':<22} {'mb':>3} {'schedule':>11} {'setpoint':>8} "
            f"{'cost':>12} {'feasible':>8}"
        )

        def row(c) -> str:
            return (
                f"{c.parallelism:<22} {c.microbatch_size:>3} "
                f"{c.pipeline_schedule or '-':>11} {c.setpoint:>8.4f}"
            )

        def describe(c) -> str:
            return (
                f"{c.parallelism} mb={c.microbatch_size} "
                f"{c.pipeline_schedule or '-'} @ setpoint "
                f"{c.setpoint:.4f} (cost {c.cost:.5g})"
            )

    for c in result.candidates:
        print(f"{row(c)} {c.cost:>12.5g} {'yes' if c.feasible else 'no':>8}")
    print(f"best          : {describe(best)}")
    if result.baseline is not None and result.baseline is not best:
        print(f"baseline      : {describe(result.baseline)}")
        print(
            f"improvement   : "
            f"{100 * result.improvement_fraction:.1f}% vs the default "
            "schedule/setpoint"
        )
    for name, path in outputs.items():
        print(f"{name:<14}: {path}")
    return 0


def _print_serving_outcome(outcome) -> None:
    metrics = outcome.metrics()
    print(
        f"requests      : {metrics.arrived} arrived, "
        f"{metrics.completed} completed, {metrics.rejected} rejected, "
        f"{metrics.preemptions} preemption(s)"
    )
    print(
        f"goodput       : {metrics.goodput_per_s:.2f} req/s within SLO "
        f"({100 * metrics.slo_attainment:.1f}% attainment)"
    )
    print(
        f"latency       : TTFT p50 {metrics.ttft_p50_s:.3f} s / "
        f"p99 {metrics.ttft_p99_s:.3f} s, TPOT p99 "
        f"{metrics.tpot_p99_s * 1e3:.1f} ms, E2E p99 "
        f"{metrics.e2e_p99_s:.2f} s"
    )
    print(
        f"energy        : {metrics.energy_j:,.0f} J total, "
        f"{metrics.energy_per_token_j:.3f} J/token, "
        f"mean {metrics.mean_power_w / 1e3:.2f} kW"
    )
    print(
        f"replicas      : {len(outcome.replicas)} used, "
        f"{len(outcome.scale_events)} scale event(s), "
        f"{metrics.active_replica_seconds:,.0f} replica-seconds"
    )


#: The ``ResilienceRun`` attributes a ``--json`` row carries.
_RESILIENCE_KEYS = (
    "policy", "mtbf_s", "faults_seen", "hangs_detected", "completed",
    "replayed", "lost", "scheduled", "makespan_s", "ideal_makespan_s",
    "goodput_fraction", "energy_per_token_j", "checkpoint_writes",
    "checkpoint_write_s",
)


def _resilience_run_dict(run) -> dict:
    return {key: getattr(run, key) for key in _RESILIENCE_KEYS}


def _print_resilience_run(run) -> None:
    print(f"policy        : {run.policy}")
    print(
        f"faults        : {run.faults_seen} seen, "
        f"{run.hangs_detected} hang(s) detected"
    )
    print(
        f"iterations    : {run.completed} completed + {run.replayed} "
        f"replayed + {run.lost} lost = {run.scheduled} scheduled"
    )
    print(
        f"makespan      : {run.makespan_s:,.1f} s "
        f"(fault-free {run.ideal_makespan_s:,.1f} s)"
    )
    print(f"goodput       : {100 * run.goodput_fraction:.1f}% of fault-free")
    print(f"energy/token  : {run.energy_per_token_j:.4f} J")
    print(
        f"checkpoints   : {run.checkpoint_writes} writes x "
        f"{run.checkpoint_write_s:.2f} s"
    )


def _recovery_inputs(args: argparse.Namespace):
    """The workload (model, cluster, plan, probe kwargs), validated as a
    training request, and the ``RecoveryConfig`` field values."""
    workload = SimRequest(**_values(args, args._workload))
    return (
        (workload.model, workload.cluster, workload.parallelism),
        dict(global_batch_size=workload.global_batch_size,
             microbatch_size=workload.microbatch_size),
        _values(args),
    )


def cmd_resilience_run(args: argparse.Namespace) -> int:
    """Walk one recovery policy over one fault schedule."""
    from repro.resilience.recovery import simulate_recovery

    workload, probe, values = _recovery_inputs(args)
    if values.get("mtbf_s") and values.get("fault_times_s"):
        raise ValueError(
            "mtbf_s and fault_times_s are exclusive: give either a "
            "failure rate or explicit fault times"
        )
    run = simulate_recovery(*workload, RecoveryConfig(**values), **probe)
    csv_path = None
    if args.output:
        from repro.telemetry.export import write_resilience_csv

        csv_path = write_resilience_csv(
            [run], Path(args.output) / "resilience.csv"
        )
    if args.as_json:
        payload = _resilience_run_dict(run)
        payload["csv"] = str(csv_path) if csv_path else None
        _emit_json(payload)
        return 0
    _print_resilience_run(run)
    if csv_path is not None:
        print(f"csv           : {csv_path}")
    return 0


def cmd_resilience_sweep(args: argparse.Namespace) -> int:
    """Compare recovery policies across an MTBF grid."""
    from repro.resilience.recovery import POLICIES, sweep_mtbf

    workload, probe, values = _recovery_inputs(args)
    mtbf_grid = values.pop("mtbf_s", (RecoveryConfig.mtbf_s,))
    policies = values.pop("policy", POLICIES)
    config = RecoveryConfig(**values)
    for policy in policies:
        dataclasses.replace(config, policy=policy)  # validates the name
    rows = sweep_mtbf(
        *workload, mtbf_grid, config, policies=policies, **probe
    )
    csv_path = figure_path = None
    if args.output:
        from repro.telemetry.export import write_resilience_csv
        from repro.viz.figures import mtbf_goodput_figure

        output = Path(args.output)
        runs = [row[policy] for row in rows for policy in policies]
        csv_path = write_resilience_csv(runs, output / "resilience.csv")
        figure_path = output / "mtbf_goodput.svg"
        mtbf_goodput_figure(rows, path=figure_path)
    if args.as_json:
        _emit_json({
            "rows": [
                _resilience_run_dict(row[policy])
                for row in rows
                for policy in policies
            ],
            "csv": str(csv_path) if csv_path else None,
            "figure": str(figure_path) if figure_path else None,
        })
        return 0
    print(f"{'mtbf_s':>8}" + "".join(
        f" {policy + ' good%':>16} {'lost':>5}" for policy in policies
    ))
    for row in rows:
        print(f"{row[policies[0]].mtbf_s:>8,.0f}" + "".join(
            f" {100 * row[p].goodput_fraction:>15.1f}% {row[p].lost:>5}"
            for p in policies
        ))
    if csv_path is not None:
        print(f"csv           : {csv_path}")
        print(f"figure        : {figure_path}")
    return 0


def _serve_config(args: argparse.Namespace):
    """The :class:`~repro.serve.BrokerConfig` ``repro serve`` deploys."""
    from repro.serve import BrokerConfig

    # The deployed service answers degraded rather than failing when a
    # miss exhausts the worker pool's crash budget or its deadline; the
    # library-level BrokerConfig default keeps that off for embedders
    # and tests. Crash redispatch and respawn are always on.
    return BrokerConfig(
        concurrency=max(args.concurrency, args.workers),
        queue_limit=args.queue_limit,
        default_timeout_s=(
            args.timeout_s if args.timeout_s > 0 else None
        ),
        use_processes=not args.inline,
        workers=args.workers,
        slo_target_s=(
            args.slo_target_s if args.slo_target_s > 0 else None
        ),
        hedge_s=args.hedge_s if args.hedge_s > 0 else None,
        degraded=not args.no_degraded,
    )


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the simulation broker as a long-lived HTTP service."""
    from repro.serve import BrokerServer

    # Load every run path the workers execute before they fork, so no
    # worker (first or respawned) imports one on its first miss.
    import repro.inferserve.engine  # noqa: F401
    import repro.optimize.search  # noqa: F401

    config = _serve_config(args)
    server = BrokerServer(
        config, host=args.host, port=args.port, verbose=True
    )
    if args.worker_listen > 0:
        if not args.worker_authkey:
            print(
                "error: --worker-listen requires --worker-authkey",
                file=sys.stderr,
            )
            server.stop()
            return 2
        if server.broker.pool is None:
            print(
                "error: --worker-listen requires process execution "
                "(drop --inline; remote workers join the local pool)",
                file=sys.stderr,
            )
            server.stop()
            return 2
        host, port = server.broker.pool.listen(
            (args.host, args.worker_listen),
            args.worker_authkey.encode(),
        )
        print(
            f"accepting remote workers on {host}:{port} "
            "(python -m repro worker --connect ...)"
        )
    print(
        f"serving on http://{server.address} "
        "(POST /v1/simulate, GET /v1/status, GET /v1/metrics; "
        "Ctrl-C to stop)"
    )
    server.run()
    return 0


def cmd_worker(args: argparse.Namespace) -> int:
    """Join a broker's worker pool from this host (TCP).

    By default a lost broker (restart, network partition) is re-dialled
    with capped full-jitter backoff instead of killing the worker; each
    connection-state change is logged as one structured JSON line on
    stderr so supervisors can alert on ``reconnect_wait`` storms.
    """
    from repro.chaos.policies import RetryPolicy
    from repro.serve import serve_worker

    host, _, port = args.connect.rpartition(":")
    if not host or not port.isdigit():
        print(
            f"error: --connect must be HOST:PORT, got {args.connect!r}",
            file=sys.stderr,
        )
        return 2

    def log_event(event: dict) -> None:
        print(json.dumps({"worker": True, **event}), file=sys.stderr)

    print(f"joining worker pool at {host}:{port} (Ctrl-C to leave)")
    try:
        serve_worker(
            (host, int(port)),
            args.authkey.encode(),
            reconnect=not args.no_reconnect,
            retry=RetryPolicy(
                attempts=2, base_s=0.5,
                cap_s=max(0.5, args.retry_cap_s),
            ),
            max_retries=(
                args.max_retries if args.max_retries >= 0 else None
            ),
            on_event=log_event,
        )
    except KeyboardInterrupt:
        pass
    except (ConnectionError, OSError) as error:
        print(f"error: could not join pool: {error}", file=sys.stderr)
        return 3
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run seeded fault-injection scenarios against the serve stack."""
    from repro.chaos import SCENARIOS, get_scenario, run_scenario

    if args.list:
        if args.as_json:
            _emit_json({
                name: scenario.description
                for name, scenario in sorted(SCENARIOS.items())
            })
        else:
            for name, scenario in sorted(SCENARIOS.items()):
                print(f"{name:<14} {scenario.description}")
        return 0
    names = args.scenario or ["soak"]
    scenarios = [get_scenario(name) for name in names]
    cache_dir = args.cache_dir or os.environ.get("REPRO_CACHE_DIR")
    scratch = None
    if cache_dir is None:
        # Corruption faults must never touch a real cache.
        scratch = tempfile.TemporaryDirectory(prefix="repro-chaos-")
        cache_dir = scratch.name
    reports = []
    try:
        for scenario in scenarios:
            if not args.as_json:
                print(f"running {scenario.name} "
                      f"(seed {args.seed}, {args.requests} requests, "
                      f"{args.workers} workers)...")
            # A store per scenario: results one scenario cached would
            # answer the next one's requests before any fault fires.
            report = run_scenario(
                scenario,
                seed=args.seed,
                requests=args.requests,
                workers=args.workers,
                cache_dir=Path(cache_dir) / scenario.name,
            )
            reports.append(report)
            if not args.as_json:
                print(report.describe())
    finally:
        if scratch is not None:
            scratch.cleanup()
    payload = {
        "seed": args.seed,
        "requests": args.requests,
        "workers": args.workers,
        "scenarios": [report.to_dict() for report in reports],
        "survived": all(report.survived for report in reports),
    }
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2))
        if not args.as_json:
            print(f"wrote {args.out}")
    if args.as_json:
        _emit_json(payload)
    return 0 if payload["survived"] else 3


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect or clear the persistent result cache."""
    from repro.core.store import result_store

    store = result_store()
    as_json = getattr(args, "as_json", False)
    if args.action == "clear":
        removed = store.clear()
        if as_json:
            _emit_json({"removed": removed, "root": str(store.root)})
        else:
            print(f"removed {removed} cached results from {store.root}")
        return 0
    stats = store.stats()
    if as_json:
        _emit_json({
            "root": str(stats.root),
            "schema_version": stats.schema_version,
            "entries": stats.entries,
            "total_mb": stats.total_mb,
            "stale_entries": stats.stale_entries,
            "quarantined_entries": stats.quarantined_entries,
            "entries_by_version": dict(stats.entries_by_version),
        })
        return 0
    print(f"cache root    : {stats.root}")
    print(f"schema        : v{stats.schema_version}")
    print(f"entries       : {stats.entries}")
    print(f"size          : {stats.total_mb:.1f} MiB")
    for version, count in stats.entries_by_version:
        marker = (
            "" if version == f"v{stats.schema_version}" else " (stale)"
        )
        print(f"  {version:<11} : {count}{marker}")
    if stats.stale_entries:
        print(
            f"stale entries : {stats.stale_entries} "
            "(older schema; 'repro cache clear' removes them)"
        )
    if stats.quarantined_entries:
        print(
            f"quarantined   : {stats.quarantined_entries} corrupt "
            "entries moved aside (recomputed on next use; 'repro cache "
            "clear' removes them)"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "CharLLM-PPT: power/performance/thermal characterization of "
            "distributed LLM training on a simulated testbed"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    # Shared flag groups, declared once and attached via parents=[...]:
    # every result-producing subcommand speaks the same --json / --jobs /
    # cache dialect (the CLI consistency contract in docs/api.md).
    json_flags = argparse.ArgumentParser(add_help=False)
    json_flags.add_argument(
        "--json", dest="as_json", action="store_true",
        help="print a machine-readable JSON summary to stdout",
    )
    jobs_flags = argparse.ArgumentParser(add_help=False)
    jobs_flags.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for simulations (0 = auto: cpu_count-1)",
    )
    cache_flags = argparse.ArgumentParser(add_help=False)
    cache_flags.add_argument(
        "--no-cache", action="store_true",
        help="skip the persistent result store for this invocation",
    )
    cache_flags.add_argument(
        "--cache-dir", default=None,
        help="redirect the persistent result store "
             "(default: .repro_cache, or $REPRO_CACHE_DIR)",
    )
    sim_parents = [json_flags, jobs_flags, cache_flags]

    def command(name, func, help, cls, output=None, **options):
        """A subcommand whose flags are generated from schema ``cls``,
        plus ``--output`` when ``output`` (its help) is given."""
        sub = subparsers.add_parser(name, help=help, parents=sim_parents)
        sub.set_defaults(func=func, _fields=_add_fields(sub, cls, **options))
        if output:
            sub.add_argument("--output", required=name == "figures",
                             default=None, help=output)

    catalog = subparsers.add_parser(
        "catalog", help="list models and clusters", parents=[json_flags]
    )
    catalog.set_defaults(func=cmd_catalog)

    configs = subparsers.add_parser(
        "configs", help="list valid parallelism configurations",
        parents=[json_flags],
    )
    configs.add_argument("--model", required=True)
    configs.add_argument("--cluster", required=True)
    configs.add_argument("--microbatch", type=int, default=1)
    configs.add_argument("--act", action="store_true")
    configs.set_defaults(func=cmd_configs)

    command("run", cmd_run, "run one experiment (--kind serving: one "
            "serving deployment)", SimRequest,
            output="write an artifact directory here")
    command("sweep", cmd_sweep, "run a strategy x microbatch x schedule x "
            "setpoint grid", SimRequest, axes=_SWEEP_AXES)
    command("figures", cmd_figures, "render the SVG figure bundle for one "
            "run", SimRequest, output="write the figures here")

    full_sweep = subparsers.add_parser(
        "full-sweep",
        help="run the paper's evaluation grid and write all artifacts",
        parents=sim_parents,
    )
    full_sweep.add_argument(
        "--cluster", action="append", required=True,
        help="repeatable: h200x32/h100x64 together, or mi250x32",
    )
    full_sweep.add_argument("--output", required=True)
    full_sweep.set_defaults(func=cmd_full_sweep)

    command("fleet", cmd_fleet, "simulate a multi-job fleet with "
            "power/thermal-aware placement", FleetParams,
            output="write fleet telemetry CSV + timeline SVG here")
    command("optimize", cmd_optimize, "joint auto-search: plan x "
            "microbatch x schedule x setpoint under constraints "
            "(docs/optimize.md)", OptimizeRequest,
            output="training: write the best plan's run artifact here")

    resilience = subparsers.add_parser(
        "resilience",
        help="fault timelines and checkpoint/restart recovery policies "
             "(docs/resilience.md)",
    )
    res_modes = resilience.add_subparsers(dest="mode", required=True)
    for mode, func, help, axes in (
        ("run", cmd_resilience_run,
         "walk one recovery policy over one fault schedule", ()),
        ("sweep", cmd_resilience_sweep,
         "compare recovery policies across an MTBF grid",
         ("mtbf_s", "policy")),
    ):
        sub = res_modes.add_parser(
            mode, help=help, parents=[json_flags, cache_flags]
        )
        workload = _add_fields(
            sub, SimRequest, only=(
                "model", "cluster", "parallelism", "microbatch_size",
                "global_batch_size",
            ),
            defaults={"global_batch_size": 16},
        )
        sub.set_defaults(
            func=func, _workload=workload,
            _fields=_add_fields(sub, RecoveryConfig, axes=axes),
        )
        sub.add_argument("--output", default=None,
                         help="write resilience CSV (and figure) here")

    serve = subparsers.add_parser(
        "serve",
        help="run the simulation broker as an HTTP service "
             "(POST /v1/simulate; docs/api.md)",
        parents=[cache_flags],
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address")
    serve.add_argument("--port", type=int, default=8053,
                       help="bind port (0 = ephemeral)")
    serve.add_argument(
        "--concurrency", type=int, default=2,
        help="simulations executing at once",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=16,
        help="waiting requests before new misses are rejected (429)",
    )
    serve.add_argument(
        "--timeout-s", type=float, default=300.0,
        help="default per-request deadline (0 = unlimited)",
    )
    serve.add_argument(
        "--inline", action="store_true",
        help="execute in-process instead of on the worker pool "
             "(no kill-on-timeout; mainly for debugging)",
    )
    serve.add_argument(
        "--workers", type=int, default=0,
        help="persistent worker-pool processes executing misses "
             "(0 = one per --concurrency slot; ignored with --inline); "
             "raises --concurrency to match when larger",
    )
    serve.add_argument(
        "--slo-target-s", type=float, default=0.0,
        help="reject misses whose predicted wait (queue depth x mean "
             "service time) exceeds this bound with 429 + Retry-After "
             "(0 = disabled)",
    )
    serve.add_argument(
        "--worker-listen", type=int, default=0,
        help="also accept remote TCP workers on this port "
             "(requires --worker-authkey; not with --inline)",
    )
    serve.add_argument(
        "--worker-authkey", default="",
        help="shared secret authenticating remote workers",
    )
    serve.add_argument(
        "--hedge-s", type=float, default=0.0,
        help="hedged requests: duplicate a pool dispatch that has not "
             "answered after this many seconds, first answer wins "
             "(0 = disabled; ignored with --inline)",
    )
    serve.add_argument(
        "--no-degraded", action="store_true",
        help="return structured errors instead of degraded "
             "(stale-cache / analytic) answers when execution fails",
    )
    serve.set_defaults(func=cmd_serve)

    worker = subparsers.add_parser(
        "worker",
        help="join a remote broker's worker pool over TCP "
             "(the other side of 'repro serve --worker-listen')",
    )
    worker.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="the broker's --worker-listen address",
    )
    worker.add_argument(
        "--authkey", required=True,
        help="shared secret (must match the broker's --worker-authkey)",
    )
    worker.add_argument(
        "--no-reconnect", action="store_true",
        help="exit when the broker connection is lost instead of "
             "re-dialling with capped backoff",
    )
    worker.add_argument(
        "--retry-cap-s", type=float, default=30.0,
        help="ceiling on the jittered reconnect backoff delay",
    )
    worker.add_argument(
        "--max-retries", type=int, default=-1,
        help="give up after this many consecutive failed reconnect "
             "dials (-1 = keep trying)",
    )
    worker.set_defaults(func=cmd_worker)

    chaos = subparsers.add_parser(
        "chaos",
        help="run seeded fault-injection scenarios against the serve "
             "stack and report survival (docs/chaos.md)",
        parents=[json_flags, cache_flags],
    )
    chaos.add_argument(
        "--scenario", action="append", default=None,
        help="repeatable: scenario name from --list (default: soak)",
    )
    chaos.add_argument(
        "--list", action="store_true",
        help="list the registered scenarios and exit",
    )
    chaos.add_argument("--seed", type=int, default=0,
                       help="fault-injection seed")
    chaos.add_argument(
        "--requests", type=int, default=50,
        help="requests driven through the broker per scenario",
    )
    chaos.add_argument(
        "--workers", type=int, default=4,
        help="local worker-pool processes behind the broker",
    )
    chaos.add_argument(
        "--out", default=None,
        help="also write the full JSON report to this path",
    )
    chaos.set_defaults(func=cmd_chaos)

    cache = subparsers.add_parser(
        "cache",
        help="inspect or clear the persistent result cache (.repro_cache)",
        parents=[json_flags, cache_flags],
    )
    cache.add_argument(
        "action", nargs="?", default="stats", choices=("stats", "clear"),
        help="stats (default) prints entry count and size; "
             "clear deletes every cached result",
    )
    cache.set_defaults(func=cmd_cache)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Exit codes: 0 ok, 2 bad arguments (also argparse's own code for
    unparseable flags), 3 simulation/runtime failure.
    """
    from repro.core.store import persistence_enabled, set_persistence

    parser = build_parser()
    args = parser.parse_args(argv)
    prior_persistence = persistence_enabled()
    if getattr(args, "cache_dir", None):
        os.environ["REPRO_CACHE_DIR"] = str(args.cache_dir)
    if getattr(args, "no_cache", False):
        set_persistence(False)
    try:
        return args.func(args)
    except (KeyError, ValueError) as error:
        print(f"error: {_flagify(f'{error}', args)}", file=sys.stderr)
        return 2
    except (RuntimeError, TimeoutError) as error:
        # Simulation/runtime failures (worker crashes, deadlines,
        # unplaceable fleets) — distinct from argument errors.
        print(f"error: {error}", file=sys.stderr)
        return 3
    finally:
        set_persistence(prior_persistence)


if __name__ == "__main__":
    sys.exit(main())
