"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_arguments(self):
        args = build_parser().parse_args(
            ["run", "--model", "m", "--cluster", "c",
             "--parallelism", "TP2-PP4", "--activation-recompute"]
        )
        assert args.activation_recompute
        # A toggle left unset is absent, so the schema default applies.
        assert not hasattr(args, "cc_overlap")
        assert args.microbatch_size == 1

    def test_fault_flags(self):
        args = build_parser().parse_args(
            ["run", "--model", "m", "--cluster", "c",
             "--parallelism", "TP2", "--fault-node", "2",
             "--fault-power-scale", "0.5"]
        )
        assert args.fault_node == 2
        assert args.fault_power_scale == 0.5
        with pytest.raises(SystemExit):  # the alias is gone
            build_parser().parse_args(
                ["run", "--model", "m", "--cluster", "c",
                 "--parallelism", "TP2", "--fail-node", "2"]
            )

    def test_fleet_defaults(self):
        args = build_parser().parse_args(["fleet"])
        assert args.policy == "packed"
        assert args.seed == 0
        assert args.power_cap_kw is None

    def test_sweep_accepts_repeated_strategies(self):
        args = build_parser().parse_args(
            ["sweep", "--model", "m", "--cluster", "c",
             "--parallelism", "TP2", "--parallelism", "TP4", "TP8",
             "--microbatch-size", "1", "2"]
        )
        assert args.parallelism == ["TP2", "TP4", "TP8"]
        assert args.microbatch_size == [1, 2]

    def test_jobs_flag_defaults_to_serial(self):
        for argv in (
            ["run", "--model", "m", "--cluster", "c",
             "--parallelism", "TP2"],
            ["sweep", "--model", "m", "--cluster", "c",
             "--parallelism", "TP2"],
            ["figures", "--model", "m", "--cluster", "c",
             "--parallelism", "TP2", "--output", "o"],
            ["full-sweep", "--cluster", "c", "--output", "o"],
            ["fleet"],
        ):
            assert build_parser().parse_args(argv).jobs == 1

    def test_fleet_num_jobs_is_separate_from_workers(self):
        args = build_parser().parse_args(
            ["fleet", "--num-jobs", "4", "--jobs", "2"]
        )
        assert args.num_jobs == 4
        assert args.jobs == 2

    def test_run_governor_defaults(self):
        args = build_parser().parse_args(
            ["run", "--model", "m", "--cluster", "c",
             "--parallelism", "TP2"]
        )
        assert args.governor == "none"
        assert args.freq_setpoint == 1.0
        assert args.power_limit_w is None

    def test_powerctl_sweep_defaults(self):
        # The setpoint grid is a sweep axis; unset, it is the one
        # default setpoint.
        argv = ["sweep", "--model", "m", "--cluster", "c",
                "--parallelism", "TP2"]
        assert not hasattr(build_parser().parse_args(argv), "freq_setpoint")
        args = build_parser().parse_args(
            argv + ["--freq-setpoint", "0.6", "0.7", "0.8", "0.9", "1.0"]
        )
        assert args.freq_setpoint == [0.6, 0.7, 0.8, 0.9, 1.0]

    def test_powerctl_search_defaults(self):
        args = build_parser().parse_args(
            ["optimize", "--model", "m", "--cluster", "c",
             "--parallelisms", "TP2"]
        )
        assert args.setpoint_lo == 0.55 and args.setpoint_hi == 1.0
        assert args.max_slowdown == 0.05
        assert args.jobs == 1
        args = build_parser().parse_args(
            ["optimize", "--model", "m", "--cluster", "c",
             "--max-slowdown", "none"]
        )
        assert args.max_slowdown is None

    def test_powerctl_requires_mode(self):
        # powerctl and inferserve folded into run/sweep/optimize.
        for command in ("powerctl", "inferserve"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command])

    def test_fleet_gpu_power_flags(self):
        args = build_parser().parse_args(
            ["fleet", "--gpu-clock-limit", "0.8"]
        )
        assert args.gpu_clock_limit == 0.8
        assert args.gpu_power_limit_w is None


class TestCommands:
    def test_catalog(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "gpt3-175b" in out
        assert "h200x32" in out

    def test_configs(self, capsys):
        assert main(
            ["configs", "--model", "gpt3-30b", "--cluster", "mi250x32"]
        ) == 0
        out = capsys.readouterr().out
        assert "valid configurations" in out
        assert "TP2-PP4" in out

    def test_run_with_artifact(self, capsys, tmp_path):
        code = main(
            [
                "run", "--model", "gpt3-13b", "--cluster", "mi250x32",
                "--parallelism", "TP4-PP2", "--global-batch", "16",
                "--output", str(tmp_path / "artifact"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "tokens/s" in out
        summary = json.loads(
            (tmp_path / "artifact" / "summary.json").read_text()
        )
        assert summary["model"] == "gpt3-13b"

    def test_run_with_fault_injection(self, capsys):
        code = main(
            [
                "run", "--model", "gpt3-13b", "--cluster", "mi250x32",
                "--parallelism", "TP4-PP2", "--global-batch", "16",
                "--fault-node", "1",
            ]
        )
        assert code == 0
        assert "throughput" in capsys.readouterr().out

    def test_run_with_fault_node_flags(self, capsys):
        code = main(
            [
                "run", "--model", "gpt3-13b", "--cluster", "mi250x32",
                "--parallelism", "TP4-PP2", "--global-batch", "16",
                "--fault-node", "1", "--fault-power-scale", "0.5",
            ]
        )
        assert code == 0
        assert "throughput" in capsys.readouterr().out

    def test_run_with_bad_fault_scale_is_clean_error(self, capsys):
        code = main(
            [
                "run", "--model", "gpt3-13b", "--cluster", "mi250x32",
                "--parallelism", "TP4-PP2", "--global-batch", "16",
                "--fault-node", "1", "--fault-power-scale", "1.5",
            ]
        )
        assert code == 2
        assert "fault-power-scale" in capsys.readouterr().err

    def test_fleet(self, capsys, tmp_path):
        code = main(
            [
                "fleet", "--policy", "thermal-aware", "--seed", "0",
                "--num-jobs", "4", "--power-cap-kw", "12",
                "--output", str(tmp_path / "fleet"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "goodput" in out
        assert "4/4 completed" in out
        assert (tmp_path / "fleet" / "fleet_telemetry.csv").exists()
        assert (tmp_path / "fleet" / "fleet_timeline.svg").exists()

    def test_sweep(self, capsys):
        code = main(
            [
                "sweep", "--model", "gpt3-13b", "--cluster", "mi250x32",
                "--parallelism", "TP8-PP1", "--microbatch", "1", "2",
                "--global-batch", "16",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("TP8-PP1") == 2

    def test_figures(self, capsys, tmp_path):
        code = main(
            [
                "figures", "--model", "gpt3-13b", "--cluster", "mi250x32",
                "--parallelism", "TP4-PP2", "--global-batch", "16",
                "--output", str(tmp_path / "figs"),
            ]
        )
        assert code == 0
        assert (tmp_path / "figs" / "temperature.svg").exists()
        assert (tmp_path / "figs" / "breakdown.svg").exists()

    def test_unknown_model_is_clean_error(self, capsys):
        code = main(
            ["configs", "--model", "gpt5", "--cluster", "h200x32"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_strategy_is_clean_error(self, capsys):
        code = main(
            [
                "run", "--model", "gpt3-13b", "--cluster", "mi250x32",
                "--parallelism", "TPx", "--global-batch", "16",
            ]
        )
        assert code == 2

    def test_bad_strategy_suggests_spelling(self, capsys):
        code = main(
            [
                "run", "--model", "gpt3-13b", "--cluster", "mi250x32",
                "--parallelism", "tp4_pp2", "--global-batch", "16",
            ]
        )
        assert code == 2
        assert "did you mean 'tp4-pp2'" in capsys.readouterr().err

    def test_misspelled_model_suggests_name(self, capsys):
        code = main(
            ["configs", "--model", "gpt3_13b", "--cluster", "h200x32"]
        )
        assert code == 2
        assert "did you mean 'gpt3-13b'" in capsys.readouterr().err

    def test_cache_stats_and_clear(self, capsys):
        from repro.core.sweep import clear_cache

        clear_cache()  # other tests may have memoised this config
        code = main(
            [
                "run", "--model", "gpt3-13b", "--cluster", "mi250x32",
                "--parallelism", "TP4-PP2", "--global-batch", "16",
            ]
        )
        assert code == 0
        capsys.readouterr()

        assert main(["cache"]) == 0
        out = capsys.readouterr().out
        assert "entries       : 1" in out

        assert main(["cache", "clear"]) == 0
        assert "removed 1" in capsys.readouterr().out

        assert main(["cache", "stats"]) == 0
        assert "entries       : 0" in capsys.readouterr().out

    def test_run_summary_reports_power_and_energy(self, capsys):
        code = main(
            [
                "run", "--model", "gpt3-13b", "--cluster", "mi250x32",
                "--parallelism", "TP4-PP2", "--global-batch", "16",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "per-GPU power" in out
        assert "total energy" in out
        assert "governor" not in out  # only printed for governed runs

    def test_run_with_governor_reports_actuations(self, capsys):
        code = main(
            [
                "run", "--model", "gpt3-13b", "--cluster", "mi250x32",
                "--parallelism", "TP4-PP2", "--global-batch", "16",
                "--governor", "static", "--freq-setpoint", "0.8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "governor      : static (1 actuations)" in out

    def test_setpoint_below_boost_implies_static(self, capsys):
        # --freq-setpoint without --governor should still cap the run.
        code = main(
            [
                "run", "--model", "gpt3-13b", "--cluster", "mi250x32",
                "--parallelism", "TP4-PP2", "--global-batch", "16",
                "--freq-setpoint", "0.8",
            ]
        )
        assert code == 0
        assert "governor      : static" in capsys.readouterr().out

    def test_unknown_governor_suggests_spelling(self, capsys):
        code = main(
            [
                "run", "--model", "gpt3-13b", "--cluster", "mi250x32",
                "--parallelism", "TP4-PP2", "--global-batch", "16",
                "--governor", "termal",
            ]
        )
        assert code == 2
        assert "did you mean 'thermal'" in capsys.readouterr().err

    def test_fault_node_out_of_range_is_clean_error(self, capsys):
        code = main(
            [
                "run", "--model", "gpt3-13b", "--cluster", "mi250x32",
                "--parallelism", "TP4-PP2", "--global-batch", "16",
                "--fault-node", "99", "--fault-power-scale", "0.5",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "--fault-node" in err
        assert "has 4 nodes" in err

    def test_powerctl_sweep(self, capsys):
        code = main(
            [
                "sweep", "--model", "gpt3-13b",
                "--cluster", "mi250x32", "--parallelism", "TP4-PP2",
                "--global-batch-size", "16", "--freq-setpoint", "0.8", "1.0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "setpoint" in out
        assert "0.8000" in out and "1.0000" in out

    def test_powerctl_search(self, capsys, tmp_path):
        # A loose tolerance stops after the initial 3-probe bracket,
        # keeping the test to three cached simulations.
        code = main(
            [
                "optimize", "--model", "gpt3-13b",
                "--cluster", "mi250x32", "--parallelisms", "TP4-PP2",
                "--microbatch-sizes", "1", "--schedules", "1f1b",
                "--global-batch-size", "16", "--setpoint-tolerance", "0.5",
                "--output", str(tmp_path / "best"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "best          : TP4-PP2 mb=1 1f1b @ setpoint" in out
        assert (tmp_path / "best" / "summary.json").exists()

    def test_fleet_bad_policy_fails_before_simulating(self, capsys,
                                                      monkeypatch):
        import repro.datacenter

        def simulate_fleet(*args, **kwargs):
            raise AssertionError("fleet simulated")

        monkeypatch.setattr(repro.datacenter, "simulate_fleet",
                            simulate_fleet)
        assert main(["fleet", "--policy", "packd"]) == 2
        assert "did you mean 'packed'" in capsys.readouterr().err

    def test_serving_search_table(self, capsys):
        code = main(
            [
                "optimize", "--kind", "serving", "--model", "llama3-70b",
                "--cluster", "h100x64", "--duration-s", "60",
                "--mean-rate-per-s", "1.0", "--replicas", "2",
                "--gpus-per-replica", "4", "--refine-top", "1",
                "--setpoint-tolerance", "0.2",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        header = next(i for i, line in enumerate(lines)
                      if line.split()[:1] == ["replicas"])
        assert lines[header].split() == [
            "replicas", "gpus_per_replica", "setpoint",
            "energy_per_token_j", "ttft_p99_s", "cost", "feasible",
        ]
        row = lines[header + 1].split()
        assert row[:2] == ["2", "4"]
        assert row[-1] == "yes"
        assert all(line.split()[:1] != ["config"] for line in lines)
        best = next(line for line in lines if line.startswith("best"))
        assert "2 replicas x 4 GPUs @ setpoint" in best

    def test_fleet_with_gpu_clock_limit(self, capsys):
        code = main(
            [
                "fleet", "--num-jobs", "2", "--gpu-clock-limit", "0.8",
            ]
        )
        assert code == 0
        assert "goodput" in capsys.readouterr().out

    def test_run_twice_hits_cache(self, capsys):
        from repro.core.sweep import clear_cache

        clear_cache()
        argv = [
            "run", "--model", "gpt3-13b", "--cluster", "mi250x32",
            "--parallelism", "TP4-PP2", "--global-batch", "16",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert second.splitlines()[:8] == first.splitlines()[:8]


def _option_strings(*command: str) -> set[str]:
    """Every option string of one (sub)command's parser."""
    import argparse

    parser = build_parser()
    for name in command:
        sub = next(
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        parser = sub.choices[name]
    return {
        option for action in parser._actions
        for option in action.option_strings
    }


def _training(**overrides):
    from repro.api import SimRequest

    fields = dict(
        model="gpt3-13b", cluster="mi250x32", parallelism="TP4-PP2",
        global_batch_size=16,
    )
    return SimRequest(**{**fields, **overrides})


def _serving(**serving):
    from repro.api import SimRequest

    return SimRequest(
        kind="serving", model="llama3-70b", cluster="h100x64",
        serving=serving,
    )


def _optimize(**overrides):
    from repro.api import OptimizeRequest

    return OptimizeRequest(model="gpt3-13b", cluster="mi250x32", **overrides)


def _recovery(**overrides):
    from repro.resilience.recovery import RecoveryConfig

    return RecoveryConfig(**overrides)


RUN = ["run", "--model", "gpt3-13b", "--cluster", "mi250x32",
       "--parallelism", "TP4-PP2", "--global-batch-size", "16"]
SERVE = ["run", "--kind", "serving", "--model", "llama3-70b",
         "--cluster", "h100x64"]
OPTIMIZE = ["optimize", "--model", "gpt3-13b", "--cluster", "mi250x32"]
RESILIENCE = ["resilience", "run", "--model", "gpt3-13b",
              "--cluster", "mi250x32", "--parallelism", "TP4-PP2"]

#: (command path, argv, the Python call that must fail the same way).
BAD_INPUTS = {
    "governor": (
        ("run",), RUN + ["--governor", "termal"],
        lambda: _training(governor="termal"),
    ),
    "interleaved-batch": (
        ("run",),
        RUN[:-1] + ["20", "--pipeline-schedule", "interleaved"],
        lambda: _training(
            global_batch_size=20, pipeline_schedule="interleaved"
        ),
    ),
    "seq-splits": (
        ("run",), RUN + ["--pipeline-schedule", "zb-h1", "--seq-splits", "2"],
        lambda: _training(pipeline_schedule="zb-h1", seq_splits=2),
    ),
    "fault-group": (
        ("run",), RUN + ["--fault-duration", "3"],
        lambda: _training(fault_duration=3.0),
    ),
    "fault-node": (
        ("run",), RUN + ["--fault-node", "9"],
        lambda: _training(fault_node=9),
    ),
    "sweep-schedule": (
        ("sweep",),
        ["sweep"] + RUN[1:] + ["--pipeline-schedule", "1f1b", "zb-h2"],
        lambda: _training(pipeline_schedule="zb-h2"),
    ),
    "trace-kind": (
        ("run",), SERVE + ["--trace", "diurnl"],
        lambda: _serving(trace={"kind": "diurnl"}),
    ),
    "scheduler": (
        ("run",), SERVE + ["--scheduler", "contnuous"],
        lambda: _serving(batcher={"scheduler": "contnuous"}),
    ),
    "serving-on-training": (
        ("run",), RUN + ["--replicas", "4"],
        lambda: _training(serving={"replicas": 4}),
    ),
    "beam-width": (
        ("optimize",), OPTIMIZE + ["--beam-width", "0"],
        lambda: _optimize(beam_width=0),
    ),
    "objective": (
        ("optimize",), OPTIMIZE + ["--objective", "enrgy"],
        lambda: _optimize(objective="enrgy"),
    ),
    "serving-grid": (
        ("optimize",), OPTIMIZE + ["--kind", "serving", "--schedules", "1f1b"],
        lambda: _optimize(kind="serving", schedules=("1f1b",)),
    ),
    "recovery-policy": (
        ("resilience", "run"), RESILIENCE + ["--policy", "elastik"],
        lambda: _recovery(policy="elastik"),
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_errors_name_this_commands_flags(case, capsys):
    import re

    command, argv, python_call = BAD_INPUTS[case]
    with pytest.raises(ValueError) as excinfo:
        python_call()
    python_message = str(excinfo.value)
    assert "--" not in python_message  # the Python API names fields
    assert main(argv) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ")
    message = err[len("error: "):]
    flags = re.findall(r"--[a-z][a-z0-9-]*", message)
    assert set(flags) <= _option_strings(*command)
    # Spelling the flags back as fields gives the Python message.
    assert re.sub(
        r"--([a-z][a-z0-9-]*)", lambda m: m[1].replace("-", "_"), message
    ) == python_message
    if "did you mean" in python_message:
        hint = python_message[python_message.index("did you mean"):]
        assert hint in message
