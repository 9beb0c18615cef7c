"""Characterisation tests: CLI ``--json`` output against the Python API.

Each test drives one command line through :func:`repro.cli.main` and
compares its JSON with the library call it stands for, value for
value, so a change to the command surface cannot change a number.
"""

from __future__ import annotations

import argparse
import dataclasses
import json

import pytest

from repro.api import SimRequest, submit, submit_many
from repro.cli import build_parser, main

SERVING = dict(model="llama3-70b", cluster="h100x64")
#: A short trace keeps each serving simulation to a fraction of a second.
SERVING_PARAMS = {"trace": {"duration_s": 120.0, "seed": 3}}


def _cli_json(capsys, argv: list[str]) -> dict:
    assert main(argv + ["--json"]) == 0
    return json.loads(capsys.readouterr().out)


class TestSetpointCommands:
    def test_setpoint_sweep_rows_equal_evaluate_setpoints(self, capsys):
        from repro.optimize import evaluate_setpoints

        payload = _cli_json(capsys, [
            "sweep", "--model", "gpt3-13b",
            "--cluster", "mi250x32", "--parallelism", "TP4-PP2",
            "--global-batch-size", "16", "--freq-setpoint", "0.8", "1.0",
        ])
        expected = evaluate_setpoints(
            "gpt3-13b", "mi250x32", "TP4-PP2", [0.8, 1.0],
            global_batch_size=16,
        )
        rows = sorted(payload["rows"], key=lambda row: row["setpoint"])
        assert len(rows) == len(expected)
        for row, (setpoint, result) in zip(rows, expected):
            eff = result.efficiency()
            stats = result.stats()
            assert row["setpoint"] == setpoint
            assert row["tokens_per_s"] == eff.tokens_per_s
            assert row["energy_j"] == eff.energy_j
            assert row["tokens_per_joule"] == eff.tokens_per_joule
            assert row["mean_freq_ratio"] == stats.mean_freq_ratio
            assert row["peak_temp_c"] == stats.peak_temp_c

    def test_pinned_plan_search_equals_optimize_setpoint(self, capsys):
        from repro.optimize import SearchSettings, optimize_setpoint

        payload = _cli_json(capsys, [
            "optimize", "--model", "gpt3-13b", "--cluster", "mi250x32",
            "--parallelisms", "TP4-PP2", "--microbatch-sizes", "1",
            "--schedules", "1f1b", "--global-batch-size", "16",
            "--objective", "energy", "--max-slowdown", "none",
            "--setpoint-tolerance", "0.1",
        ])
        expected = optimize_setpoint(
            "gpt3-13b", "mi250x32", "TP4-PP2",
            search=SearchSettings(
                edp_exponent=0.0, max_slowdown=None, tolerance=0.1
            ),
            global_batch_size=16,
        )
        assert payload["best"]["setpoint"] == expected.best.setpoint
        assert payload["best"]["energy_j"] == expected.best.energy_j
        assert expected.best.setpoint == pytest.approx(0.6157, abs=1e-4)
        assert expected.best.energy_j == pytest.approx(28171.6, abs=0.1)


class TestServingCommands:
    def test_serving_run_equals_submit(self, capsys):
        payload = _cli_json(capsys, [
            "run", "--kind", "serving", "--model", "llama3-70b",
            "--cluster", "h100x64", "--duration-s", "120", "--seed", "3",
            "--freq-setpoint", "0.8",
        ])
        request = SimRequest(
            kind="serving", freq_setpoint=0.8, serving=SERVING_PARAMS,
            **SERVING,
        )
        metrics = dataclasses.asdict(submit(request).metrics())
        assert {key: payload[key] for key in metrics} == metrics

    def test_serving_sweep_rows_equal_submit_many(self, capsys):
        payload = _cli_json(capsys, [
            "sweep", "--kind", "serving", "--model", "llama3-70b",
            "--cluster", "h100x64", "--duration-s", "120", "--seed", "3",
            "--freq-setpoint", "0.7", "1.0",
        ])
        outcomes = submit_many([
            SimRequest(
                kind="serving", freq_setpoint=setpoint,
                serving=SERVING_PARAMS, **SERVING,
            )
            for setpoint in (0.7, 1.0)
        ])
        rows = sorted(payload["rows"], key=lambda row: row["setpoint"])
        for row, setpoint, outcome in zip(rows, (0.7, 1.0), outcomes):
            metrics = dataclasses.asdict(outcome.metrics())
            assert row["setpoint"] == setpoint
            assert {key: row[key] for key in metrics} == metrics

    def test_serving_search_equals_optimize_serving_setpoint(self, capsys):
        from repro.inferserve import ServingConfig
        from repro.optimize import (
            ServingSearchSettings,
            optimize_serving_setpoint,
        )

        payload = _cli_json(capsys, [
            "optimize", "--kind", "serving", "--model", "llama3-70b",
            "--cluster", "h100x64", "--duration-s", "120", "--seed", "3",
            "--setpoint-lo", "0.6", "--setpoint-hi", "1.0",
        ])
        expected = optimize_serving_setpoint(
            "llama3-70b", "h100x64",
            ServingConfig.from_dict(SERVING_PARAMS),
            settings=ServingSearchSettings(lo=0.6, hi=1.0),
        )
        assert payload["best"]["setpoint"] == expected.best.setpoint


class TestResilienceCommands:
    def test_resilience_run_equals_simulate_recovery(self, capsys):
        from repro.resilience.recovery import (
            RecoveryConfig,
            simulate_recovery,
        )

        payload = _cli_json(capsys, [
            "resilience", "run", "--model", "gpt3-13b",
            "--cluster", "mi250x32", "--parallelism", "TP4-PP2",
            "--policy", "elastic", "--mtbf-s", "3600",
            "--repair-time-s", "600", "--seed", "2",
        ])
        run = simulate_recovery(
            "gpt3-13b", "mi250x32", "TP4-PP2",
            RecoveryConfig(
                policy="elastic", mtbf_s=3600.0, repair_time_s=600.0,
                seed=2,
            ),
            global_batch_size=16, microbatch_size=1,
        )
        assert payload["policy"] == "elastic"
        assert payload["makespan_s"] == run.makespan_s
        assert payload["goodput_fraction"] == run.goodput_fraction
        assert payload["energy_per_token_j"] == run.energy_per_token_j
        assert payload["faults_seen"] == run.faults_seen
        assert payload["lost"] == run.lost

    def test_resilience_fault_times_equal_simulate_recovery(self, capsys):
        from repro.resilience.recovery import (
            RecoveryConfig,
            simulate_recovery,
        )

        payload = _cli_json(capsys, [
            "resilience", "run", "--model", "gpt3-13b",
            "--cluster", "mi250x32", "--parallelism", "TP4-PP2",
            "--fault-times-s", "60", "120",
        ])
        run = simulate_recovery(
            "gpt3-13b", "mi250x32", "TP4-PP2",
            RecoveryConfig(fault_times_s=(60.0, 120.0)),
            global_batch_size=16, microbatch_size=1,
        )
        assert payload["faults_seen"] == run.faults_seen >= 1
        assert payload["makespan_s"] == run.makespan_s

    def test_resilience_sweep_rows_equal_sweep_mtbf(self, capsys):
        from repro.resilience.recovery import RecoveryConfig, sweep_mtbf

        payload = _cli_json(capsys, [
            "resilience", "sweep", "--model", "gpt3-13b",
            "--cluster", "mi250x32", "--parallelism", "TP4-PP2",
            "--mtbf-s", "1800", "3600",
            "--policy", "failstop", "elastic",
        ])
        rows = sweep_mtbf(
            "gpt3-13b", "mi250x32", "TP4-PP2", [1800.0, 3600.0],
            RecoveryConfig(), policies=("failstop", "elastic"),
            global_batch_size=16, microbatch_size=1,
        )
        expected = [
            row[policy] for row in rows for policy in ("failstop", "elastic")
        ]
        assert len(payload["rows"]) == len(expected)
        for got, run in zip(payload["rows"], expected):
            assert got["policy"] == run.policy
            assert got["mtbf_s"] == run.mtbf_s
            assert got["goodput_fraction"] == run.goodput_fraction
            assert got["makespan_s"] == run.makespan_s

    def test_resilience_mtbf_and_fault_times_are_exclusive(self, capsys):
        code = main([
            "resilience", "run", "--model", "gpt3-13b",
            "--cluster", "mi250x32", "--parallelism", "TP4-PP2",
            "--mtbf-s", "3600", "--fault-times-s", "60",
        ])
        assert code == 2
        assert "--mtbf-s and --fault-times-s are exclusive" in (
            capsys.readouterr().err
        )


#: The flags of the hand-declared service commands, as
#: ``(option strings, dest, default, nargs, type, choices, required,
#: action)``; they map onto ``BrokerConfig`` and worker options rather
#: than a request schema, so they are pinned here flag for flag.
SERVICE_FLAGS = {
    "serve": [
        (("--no-cache",), "no_cache", False, 0, None, None, False,
         "_StoreTrueAction"),
        (("--cache-dir",), "cache_dir", None, None, None, None, False,
         "_StoreAction"),
        (("--host",), "host", "127.0.0.1", None, None, None, False,
         "_StoreAction"),
        (("--port",), "port", 8053, None, "int", None, False,
         "_StoreAction"),
        (("--concurrency",), "concurrency", 2, None, "int", None, False,
         "_StoreAction"),
        (("--queue-limit",), "queue_limit", 16, None, "int", None, False,
         "_StoreAction"),
        (("--timeout-s",), "timeout_s", 300.0, None, "float", None, False,
         "_StoreAction"),
        (("--inline",), "inline", False, 0, None, None, False,
         "_StoreTrueAction"),
        (("--workers",), "workers", 0, None, "int", None, False,
         "_StoreAction"),
        (("--slo-target-s",), "slo_target_s", 0.0, None, "float", None,
         False, "_StoreAction"),
        (("--worker-listen",), "worker_listen", 0, None, "int", None,
         False, "_StoreAction"),
        (("--worker-authkey",), "worker_authkey", "", None, None, None,
         False, "_StoreAction"),
        (("--hedge-s",), "hedge_s", 0.0, None, "float", None, False,
         "_StoreAction"),
        (("--no-degraded",), "no_degraded", False, 0, None, None, False,
         "_StoreTrueAction"),
    ],
    "worker": [
        (("--connect",), "connect", None, None, None, None, True,
         "_StoreAction"),
        (("--authkey",), "authkey", None, None, None, None, True,
         "_StoreAction"),
        (("--no-reconnect",), "no_reconnect", False, 0, None, None, False,
         "_StoreTrueAction"),
        (("--retry-cap-s",), "retry_cap_s", 30.0, None, "float", None,
         False, "_StoreAction"),
        (("--max-retries",), "max_retries", -1, None, "int", None, False,
         "_StoreAction"),
    ],
    "chaos": [
        (("--json",), "as_json", False, 0, None, None, False,
         "_StoreTrueAction"),
        (("--no-cache",), "no_cache", False, 0, None, None, False,
         "_StoreTrueAction"),
        (("--cache-dir",), "cache_dir", None, None, None, None, False,
         "_StoreAction"),
        (("--scenario",), "scenario", None, None, None, None, False,
         "_AppendAction"),
        (("--list",), "list", False, 0, None, None, False,
         "_StoreTrueAction"),
        (("--seed",), "seed", 0, None, "int", None, False, "_StoreAction"),
        (("--requests",), "requests", 50, None, "int", None, False,
         "_StoreAction"),
        (("--workers",), "workers", 4, None, "int", None, False,
         "_StoreAction"),
        (("--out",), "out", None, None, None, None, False, "_StoreAction"),
    ],
    "cache": [
        (("--json",), "as_json", False, 0, None, None, False,
         "_StoreTrueAction"),
        (("--no-cache",), "no_cache", False, 0, None, None, False,
         "_StoreTrueAction"),
        (("--cache-dir",), "cache_dir", None, None, None, None, False,
         "_StoreAction"),
        ((), "action", "stats", "?", None, ("stats", "clear"), False,
         "_StoreAction"),
    ],
}


def _subparser(name: str) -> argparse.ArgumentParser:
    parser = build_parser()
    commands = next(
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return commands.choices[name]


@pytest.mark.parametrize("command", sorted(SERVICE_FLAGS))
def test_service_command_flags_are_unchanged(command):
    flags = [
        (
            tuple(action.option_strings), action.dest, action.default,
            action.nargs, getattr(action.type, "__name__", None),
            tuple(action.choices) if action.choices else None,
            action.required, type(action).__name__,
        )
        for action in _subparser(command)._actions
        if not isinstance(action, argparse._HelpAction)
    ]
    assert flags == SERVICE_FLAGS[command]


def test_worker_rejects_malformed_address(capsys):
    assert main(["worker", "--connect", "nohost", "--authkey", "k"]) == 2
    assert "HOST:PORT" in capsys.readouterr().err
