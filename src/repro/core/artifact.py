"""Artifact-style results directory writer.

The paper's artifact stores each experiment's outputs as system-telemetry
CSV files, Chakra traces, and summary metadata under ``results/<run>/``.
:func:`write_run_artifact` reproduces that layout for a simulated run so
the same downstream analysis/visualisation scripts can consume either.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.results import RunResult
from repro.telemetry.export import write_telemetry_csv
from repro.trace.export import write_trace_csv


def run_summary(result: RunResult) -> dict:
    """JSON-serialisable summary of one run's headline metrics (a fresh
    copy of :meth:`RunResult.summary`, computed once per result)."""
    return result.summary()


def write_run_artifact(result: RunResult, directory: str | Path) -> Path:
    """Write one run's telemetry, trace, and summary to ``directory``.

    Produces::

        <directory>/
          summary.json     headline metrics (see :func:`run_summary`)
          telemetry.csv    per-GPU sampled time series
          trace.csv        Chakra-style kernel records (measured window)
          powerctl.csv     governor setpoint/decision trace (only when
                           the run had power control enabled)
          faults.csv       fault transitions and hang detections (only
                           when the run had a fault timeline)

    Returns the directory path.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with (directory / "summary.json").open("w") as handle:
        json.dump(run_summary(result), handle, indent=2)
    write_telemetry_csv(
        result.outcome.telemetry, directory / "telemetry.csv"
    )
    write_trace_csv(result.measured_records(), directory / "trace.csv")
    if result.outcome.power_control is not None:
        from repro.telemetry.export import write_powerctl_csv

        write_powerctl_csv(
            result.outcome.power_control, directory / "powerctl.csv"
        )
    if result.outcome.fault_trace is not None:
        from repro.telemetry.export import write_fault_trace_csv

        write_fault_trace_csv(
            result.outcome.fault_trace, directory / "faults.csv"
        )
    return directory


def read_run_summary(directory: str | Path) -> dict:
    """Read back the ``summary.json`` of a written artifact."""
    with (Path(directory) / "summary.json").open() as handle:
        return json.load(handle)
