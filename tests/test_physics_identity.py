"""Bit-identity pins for the serial fast-path physics output.

``tests/test_schedule_identity.py`` pins kernel records and the summary
ratios, but not the sampled telemetry the thermal figures are built
from. The digests below extend that digest with every telemetry series
(power, temperature, clock, compute/comm utilisation, PCIe rate) and the
per-GPU fabric traffic, over canonical runs that between them walk every
branch of :class:`~repro.engine.physics.VectorPhysics`: the governor's
quiet path, static setpoint ceilings, a node power cap (cap factor and
floor clamp), a closed-loop governor re-actuating setpoints mid-run, and
transient budget/inlet faults.

They were captured before the physics stepper gained its lane axis, so
they prove the ``lanes=1`` path performs the same float operations. If a
deliberate physics change ever invalidates them, recapture them in the
same commit and say so in the message.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.experiment import execute_training
from repro.core.faults import FaultEvent, FaultKind, FaultSpec, FaultTimeline
from repro.engine.simulator import SimSettings
from repro.hardware.interconnect import LinkKind
from repro.powerctl import PowerControlConfig, static_setpoint
from tests.test_schedule_identity import outcome_digest

_SERIES = (
    "times_s", "power_w", "temp_c", "freq_ratio",
    "compute_util", "comm_util", "pcie_bytes_per_s",
)


def physics_digest(outcome) -> str:
    """:func:`outcome_digest` plus telemetry, traffic and powerctl."""
    h = hashlib.sha256(outcome_digest(outcome).encode())
    for gpu in range(outcome.telemetry.num_gpus):
        series = outcome.telemetry.series(gpu)
        for name in _SERIES:
            h.update(getattr(series, name).tobytes())
        h.update(repr(outcome.traffic.total_for(gpu)).encode())
        h.update(
            repr(
                [outcome.traffic.bytes_for(gpu, kind) for kind in LinkKind]
            ).encode()
        )
    if outcome.power_control is not None:
        h.update(
            repr(
                (
                    outcome.power_control.times_s,
                    outcome.power_control.setpoints,
                )
            ).encode()
        )
    return h.hexdigest()


CASES = {
    "default": SimSettings(),
    "static-0.75": SimSettings(power_control=static_setpoint(0.75)),
    "node-power-cap": SimSettings(
        faults=FaultSpec(node_power_cap_scale={1: 0.25})
    ),
    "thermal-governor": SimSettings(
        power_control=PowerControlConfig(
            governor="thermal",
            thermal_margin_c=25.0,
            control_interval_s=0.05,
        )
    ),
    "fault-timeline": SimSettings(
        fault_timeline=FaultTimeline(
            events=(
                FaultEvent(
                    kind=FaultKind.POWER_SAG, node=0, time_s=0.5,
                    duration_s=4.0, severity=0.25,
                ),
                FaultEvent(
                    kind=FaultKind.THERMAL_RUNAWAY, node=2, time_s=1.0,
                    duration_s=6.0, severity=25.0,
                ),
            )
        )
    ),
}

GOLDENS = {
    "default":
        "9e8e700aa6ebae4a8619db93fd0b2f693bd1d0ec0f74f18fead630309c1038f0",
    "fault-timeline":
        "a8a9e0f3b9d89faa27f094ce520d26f6015692a1ac0e1164669080ce8eecd783",
    "node-power-cap":
        "407e31605f031faa60c6b17e487bd9f7574d05601be76916272339d6978dcfe7",
    "static-0.75":
        "6db9d70fdba04b309da3042dff85f8267bafe3167690fb28c604a83530d863dc",
    "thermal-governor":
        "783c6538f3f3dd1b551577dfd596502d843b3b52b5226374d701294d199b2194",
}


def _run(settings: SimSettings):
    return execute_training(
        "gpt3-13b",
        "mi250x32",
        "TP4-PP2",
        microbatch_size=1,
        global_batch_size=8,
        iterations=2,
        settings=settings,
    ).outcome


@pytest.mark.parametrize("case", sorted(CASES))
def test_serial_physics_output_is_pinned(case):
    assert physics_digest(_run(CASES[case])) == GOLDENS[case]
