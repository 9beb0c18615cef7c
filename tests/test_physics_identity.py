"""Bit-identity pins for the serial fast-path physics output.

``tests/test_schedule_identity.py`` pins kernel records and the summary
ratios, but not the sampled telemetry the thermal figures are built
from. The digests below extend that digest with every telemetry series
(power, temperature, clock, compute/comm utilisation, PCIe rate) and the
per-GPU fabric traffic, over canonical runs that between them walk every
branch of :class:`~repro.engine.physics.VectorPhysics`: the governor's
quiet path, static setpoint ceilings, a node power cap (cap factor and
floor clamp), closed-loop governors re-actuating setpoints mid-run (the
thermal one, and the straggler one with its busy-fraction input), and
transient faults of every kind. Two cases change the workload instead
of the settings (:data:`WORKLOADS`): a MoE run with expert all-to-alls,
and communication overlap with activation recompute.

The first five were captured before the physics stepper gained its lane
axis, so they prove the ``lanes=1`` path performs the same float
operations. If a deliberate physics change ever invalidates them,
recapture them in the same commit and say so in the message.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.experiment import execute_training
from repro.core.faults import FaultEvent, FaultKind, FaultSpec, FaultTimeline
from repro.engine.simulator import SimSettings
from repro.hardware.interconnect import LinkKind
from repro.parallelism.strategy import OptimizationConfig
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


def _fault(kind: FaultKind, **event) -> SimSettings:
    return SimSettings(
        fault_timeline=FaultTimeline(events=(FaultEvent(kind=kind, **event),))
    )


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
    "straggler-governor": SimSettings(
        power_control=PowerControlConfig(
            governor="straggler", control_interval_s=0.05
        )
    ),
    "moe-alltoall": SimSettings(),
    "cc-overlap-recompute": SimSettings(),
    "link-degrade": _fault(
        FaultKind.LINK_DEGRADE, node=1, time_s=0.2, duration_s=3.0,
        severity=0.2,
    ),
    "gpu-failstop": _fault(
        FaultKind.GPU_FAILSTOP, node=3, time_s=0.5, duration_s=1.0
    ),
    "ecc-stall": _fault(
        FaultKind.ECC_STALL, node=0, time_s=0.3, duration_s=2.0,
        severity=0.4,
    ),
}

#: ``execute_training`` overrides for the cases that vary the workload.
WORKLOADS = {
    "moe-alltoall": dict(model="mixtral-4x7b", parallelism="EP4-TP2-PP2"),
    "cc-overlap-recompute": dict(
        optimizations=OptimizationConfig(
            cc_overlap=True, activation_recompute=True
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
    "cc-overlap-recompute":
        "f4f34fe7a6d27f6c4a5ab6883bbda94d4d76c41d9d28ab0a55c5f3c0b390b4e5",
    "ecc-stall":
        "b7d0c742a834566e78241d8622e2d90972781fe904c30bfc4c8a11cf626718cc",
    "gpu-failstop":
        "55ea00ac8381f8a29e284b5cbd24a387bb65cc254c21d1f50c00764554a4f952",
    "link-degrade":
        "22db7015c2fbcfc71ea0f942390361a97d689d15ea19526447d937ea91629bc3",
    "moe-alltoall":
        "a8ddaae1ffd0feaa2d247581cfed23bf1c7857809de116cf3919b46f15e2b570",
    "straggler-governor":
        "fcb06f5f67edc06736083c3c6359b054e0e7cadfbd68be768c795fb020e15824",
}


def _run(case: str):
    kwargs = dict(
        model="gpt3-13b",
        cluster="mi250x32",
        parallelism="TP4-PP2",
        microbatch_size=1,
        global_batch_size=8,
        iterations=2,
    )
    kwargs.update(WORKLOADS.get(case, {}))
    return execute_training(**kwargs, settings=CASES[case]).outcome


@pytest.mark.parametrize("case", sorted(CASES))
def test_serial_physics_output_is_pinned(case):
    assert physics_digest(_run(case)) == GOLDENS[case]
