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

import numpy as np
import pytest
from hypothesis import example, given, settings as hyp_settings
from hypothesis import strategies as st

from repro.core.experiment import execute_training, prepare_run
from repro.core.faults import FaultEvent, FaultKind, FaultSpec, FaultTimeline
from repro.engine.physics import VectorPhysics
from repro.engine.simulator import SimSettings, Simulator
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


class _GeneralPhysics(VectorPhysics):
    """:class:`VectorPhysics` held to its general path on every step.

    A writeable copy of the powers never hits the equilibrium cache, an
    all-lanes ``active`` mask skips the quiet-step exit (and is a no-op
    on every float), and an unreachable node-cap bound runs the full cap
    arithmetic.
    """

    def step(self, dt_s, powers, active=None):
        if active is None:
            active = np.ones(self.lanes, dtype=bool)
        super().step(dt_s, powers.copy(), active)

    def _set_budget(self, budget):
        super()._set_budget(budget)
        self._uncapped_below_w = -np.inf


class _GeneralPathSimulator(Simulator):
    """The simulator on :class:`_GeneralPhysics`, rebuilding the
    telemetry's activity rows at every sample."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._physics = _GeneralPhysics(self.cluster, self.settings.faults)
        self._freq = self._physics.freq

    def _sample_telemetry(self, time_s):
        self._activity_rows = None
        super()._sample_telemetry(time_s)


def _timeline(kind: str | None) -> FaultTimeline:
    events = {
        None: (),
        "link_degrade": (FaultEvent(
            kind=FaultKind.LINK_DEGRADE, node=1, time_s=0.2,
            duration_s=1.5, severity=0.3,
        ),),
        "power_sag": (FaultEvent(
            kind=FaultKind.POWER_SAG, node=0, time_s=0.3, duration_s=1.2,
            severity=0.3,
        ),),
        "thermal_runaway": (FaultEvent(
            kind=FaultKind.THERMAL_RUNAWAY, node=1, time_s=0.1,
            duration_s=2.0, severity=30.0,
        ),),
    }[kind]
    return FaultTimeline(events=events)


_STATIC_FAULTS = {
    None: FaultSpec(),
    "power_cap": FaultSpec(node_power_cap_scale={0: 0.5}),
    "pinned_clock": FaultSpec(node_max_clock={1: 0.8}),
}


def _power_control(governor: str, setpoint: float,
                   interval: float) -> PowerControlConfig:
    if governor == "none":
        return PowerControlConfig()
    if governor == "static":
        return static_setpoint(setpoint, control_interval_s=interval)
    return PowerControlConfig(governor=governor, control_interval_s=interval)


class TestShortcutsAreExact:
    """The physics shortcuts change no bit of a run.

    The quiet-step exit, the equilibrium cache, the node-cap bound and
    the per-refresh telemetry rows against :class:`_GeneralPathSimulator`
    on the same graph: every field of :class:`SimOutcome` must be equal.
    """

    @hyp_settings(max_examples=12, deadline=None)
    @given(
        cluster=st.sampled_from(["mi250x32", "h100x64", "h200x32"]),
        governor=st.sampled_from(["none", "static", "thermal", "straggler"]),
        setpoint=st.sampled_from([1.0, 0.9, 0.8]),
        # Governor ticks that land inside runs of held steps.
        control_interval=st.sampled_from([0.15, 0.35]),
        static_fault=st.sampled_from(sorted(_STATIC_FAULTS, key=str)),
        timeline=st.sampled_from(
            [None, "link_degrade", "power_sag", "thermal_runaway"]
        ),
        # Sampling off the 0.05 s physics grid, and on it.
        telemetry_interval=st.sampled_from([0.1, 0.07, 0.13]),
    )
    # h200x32 at setpoint 1.0 with a hot inlet throttles: its dies cross
    # the throttle point during quiet steps, which must still run the
    # governor chain.
    @example(cluster="h200x32", governor="static", setpoint=1.0,
             control_interval=0.35, static_fault=None,
             timeline="thermal_runaway", telemetry_interval=0.07)
    # A binding node cap on h100x64.
    @example(cluster="h100x64", governor="none", setpoint=1.0,
             control_interval=0.15, static_fault="power_cap",
             timeline="power_sag", telemetry_interval=0.13)
    def test_matches_general_path(self, cluster, governor, setpoint,
                                  control_interval, static_fault,
                                  timeline, telemetry_interval):
        run = prepare_run(
            "gpt3-13b", cluster, "TP4-PP2", global_batch_size=8
        )
        settings = SimSettings(
            telemetry_interval_s=telemetry_interval,
            faults=_STATIC_FAULTS[static_fault],
            power_control=_power_control(
                governor, setpoint, control_interval
            ),
            fault_timeline=_timeline(timeline),
        )
        shipped = Simulator(run.mesh, run.graph, settings).run()
        general = _GeneralPathSimulator(run.mesh, run.graph, settings).run()
        assert shipped == general
