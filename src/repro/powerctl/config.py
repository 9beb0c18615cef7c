"""Power-control configuration: which governor runs, with what knobs.

A :class:`PowerControlConfig` travels inside
:class:`~repro.engine.simulator.SimSettings`, so it must stay a frozen,
hashable dataclass: the sweep cache (:func:`repro.core.sweep.freeze`)
derives both the in-memory memo key and the on-disk digest from it, and
the fleet simulator embeds it in :class:`~repro.datacenter.fleet.
FleetConfig`. The default (``governor="none"``) is a strict no-op: the
simulator never instantiates a runtime and the physics backends follow
exactly the pre-powerctl code path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.gpu import GPUSpec
from repro.power.model import FREQ_POWER_EXP

#: Governors the engine can run closed-loop, in-simulation.
GOVERNORS = ("none", "static", "thermal", "straggler")

#: ``energy_optimal`` is an *outer-loop* governor: a Zeus-style search
#: over static power limits, each probe one (cached) simulation,
#: implemented by :func:`repro.optimize.optimize_setpoint` on top of the
#: closed-loop set above.
SEARCH_GOVERNORS = GOVERNORS + ("energy_optimal",)


@dataclass(frozen=True)
class PowerControlConfig:
    """One governor and its tuning knobs.

    Attributes:
        governor: one of :data:`GOVERNORS`. ``"none"`` disables power
            control entirely (bit-identical to a run without it).
        freq_setpoint: ``static``: uniform clock-ratio ceiling applied
            to every GPU (1.0 = uncapped boost).
        gpu_freq_setpoints: ``static``: optional per-GPU ceilings in
            global-GPU order; overrides ``freq_setpoint`` when set.
        power_limit_w: ``static``: board power limit per GPU; converted
            to the clock ceiling that keeps a fully busy GPU at or
            under the limit (see :func:`freq_for_power_limit`).
            Overrides both setpoint fields when set.
        control_interval_s: how often closed-loop governors reconsider
            their setpoints (the Zeus poll/actuate cadence).
        thermal_margin_c: ``thermal``: target distance below the
            hardware throttle temperature. The governor backs the clock
            off *before* the reactive throttle point, avoiding the
            throttle/recover oscillation the hardware governor shows.
        thermal_gain_per_c: ``thermal``: setpoint step per degC above
            the margin target.
        recovery_step: ``thermal``: setpoint step back toward boost per
            control tick while comfortably below the target.
        straggler_slack_guard: ``straggler``: busy-fraction guard band
            kept above the measured duty cycle so a down-clocked rank
            never becomes the new critical path.
        min_setpoint: floor below which no governor pushes a clock.
    """

    governor: str = "none"
    freq_setpoint: float = 1.0
    gpu_freq_setpoints: tuple[float, ...] = ()
    power_limit_w: float | None = None
    control_interval_s: float = 0.5
    thermal_margin_c: float = 3.0
    thermal_gain_per_c: float = 0.02
    recovery_step: float = 0.02
    straggler_slack_guard: float = 0.1
    min_setpoint: float = 0.5

    def __post_init__(self) -> None:
        if self.governor not in GOVERNORS:
            from repro.suggest import unknown_name_message

            raise ValueError(
                unknown_name_message("governor", self.governor, GOVERNORS)
            )
        if not 0 < self.freq_setpoint <= 1.0:
            raise ValueError("freq_setpoint must be in (0, 1]")
        for value in self.gpu_freq_setpoints:
            if not 0 < value <= 1.0:
                raise ValueError("gpu_freq_setpoints must be in (0, 1]")
        if self.power_limit_w is not None and self.power_limit_w <= 0:
            raise ValueError("power_limit_w must be positive")
        if self.control_interval_s <= 0:
            raise ValueError("control_interval_s must be positive")
        if self.thermal_margin_c < 0:
            raise ValueError("thermal_margin_c must be >= 0")
        if self.thermal_gain_per_c <= 0 or self.recovery_step <= 0:
            raise ValueError("thermal gain/recovery steps must be positive")
        if not 0 <= self.straggler_slack_guard < 1.0:
            raise ValueError("straggler_slack_guard must be in [0, 1)")
        if not 0 < self.min_setpoint <= 1.0:
            raise ValueError("min_setpoint must be in (0, 1]")

    @property
    def active(self) -> bool:
        """Whether this config asks for any power control at all."""
        return self.governor != "none"


#: The do-nothing default every existing entry point keeps using.
NO_POWER_CONTROL = PowerControlConfig()


def static_setpoint(freq_setpoint: float, **kwargs) -> PowerControlConfig:
    """Shorthand for a uniform static clock ceiling."""
    return PowerControlConfig(
        governor="static", freq_setpoint=freq_setpoint, **kwargs
    )


def freq_for_power_limit(spec: GPUSpec, power_limit_w: float) -> float:
    """Clock ceiling that keeps a fully busy GPU at ``power_limit_w``.

    Inverts the board-power model ``P = idle + span * f ** 2.4`` at
    full activity intensity, the same conversion ``nvidia-smi -pl``
    effectively performs. Limits at or below idle power pin the clock
    to the base ratio; limits at or above TDP leave the GPU uncapped.
    """
    if power_limit_w <= 0:
        raise ValueError("power_limit_w must be positive")
    span = spec.tdp_watts - spec.idle_watts
    headroom = power_limit_w - spec.idle_watts
    if headroom <= 0:
        return spec.base_clock_ratio
    ratio = (headroom / span) ** (1.0 / FREQ_POWER_EXP)
    return min(1.0, max(spec.base_clock_ratio, ratio))
