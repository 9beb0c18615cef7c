"""Closed-loop governor runtimes driven by the simulator.

The engine instantiates one :class:`GovernorRuntime` per run (via
:func:`build_runtime`) and calls :meth:`GovernorRuntime.control` every
``control_interval_s`` of simulated time with a fresh
:class:`PowerCtlObservation` — the same temperature/clock/power/activity
view NVML gives a real userspace governor. The runtime answers with new
per-GPU clock *setpoints* (ceilings in global-GPU order) or ``None`` for
"hold". Setpoints are advisory ceilings: the physics backends clamp them
against the hardware throttle/power-cap machinery, so a governor can
never push a GPU past what the firmware would allow.

Every setpoint change is appended to a :class:`PowerControlTrace`, which
travels on :class:`~repro.engine.simulator.SimOutcome` for telemetry
export and the setpoint-vs-temperature figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hardware.cluster import ClusterSpec
from repro.powerctl.config import PowerControlConfig, freq_for_power_limit

#: Minimum setpoint movement worth acting on (and recording).
_EPS = 1e-9


@dataclass(frozen=True)
class PowerCtlObservation:
    """What a governor sees at one control tick.

    Attributes:
        time_s: simulated time of the tick.
        temps_c: per-GPU die temperatures (global-GPU order).
        freq_ratio: per-GPU current clock ratios.
        power_w: per-GPU board powers over the last physics step.
        busy_fraction: per-GPU compute duty cycle since the previous
            tick, or ``None`` when the governor did not ask for it.
        dt_s: time elapsed since the previous tick.
    """

    time_s: float
    temps_c: np.ndarray
    freq_ratio: np.ndarray
    power_w: np.ndarray
    busy_fraction: np.ndarray | None
    dt_s: float


@dataclass
class PowerControlTrace:
    """Setpoint timeline and decision log of one governed run.

    ``setpoints[i]`` holds every GPU's ceiling from ``times_s[i]`` until
    the next entry (step-wise, as a real governor actuates).
    """

    governor: str
    times_s: list[float] = field(default_factory=list)
    setpoints: list[tuple[float, ...]] = field(default_factory=list)
    decisions: list[str] = field(default_factory=list)

    def record(
        self, time_s: float, setpoints: np.ndarray, note: str
    ) -> None:
        """Append one actuation."""
        self.times_s.append(float(time_s))
        self.setpoints.append(tuple(float(v) for v in setpoints))
        self.decisions.append(note)

    def setpoint_series(self, gpu: int) -> tuple[np.ndarray, np.ndarray]:
        """One GPU's (times, setpoint) step series."""
        times = np.asarray(self.times_s, dtype=float)
        values = np.asarray([sp[gpu] for sp in self.setpoints], dtype=float)
        return times, values

    def setpoint_at(self, gpu: int, time_s: float) -> float:
        """The ceiling in force for ``gpu`` at ``time_s`` (1.0 before
        the first actuation)."""
        times, values = self.setpoint_series(gpu)
        index = int(np.searchsorted(times, time_s, side="right")) - 1
        return float(values[index]) if index >= 0 else 1.0


class GovernorRuntime:
    """Base class: holds the setpoint state and the trace."""

    #: Set by subclasses that need the compute duty cycle; the simulator
    #: only pays for the per-step accumulation when this is True.
    needs_busy_fraction = False
    #: Cleared by subclasses whose :meth:`control` always holds; the
    #: simulator then skips the per-step control tick.
    closed_loop = True

    def __init__(self, config: PowerControlConfig,
                 cluster: ClusterSpec) -> None:
        self.config = config
        self.cluster = cluster
        self.num_gpus = cluster.total_gpus
        self.setpoints = np.ones(self.num_gpus)
        self.trace = PowerControlTrace(governor=config.governor)

    def initial_setpoints(self) -> np.ndarray | None:
        """Setpoints to apply before the run starts (None = boost)."""
        return None

    def control(self, obs: PowerCtlObservation) -> np.ndarray | None:
        """New per-GPU setpoints for this tick, or ``None`` to hold."""
        raise NotImplementedError

    # -- helpers --------------------------------------------------------

    def _actuate(
        self, time_s: float, new: np.ndarray, note: str
    ) -> np.ndarray | None:
        """Adopt ``new`` if it moved; record the decision; return it."""
        if np.abs(new - self.setpoints).max() <= _EPS:
            return None
        self.setpoints = new
        self.trace.record(time_s, new, note)
        return new


class StaticGovernor(GovernorRuntime):
    """Fixed per-GPU clock/power cap, applied once at run start.

    The simulated analogue of ``nvidia-smi -lgc``/``-pl``: a power
    limit is converted to the clock ceiling that keeps a fully busy GPU
    at or under the limit.
    """

    closed_loop = False

    def __init__(self, config: PowerControlConfig,
                 cluster: ClusterSpec) -> None:
        super().__init__(config, cluster)
        gpu = cluster.node.gpu
        if config.power_limit_w is not None:
            value = freq_for_power_limit(gpu, config.power_limit_w)
            resolved = np.full(self.num_gpus, value)
            note = (
                f"t=0.00s static: power limit {config.power_limit_w:.0f} W "
                f"-> clock ceiling {value:.3f}"
            )
        elif config.gpu_freq_setpoints:
            if len(config.gpu_freq_setpoints) != self.num_gpus:
                raise ValueError(
                    f"gpu_freq_setpoints covers "
                    f"{len(config.gpu_freq_setpoints)} GPUs; cluster "
                    f"{cluster.name} has {self.num_gpus}"
                )
            resolved = np.asarray(config.gpu_freq_setpoints, dtype=float)
            note = (
                f"t=0.00s static: per-GPU ceilings "
                f"[{resolved.min():.3f}, {resolved.max():.3f}]"
            )
        else:
            resolved = np.full(self.num_gpus, config.freq_setpoint)
            note = (
                f"t=0.00s static: uniform clock ceiling "
                f"{config.freq_setpoint:.3f}"
            )
        self._resolved = resolved
        self._note = note

    def initial_setpoints(self) -> np.ndarray | None:
        return self._actuate(0.0, self._resolved, self._note)

    def control(self, obs: PowerCtlObservation) -> np.ndarray | None:
        return None  # nothing closed-loop about a static cap


class ThermalGovernor(GovernorRuntime):
    """Backs clocks off *before* the hardware throttle point.

    The reactive firmware governor lets the die cross
    ``throttle_temp_c`` and then oscillates (throttle, cool, recover,
    reheat). This governor regulates toward ``throttle_temp_c -
    thermal_margin_c`` instead: proportional backoff above the target,
    slow recovery once a full margin below it, so the die settles just
    under the throttle point without ever tripping it.
    """

    def control(self, obs: PowerCtlObservation) -> np.ndarray | None:
        config = self.config
        target = (
            self.cluster.node.gpu.throttle_temp_c - config.thermal_margin_c
        )
        excess = obs.temps_c - target
        sp = self.setpoints
        new = np.where(
            excess > 0,
            sp - config.thermal_gain_per_c * excess,
            np.where(
                obs.temps_c < target - config.thermal_margin_c,
                sp + config.recovery_step,
                sp,
            ),
        )
        new = np.clip(new, config.min_setpoint, 1.0)
        hot = int((excess > 0).sum())
        return self._actuate(
            obs.time_s,
            new,
            f"t={obs.time_s:.2f}s thermal: {hot} GPUs above "
            f"{target:.1f}C target, ceilings in "
            f"[{new.min():.3f}, {new.max():.3f}]",
        )


class StragglerGovernor(GovernorRuntime):
    """Down-clocks ranks whose pipeline slack absorbs the slowdown.

    A rank that computes only a fraction ``b`` of wall time (pipeline
    bubbles, rendezvous waits) can run its compute slower by up to
    ``1/b`` without moving the iteration's critical path. Each tick the
    governor measures the duty cycle since the last tick and steers
    every GPU's ceiling toward ``busy + guard`` (exponentially damped,
    so a rank that becomes critical recovers within a few ticks).
    """

    needs_busy_fraction = True

    #: Damping applied per tick toward the duty-cycle target.
    SMOOTHING = 0.5

    def control(self, obs: PowerCtlObservation) -> np.ndarray | None:
        if obs.busy_fraction is None:
            return None
        config = self.config
        target = np.clip(
            obs.busy_fraction + config.straggler_slack_guard,
            config.min_setpoint,
            1.0,
        )
        new = self.setpoints + self.SMOOTHING * (target - self.setpoints)
        new = np.clip(new, config.min_setpoint, 1.0)
        slacked = int((new < 1.0 - 1e-6).sum())
        return self._actuate(
            obs.time_s,
            new,
            f"t={obs.time_s:.2f}s straggler: {slacked} GPUs below boost, "
            f"min duty {obs.busy_fraction.min():.2f}",
        )


_RUNTIMES = {
    "static": StaticGovernor,
    "thermal": ThermalGovernor,
    "straggler": StragglerGovernor,
}


def build_runtime(
    config: PowerControlConfig, cluster: ClusterSpec
) -> GovernorRuntime | None:
    """Instantiate the runtime for ``config`` (None when inactive)."""
    if not config.active:
        return None
    return _RUNTIMES[config.governor](config, cluster)
