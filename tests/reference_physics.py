"""Scalar reference physics: the oracle for the vectorized stepper.

One :class:`NodeThermalState` (two-node RC model of a node's GPUs) and
one :class:`DvfsGovernor` per node, with board powers from
:func:`~repro.power.model.gpu_power`, stepped GPU by GPU in plain
Python. It shares no code with :class:`~repro.engine.physics.VectorPhysics`
beyond the hardware constants, the throttle constants and the 2x2
propagator, so the two agree only if the vector path's stacked arrays,
cached equilibria, quiet-path skip and lazily settled statistics are
right. ``tests/test_engine_physics.py`` steps both on the same activity;
``tests/test_thermal.py`` tests the scalar model on its own;
``benchmarks/test_perf_regression.py`` times the vector path against
this one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.faults import FaultSpec
from repro.engine.physics import (
    HYSTERESIS_C,
    RECOVERY_STEP,
    THROTTLE_GAIN_PER_C,
    _expm_2x2,
    _system_matrix,
)
from repro.hardware.cluster import ClusterSpec
from repro.hardware.node import NodeSpec
from repro.power.model import Activity, gpu_power
from repro.units import clamp


@dataclass
class NodeThermalState:
    """Die and heatsink temperatures of one node's GPUs.

    Each GPU's die and heatsink form the 2x2 linear system of
    :func:`~repro.engine.physics._system_matrix`; the heatsink
    discharges into the GPU's inlet air, which is the ambient plus its
    chassis-position offset plus preheat from upstream GPUs:
    ``T_inlet_i = ambient + offset_i + k * sum_{j in upstream(i)} P_j``.
    Each step applies the exact matrix-exponential propagator, cached
    per distinct dt.

    Attributes:
        node: hardware description.
        temps_c: current *die* temperatures (what NVML reports and the
            governor throttles on).
        sink_temps_c: current heatsink temperatures.
    """

    node: NodeSpec
    temps_c: list[float] = field(default_factory=list)
    sink_temps_c: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        idle = [
            self.node.ambient_c + offset
            for offset in self.node.airflow.inlet_offset_c
        ]
        if not self.temps_c:
            self.temps_c = list(idle)
        if not self.sink_temps_c:
            self.sink_temps_c = list(self.temps_c)
        for label, values in (
            ("temps_c", self.temps_c),
            ("sink_temps_c", self.sink_temps_c),
        ):
            if len(values) != self.node.gpus_per_node:
                raise ValueError(f"{label} must cover every GPU in the node")
        self._matrix = _system_matrix(self.node)
        self._propagators: dict[float, np.ndarray] = {}
        # Effective ambient: the room temperature plus any transient
        # offset (thermal-runaway fault injection). Defaults to the
        # spec's ambient, so the healthy path reads the same float.
        self._ambient_c = self.node.ambient_c

    # ------------------------------------------------------------------

    def inlet_temps(self, powers_w: list[float]) -> list[float]:
        """Per-GPU inlet air temperature given current board powers."""
        airflow = self.node.airflow
        inlets = []
        for i in range(self.node.gpus_per_node):
            preheat = airflow.preheat_c_per_w * sum(
                powers_w[j] for j in airflow.upstream[i]
            )
            inlets.append(
                self._ambient_c + airflow.inlet_offset_c[i] + preheat
            )
        return inlets

    def set_ambient_offset(self, delta_c: float) -> None:
        """Shift the effective ambient by ``delta_c`` (0 restores it).

        Models a transient airflow/cooling fault: every inlet in the
        node sees hotter air until the offset is cleared.
        """
        self._ambient_c = self.node.ambient_c + delta_c

    def equilibrium_temps(self, powers_w: list[float]) -> list[float]:
        """Steady-state die temperatures for constant ``powers_w``."""
        self._check_powers(powers_w)
        r_total = self.node.gpu.thermal_resistance_c_per_w
        inlets = self.inlet_temps(powers_w)
        return [
            inlet + power * r_total
            for inlet, power in zip(inlets, powers_w)
        ]

    def equilibrium_sink_temps(self, powers_w: list[float]) -> list[float]:
        """Steady-state heatsink temperatures for constant powers."""
        self._check_powers(powers_w)
        gpu = self.node.gpu
        r_sa = gpu.thermal_resistance_c_per_w - gpu.die_resistance_c_per_w
        inlets = self.inlet_temps(powers_w)
        return [
            inlet + power * r_sa for inlet, power in zip(inlets, powers_w)
        ]

    def set_equilibrium(self, powers_w: list[float]) -> None:
        """Jump both thermal nodes to the steady state of ``powers_w``."""
        self.temps_c = self.equilibrium_temps(powers_w)
        self.sink_temps_c = self.equilibrium_sink_temps(powers_w)

    def step(self, dt_s: float, powers_w: list[float]) -> list[float]:
        """Advance by ``dt_s`` under constant powers; return die temps."""
        if dt_s < 0:
            raise ValueError("dt must be non-negative")
        self._check_powers(powers_w)
        if dt_s == 0:
            return list(self.temps_c)

        propagator = self._propagators.get(dt_s)
        if propagator is None:
            propagator = _expm_2x2(self._matrix, dt_s)
            self._propagators[dt_s] = propagator

        die_eq = np.array(self.equilibrium_temps(powers_w))
        sink_eq = np.array(self.equilibrium_sink_temps(powers_w))
        state = np.column_stack((self.temps_c, self.sink_temps_c))
        equilibrium = np.column_stack((die_eq, sink_eq))
        state = equilibrium + (state - equilibrium) @ propagator.T
        self.temps_c = state[:, 0].tolist()
        self.sink_temps_c = state[:, 1].tolist()
        return list(self.temps_c)

    def front_rear_gap(self) -> float:
        """Mean rear-half minus mean front-half die temperature (degC).

        "Front" and "rear" are derived from airflow depth; positive values
        mean rear GPUs run hotter, the paper's persistent imbalance.
        """
        depths = [
            self.node.depth_of(i) for i in range(self.node.gpus_per_node)
        ]
        median = sorted(depths)[len(depths) // 2]
        front = [t for t, d in zip(self.temps_c, depths) if d < median]
        rear = [t for t, d in zip(self.temps_c, depths) if d >= median]
        if not front or not rear:
            return 0.0
        return sum(rear) / len(rear) - sum(front) / len(front)

    def _check_powers(self, powers_w: list[float]) -> None:
        if len(powers_w) != self.node.gpus_per_node:
            raise ValueError("powers_w must cover every GPU in the node")
        if any(p < 0 for p in powers_w):
            raise ValueError("powers must be non-negative")


@dataclass
class GovernorStats:
    """Accumulated throttling statistics for one GPU."""

    throttled_time_s: float = 0.0
    observed_time_s: float = 0.0
    freq_time_integral: float = 0.0  # integral of freq_ratio over time

    @property
    def throttle_ratio(self) -> float:
        """Fraction of observed time spent below nominal clock."""
        if self.observed_time_s == 0:
            return 0.0
        return self.throttled_time_s / self.observed_time_s

    @property
    def mean_freq_ratio(self) -> float:
        """Time-weighted mean clock ratio."""
        if self.observed_time_s == 0:
            return 1.0
        return self.freq_time_integral / self.observed_time_s


@dataclass
class DvfsGovernor:
    """Per-node clock governor: thermal throttling and node power capping.

    A die above its throttle temperature steps its clock down in
    proportion to the excess; below the threshold minus a hysteresis
    band the clock recovers gradually. A node over its chassis budget
    scales every GPU in it down first. Per-GPU statistics keep the
    throttled time and the clock integral.

    Attributes:
        node: hardware description (throttle points, power cap).
        freq_ratios: current clock ratio per GPU, 1.0 = boost.
        power_cap_scale: fault-injection multiplier on the chassis power
            budget (a node-level power failure collapses it).
        max_clock: fault-injection ceiling on the clock ratio.
        setpoints: optional per-GPU clock ceilings requested by a
            :mod:`repro.powerctl` governor; None (the default) keeps
            the pre-powerctl update arithmetic untouched.
    """

    node: NodeSpec
    freq_ratios: list[float] = field(default_factory=list)
    stats: list[GovernorStats] = field(default_factory=list)
    power_cap_scale: float = 1.0
    max_clock: float = 1.0
    setpoints: list[float] | None = None

    def __post_init__(self) -> None:
        count = self.node.gpus_per_node
        if not self.freq_ratios:
            self.freq_ratios = [1.0] * count
        if len(self.freq_ratios) != count:
            raise ValueError("freq_ratios must cover every GPU")
        if not self.stats:
            self.stats = [GovernorStats() for _ in range(count)]

    def update(
        self, dt_s: float, temps_c: list[float], powers_w: list[float]
    ) -> list[float]:
        """Advance the governor by ``dt_s`` and return new clock ratios.

        Args:
            dt_s: elapsed time the given temperatures/powers were held.
            temps_c: die temperatures at the end of the interval.
            powers_w: board powers during the interval (for the node cap).
        """
        if dt_s < 0:
            raise ValueError("dt must be non-negative")
        gpu = self.node.gpu
        if len(temps_c) != self.node.gpus_per_node:
            raise ValueError("temps_c must cover every GPU")

        # Node power cap: uniform scaling factor if the chassis exceeds
        # its budget. Applied before per-GPU thermal decisions. Fault
        # injection can shrink the budget (node power failure).
        budget = self.node.node_power_cap_watts * self.power_cap_scale
        total_power = sum(powers_w)
        cap_scale = 1.0
        if total_power > budget:
            cap_scale = budget / total_power

        for i, temp in enumerate(temps_c):
            ratio = self.freq_ratios[i]
            if temp > gpu.throttle_temp_c:
                excess = temp - gpu.throttle_temp_c
                ratio -= THROTTLE_GAIN_PER_C * excess
            elif temp < gpu.throttle_temp_c - HYSTERESIS_C:
                ratio += RECOVERY_STEP
            ratio *= cap_scale
            ceiling = min(1.0, self.max_clock)
            if self.setpoints is not None:
                ceiling = min(ceiling, self.setpoints[i])
            floor = min(gpu.base_clock_ratio * self.power_cap_scale
                        if self.power_cap_scale < 1.0
                        else gpu.base_clock_ratio, ceiling)
            ratio = clamp(ratio, floor, ceiling)
            self.freq_ratios[i] = ratio

            stat = self.stats[i]
            stat.observed_time_s += dt_s
            stat.freq_time_integral += ratio * dt_s
            if ratio < 1.0 - 1e-9:
                stat.throttled_time_s += dt_s
        return list(self.freq_ratios)

    def freq_of(self, local_gpu: int) -> float:
        """Current clock ratio of one GPU."""
        return self.freq_ratios[local_gpu]

    def throttle_ratios(self) -> list[float]:
        """Per-GPU fraction of time spent throttled (heatmap rows)."""
        return [s.throttle_ratio for s in self.stats]


def bursty_activity(rng: np.random.Generator, steps: int,
                    num_gpus: int) -> np.ndarray:
    """Per-step compute/comm/memory levels, ``(steps, 3, num_gpus)``.

    Levels hold for runs of steps, as kernels start and finish far less
    often than the physics steps, and each change draws a busy or an
    idle phase for the whole cluster, so the governor both throttles and
    sits quiet. Levels above 1 stand for stacked kernels and are clamped
    by both steppers.
    """
    levels = np.empty((steps, 3, num_gpus))
    current = None
    for j in range(steps):
        if current is None or rng.random() < 0.08:
            if rng.random() < 0.6:
                current = rng.choice([0.5, 1.0, 1.5], size=(3, num_gpus),
                                     p=[0.2, 0.6, 0.2])
            else:
                current = rng.choice([0.0, 0.25], size=(3, num_gpus))
        levels[j] = current
    return levels


def _unit(value: float) -> float:
    return min(1.0, max(0.0, float(value)))


class ReferencePhysics:
    """Per-node thermal state and governor objects, Python loops."""

    def __init__(self, cluster: ClusterSpec, faults: FaultSpec) -> None:
        self.cluster = cluster
        node = cluster.node
        self._g = node.gpus_per_node
        self.thermal = [
            NodeThermalState(node) for _ in range(cluster.num_nodes)
        ]
        self.governors = [
            DvfsGovernor(
                node,
                power_cap_scale=faults.power_cap_scale(i),
                max_clock=faults.max_clock(i),
            )
            for i in range(cluster.num_nodes)
        ]
        # Static (whole-run) cap scales, kept so transient sags compose
        # multiplicatively with them and clear back to exactly this.
        self._static_cap_scale = [
            faults.power_cap_scale(i) for i in range(cluster.num_nodes)
        ]

    def prewarm(self, power_w: float) -> None:
        """Jump every node to the steady state of a uniform power draw."""
        for thermal in self.thermal:
            thermal.set_equilibrium([power_w] * self._g)

    def step(self, dt_s: float, compute, comm, memory) -> list[float]:
        """Advance thermal + governor state by one step.

        Args:
            dt_s: integration step.
            compute, comm, memory: per-GPU activity levels in global-GPU
                order, clamped to ``[0, 1]`` like the simulator's.

        Returns:
            The per-GPU board powers held over the step.
        """
        gpu_spec = self.cluster.node.gpu
        all_powers: list[float] = []
        for node_idx, (thermal, governor) in enumerate(
            zip(self.thermal, self.governors)
        ):
            powers = []
            for local in range(self._g):
                gpu = node_idx * self._g + local
                activity = Activity(
                    compute=_unit(compute[gpu]),
                    comm=_unit(comm[gpu]),
                    memory=_unit(memory[gpu]),
                )
                powers.append(
                    gpu_power(gpu_spec, activity, governor.freq_of(local))
                )
            temps = thermal.step(dt_s, powers)
            governor.update(dt_s, temps, powers)
            all_powers.extend(powers)
        return all_powers

    def set_setpoints(self, setpoints) -> None:
        """Apply per-GPU clock ceilings (global-GPU order)."""
        flat = [float(v) for v in np.asarray(setpoints).reshape(-1)]
        for i, governor in enumerate(self.governors):
            governor.setpoints = flat[i * self._g:(i + 1) * self._g]

    def set_node_budget_scales(self, scales) -> None:
        """Apply transient per-node power-budget multipliers.

        Composes with the static :class:`FaultSpec` cap; a scale of 1.0
        restores the governor to exactly its whole-run value.
        """
        for i, governor in enumerate(self.governors):
            governor.power_cap_scale = (
                self._static_cap_scale[i] * float(scales[i])
            )

    def set_ambient_offsets(self, offsets) -> None:
        """Apply transient per-node inlet/ambient offsets (degC)."""
        for thermal, delta in zip(self.thermal, offsets):
            thermal.set_ambient_offset(float(delta))

    @property
    def die_c(self) -> np.ndarray:
        """Die temperatures, ``(num_nodes, gpus_per_node)``."""
        return np.array([thermal.temps_c for thermal in self.thermal])

    @property
    def sink_c(self) -> np.ndarray:
        """Heatsink temperatures, ``(num_nodes, gpus_per_node)``."""
        return np.array([thermal.sink_temps_c for thermal in self.thermal])

    @property
    def freq(self) -> np.ndarray:
        """Clock ratios, ``(num_nodes, gpus_per_node)``."""
        return np.array([gov.freq_ratios for gov in self.governors])

    def throttle_ratios(self) -> list[float]:
        """Per-GPU fraction of observed time spent throttled."""
        return [r for gov in self.governors for r in gov.throttle_ratios()]

    def mean_freq_ratios(self) -> list[float]:
        """Per-GPU time-weighted mean clock ratio."""
        return [
            s.mean_freq_ratio for gov in self.governors for s in gov.stats
        ]
