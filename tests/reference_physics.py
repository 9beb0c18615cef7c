"""Scalar reference physics: the oracle for the vectorized stepper.

One :class:`~repro.thermal.rc_model.NodeThermalState` and one
:class:`~repro.thermal.throttle.DvfsGovernor` per node, with board powers
from :func:`~repro.power.model.gpu_power`, stepped GPU by GPU in plain
Python. It shares no code with :class:`~repro.engine.physics.VectorPhysics`
beyond the hardware constants and the 2x2 propagator, so the two agree
only if the vector path's stacked arrays, cached equilibria, quiet-path
skip and lazily settled statistics are right. ``tests/test_engine_physics.py``
steps both on the same activity; ``benchmarks/test_perf_regression.py``
times the vector path against this one.
"""

from __future__ import annotations

import numpy as np

from repro.core.faults import FaultSpec
from repro.hardware.cluster import ClusterSpec
from repro.power.model import Activity, gpu_power
from repro.thermal.rc_model import NodeThermalState
from repro.thermal.throttle import DvfsGovernor


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
