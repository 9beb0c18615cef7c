"""Physics: thermal + DVFS co-simulation of the whole cluster.

The simulator integrates one RC thermal model and one DVFS governor per
node at a fixed step. :class:`VectorPhysics` (with :class:`PowerVector`
for board powers) stacks that state into ``(lanes, num_nodes,
gpus_per_node)`` numpy arrays and advances it with a handful of
vectorized operations per step: inlet temperatures via a precomputed
upstream-airflow matrix, the exact 2x2 matrix-exponential propagator
applied to every (die, heatsink) pair at once, and a vectorized governor
(power cap, throttle, recovery, clamp). Clock exponentiation
(``freq ** 2.4``, the single most expensive scalar in the loop) is
cached per GPU and recomputed only where the clock actually changed
since the previous step.

Each lane is an independent copy of the cluster. Per lane: die and
heatsink temperatures, clocks, setpoint ceilings and floors, the prewarm
power, the governor's quiet-path flag, the observed time and the pending
stats hold (with the throttle/clock integrals). Shared by all lanes: the
hardware, the fault knobs (node budgets, clock limits, inlet offsets)
and the propagator cache, whose default-step entry every instance of
the same GPU thermals shares. The simulator steps one lane;
:mod:`repro.engine.batched` steps one lane per replayed config, with an
``active`` mask that freezes lanes whose run has ended.

This is the package's one per-GPU thermal/DVFS state: the simulator
and the static replica router (:mod:`repro.inferserve.static_router`)
both step it. Its scalar statement, one two-node RC state and one
governor per node stepped GPU by GPU, is the test oracle
``tests/reference_physics.py``: ``tests/test_engine_physics.py`` steps
both on the same activity and requires agreement to floating-point
reduction noise; ``tests/test_physics_identity.py`` pins the
simulator's physics output bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.core.faults import FaultSpec
from repro.hardware.cluster import ClusterSpec
from repro.hardware.node import NodeSpec
from repro.power.model import (
    COMM_INTENSITY,
    COMPUTE_INTENSITY,
    FREQ_POWER_EXP,
    MEMORY_INTENSITY,
)

# Governor: clock step per update when above the throttle temperature,
# per degC of excess, and the recovery step once the die is below the
# throttle point minus the hysteresis band.
THROTTLE_GAIN_PER_C = 0.03
RECOVERY_STEP = 0.05
HYSTERESIS_C = 3.0

#: The equilibrium cache before any step and after a knob changed: its
#: key matches no powers array.
_NO_EQUILIBRIUM = (None, None, None, None, None)

#: ``_amax(a, None)`` is ``a.max()`` without the method's Python-level
#: argument handling, which costs as much as the reduction at this size.
_amax = np.maximum.reduce

#: The simulator's default integration step (``SimSettings.physics_dt_s``).
DEFAULT_STEP_S = 0.05

#: Default-step propagator columns per node hardware (the bytes of its
#: thermal system matrix); any other step, such as a run's final partial
#: step, stays per instance. :func:`repro.core.sweep.clear_cache` empties it.
STEP_PROPAGATORS: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}


def _system_matrix(node: NodeSpec) -> np.ndarray:
    """State matrix A of d[T_die, T_sink]/dt = A x + b(u).

    Each GPU is two thermal nodes: the die (small capacity, ~1 s
    response) coupled through the die/TIM resistance to the heatsink
    (large capacity, ~1 min response), which discharges into the GPU's
    local inlet air.
    """
    gpu = node.gpu
    r_ds = gpu.die_resistance_c_per_w
    r_sa = gpu.thermal_resistance_c_per_w - r_ds
    c_die = gpu.die_capacitance_j_per_c
    c_sink = gpu.thermal_capacitance_j_per_c
    return np.array(
        [
            [-1.0 / (r_ds * c_die), 1.0 / (r_ds * c_die)],
            [
                1.0 / (r_ds * c_sink),
                -(1.0 / r_ds + 1.0 / r_sa) / c_sink,
            ],
        ]
    )


def _expm_2x2(matrix: np.ndarray, dt: float) -> np.ndarray:
    """exp(A * dt) for a diagonalisable real 2x2 matrix."""
    eigenvalues, eigenvectors = np.linalg.eig(matrix * dt)
    return np.real(
        eigenvectors @ np.diag(np.exp(eigenvalues))
        @ np.linalg.inv(eigenvectors)
    )


class VectorPhysics:
    """Vectorized backend: the whole cluster stepped as stacked arrays.

    State carries a leading lane axis (see the module docstring for what
    is per lane). Every operation is elementwise per lane (the airflow
    matmul evaluates each lane's rows through the same dgemm), so lane
    ``i`` of an ``L``-lane instance is bit-identical to a one-lane
    instance fed lane ``i``'s inputs.
    """

    def __init__(
        self, cluster: ClusterSpec, faults: FaultSpec, lanes: int = 1
    ) -> None:
        self.cluster = cluster
        node = cluster.node
        gpu = node.gpu
        n, g = cluster.num_nodes, node.gpus_per_node
        self._n, self._g = n, g
        self.lanes = lanes
        self._shape = (lanes, n, g)

        # Airflow: inlet_i = ambient + offset_i + k * sum_{j up(i)} P_j,
        # expressed as a per-node (g, g) upstream matrix shared by all
        # nodes (identical hardware).
        upstream = np.zeros((g, g))
        for i, sources in enumerate(node.airflow.upstream):
            for j in sources:
                upstream[i, j] = 1.0
        self._preheat_matrix = node.airflow.preheat_c_per_w * upstream
        self._inlet_base = node.ambient_c + np.asarray(
            node.airflow.inlet_offset_c, dtype=float
        )

        # Die and heatsink temperatures are one stacked (2, lanes, n, g)
        # array, so each thermal operation covers both nodes of the RC
        # pair; the equilibrium offsets over the inlet are P * R.
        r_total = gpu.thermal_resistance_c_per_w
        r_sink_air = r_total - gpu.die_resistance_c_per_w
        self._r_pair = np.array([r_total, r_sink_air]).reshape(2, 1, 1, 1)
        self._matrix = _system_matrix(node)
        self._propagators: dict[float, tuple[np.ndarray, np.ndarray]] = {}
        self._eq_cache = _NO_EQUILIBRIUM
        self._temps = np.broadcast_to(
            self._inlet_base, (2,) + self._shape
        ).copy()

        # Governor state per lane; fault knobs are per node and shared
        # by every lane. ``freq`` is replaced, never written in place.
        self.freq = np.ones(self._shape)
        self._freq_flat = (None, None)
        self._cap_scale = np.array(
            [faults.power_cap_scale(i) for i in range(n)]
        )
        self._set_budget(node.node_power_cap_watts * self._cap_scale)
        self._uncapped = np.zeros(lanes, dtype=bool)
        max_clock = np.array([faults.max_clock(i) for i in range(n)])
        self._ceiling = np.minimum(1.0, max_clock)[:, None]
        floor = np.where(
            self._cap_scale < 1.0,
            gpu.base_clock_ratio * self._cap_scale,
            gpu.base_clock_ratio,
        )
        self._floor = np.minimum(floor[:, None], self._ceiling)
        # Powerctl setpoints overlay *effective* ceilings. Until a
        # governor actuates these alias the hardware arrays, so the
        # no-powerctl path performs bit-identical float operations.
        self._eff_ceiling = self._ceiling
        self._eff_floor = self._floor
        self._throttle_temp = gpu.throttle_temp_c

        self.throttled_time = np.zeros(self._shape)
        self.freq_integral = np.zeros(self._shape)
        # Governor quiet path, per lane: while every clock sits at its
        # ceiling, no node is power-capped and no die is above the
        # throttle point, the full where/clip chain is a no-op and is
        # skipped. _may_move marks lanes that must take the full chain
        # (a clock off its ceiling, or a knob changed since); _settled
        # says, as one Python bool, that it marks none.
        self._may_move = np.ones(lanes, dtype=bool)
        self._settled = False
        self._throttled_mask = np.zeros(self._shape, dtype=bool)
        # Per-lane time accumulators, (2, lanes, 1, 1) so they scale
        # lane arrays directly: row 0 is the observed time, row 1 the
        # pending constant-clock hold. Per-GPU stats accrue lazily:
        # while a lane's clocks hold still only its hold advances, and
        # the array integrals are settled when the clocks move or the
        # stats are read.
        self._elapsed = np.zeros((2, lanes, 1, 1))

    # -- thermal helpers ------------------------------------------------

    def _inlets(self, powers: np.ndarray) -> np.ndarray:
        return self._inlet_base + powers @ self._preheat_matrix.T

    def _propagator(self, dt_s: float) -> tuple[np.ndarray, np.ndarray]:
        """Columns of ``expm(A dt)``, shaped to scale stacked deviations.

        ``new = eq + col0 * dev[0] + col1 * dev[1]`` evaluates, per
        node of the pair, ``eq + p_i0 * die_dev + p_i1 * sink_dev``.
        The default step's columns are shared by every instance of the
        same GPU thermals (:data:`STEP_PROPAGATORS`).
        """
        propagator = self._propagators.get(dt_s)
        if propagator is None:
            shared = dt_s == DEFAULT_STEP_S
            key = self._matrix.tobytes()
            propagator = STEP_PROPAGATORS.get(key) if shared else None
            if propagator is None:
                matrix = _expm_2x2(self._matrix, dt_s)
                propagator = (
                    matrix[:, 0].reshape(2, 1, 1, 1),
                    matrix[:, 1].reshape(2, 1, 1, 1),
                )
                if shared:
                    STEP_PROPAGATORS[key] = propagator
            self._propagators[dt_s] = propagator
        return propagator

    def prewarm(self, power_w) -> None:
        """Jump every GPU to the steady state of a uniform power draw.

        Args:
            power_w: board power per GPU, one scalar for every lane or
                one value per lane.
        """
        powers = np.empty(self._shape)
        powers[...] = np.reshape(power_w, (-1, 1, 1))
        self._temps = self._inlets(powers) + powers * self._r_pair

    def step(
        self, dt_s: float, powers: np.ndarray, active: np.ndarray | None = None
    ) -> None:
        """Advance thermal state and governor by ``dt_s``.

        Args:
            dt_s: integration step.
            powers: per-GPU board powers held over the step, ``(lanes,
                num_gpus)`` in global-GPU order or ``(lanes, num_nodes,
                gpus_per_node)``.
            active: optional ``(lanes,)`` bool mask. An inactive lane
                changes no state at all (temperatures, clocks, stats and
                observed time are frozen); ``None`` steps every lane.
        """
        # Equilibrium temperatures and the cap factor depend only on the
        # held powers; kernels start/finish far less often than physics
        # steps, so reuse them while powers are unchanged. PowerVector
        # hands an unchanged result back as the same read-only object,
        # so identity settles those hits; any other array is new powers.
        cache = self._eq_cache
        if powers is not cache[0]:
            cache = self._equilibrium(powers)
        _, eq, cap, capped, capped_any = cache

        # Thermal: exact propagator toward the step's equilibrium.
        propagator = self._propagators.get(dt_s) or self._propagator(dt_s)
        dev = self._temps - eq
        temps = eq + propagator[0] * dev[0] + propagator[1] * dev[1]
        if active is not None:
            temps = np.where(active[:, None, None], temps, self._temps)
        self._temps = temps
        die = temps[0]
        if (active is None and self._settled and not capped_any
                and not _amax(die, None) > self._throttle_temp):
            # Quiet lanes (no clock may move, no node capped) and no die
            # above the throttle point: the chain would leave every
            # clock as it is.
            self._elapsed += dt_s
            return

        # Governor: node power cap, then per-GPU throttle/recovery. A
        # quiet lane (throttle, recovery, cap and clamp would all leave
        # its clocks exactly where they are) skips the chain. The lane
        # flags are few, so any/all run on Python lists, which is
        # cheaper than numpy reductions at this size.
        full = self._may_move | capped
        if not all(full.tolist()) and _amax(die, None) > self._throttle_temp:
            full |= (die > self._throttle_temp).any(axis=(1, 2))
        if active is not None:
            full &= active
        flags = full.tolist()
        if any(flags):
            every = all(flags)
            self._settle_stats(None if every else full)
            excess = die - self._throttle_temp
            ratio = np.where(
                excess > 0,
                self.freq - THROTTLE_GAIN_PER_C * excess,
                np.where(
                    die < self._throttle_temp - HYSTERESIS_C,
                    self.freq + RECOVERY_STEP,
                    self.freq,
                ),
            )
            ratio = np.minimum(
                np.maximum(ratio * cap, self._eff_floor), self._eff_ceiling
            )
            may_move = (ratio != self._eff_ceiling).any(axis=(1, 2))
            throttled = ratio < 1.0 - 1e-9
            if not every:
                # Quiet and inactive lanes keep their governor state.
                lane3 = full[:, None, None]
                ratio = np.where(lane3, ratio, self.freq)
                may_move = np.where(full, may_move, self._may_move)
                throttled = np.where(lane3, throttled, self._throttled_mask)
            self.freq = ratio
            self._may_move = may_move
            self._settled = not any(may_move.tolist())
            self._throttled_mask = throttled

        if active is None:
            self._elapsed += dt_s
        else:
            self._elapsed += np.where(active[:, None, None], dt_s, 0.0)

    def _equilibrium(self, powers: np.ndarray) -> tuple:
        """Cache and return the equilibrium of new powers.

        The tuple is ``(key, eq, cap, capped, capped_any)``: ``key`` is
        ``powers`` itself when read-only (so the next step handed the
        same object hits the cache), else None; ``eq`` the stacked
        (die, heatsink) equilibrium; ``cap`` the per-node cap factor,
        ``capped`` the per-lane flag that some node exceeds its budget
        and ``capped_any`` that flag over all lanes.
        """
        key = None if powers.flags.writeable else powers
        powers = powers.reshape(self._shape)
        eq = self._inlets(powers) + powers * self._r_pair
        if _amax(powers, None) < self._uncapped_below_w:
            # No node total can reach its budget, so every cap factor
            # would be 1.0, an exact no-op on the clock ratio.
            cache = (key, eq, 1.0, self._uncapped, False)
        else:
            total = powers.sum(axis=2)
            over = total > self._budget
            capped = over.any(axis=1)
            cap = np.where(
                over, self._budget / np.maximum(total, 1e-12), 1.0
            )[:, :, None]
            cache = (key, eq, cap, capped, any(capped.tolist()))
        self._eq_cache = cache
        return cache

    def _set_budget(self, budget: np.ndarray) -> None:
        """Set the per-node power budgets and the node-cap bound.

        A node total is a sum of ``gpus_per_node`` powers, so while every
        GPU draws less than ``min(budget) / gpus_per_node`` no node can
        be capped. The bound keeps a 1e-9 relative margin, far above the
        rounding of that sum.
        """
        self._budget = budget
        self._uncapped_below_w = float(budget.min()) / (self._g * (1 + 1e-9))

    @property
    def observed_time(self) -> np.ndarray:
        """Per-lane simulated time stepped so far, ``(lanes,)``."""
        return self._elapsed[0].reshape(-1)

    def _settle_stats(self, lanes: np.ndarray | None = None) -> None:
        """Fold lanes' pending constant-clock intervals into the integrals.

        Args:
            lanes: optional ``(lanes,)`` bool mask of the lanes to
                settle; ``None`` settles every lane. Unselected lanes,
                like lanes with nothing pending, add an exact zero.
        """
        hold = self._elapsed[1]
        if lanes is not None:
            hold = hold * lanes[:, None, None]
        self.freq_integral += self.freq * hold
        self.throttled_time += self._throttled_mask * hold
        if lanes is None:
            self._elapsed[1] = 0.0
        else:
            self._elapsed[1] -= hold

    def set_setpoints(self, setpoints) -> None:
        """Apply per-GPU clock ceilings (global-GPU order, powerctl).

        Setpoints tighten the effective ceiling; they never widen the
        hardware/fault one: the ceiling is ``min(ceiling, setpoint)``.

        Args:
            setpoints: one set of per-GPU ceilings for every lane
                (``num_gpus`` values) or one set per lane (``(lanes,
                num_gpus)``).
        """
        sp = np.asarray(setpoints, dtype=float).reshape(-1, self._n, self._g)
        self._eff_ceiling = np.minimum(self._ceiling, sp)
        self._eff_floor = np.minimum(self._floor, self._eff_ceiling)
        # Clocks may now sit above the new ceiling; force the full
        # governor path on the next step so the clamp takes effect.
        self._may_move = np.ones(self.lanes, dtype=bool)
        self._settled = False

    def set_node_budget_scales(self, scales) -> None:
        """Apply transient per-node power-budget multipliers (faults).

        The budget and the clock floor both follow the *combined* static
        x transient scale, and a transient scale of 1.0 restores the
        whole-run values bit for bit.
        """
        node = self.cluster.node
        combined = self._cap_scale * np.asarray(scales, dtype=float)
        self._set_budget(node.node_power_cap_watts * combined)
        floor = np.where(
            combined < 1.0,
            node.gpu.base_clock_ratio * combined,
            node.gpu.base_clock_ratio,
        )
        self._floor = np.minimum(floor[:, None], self._ceiling)
        self._eff_floor = np.minimum(self._floor, self._eff_ceiling)
        # The cap factor cached in _eq_cache depends on the budget, and
        # clocks may need clamping to the new floor: force a full step.
        self._eq_cache = _NO_EQUILIBRIUM
        self._may_move = np.ones(self.lanes, dtype=bool)
        self._settled = False

    def set_ambient_offsets(self, offsets) -> None:
        """Apply transient per-node inlet/ambient offsets (degC)."""
        node = self.cluster.node
        self._inlet_base = (
            node.ambient_c
            + np.asarray(offsets, dtype=float)[:, None]
            + np.asarray(node.airflow.inlet_offset_c, dtype=float)
        )
        # Equilibrium temperatures cached in _eq_cache embed the inlets.
        self._eq_cache = _NO_EQUILIBRIUM
        self._may_move = np.ones(self.lanes, dtype=bool)
        self._settled = False

    # -- views ---------------------------------------------------------

    @property
    def die_c(self) -> np.ndarray:
        """Die temperatures, ``(lanes, num_nodes, gpus_per_node)``."""
        return self._temps[0]

    @property
    def sink_c(self) -> np.ndarray:
        """Heatsink temperatures, ``(lanes, num_nodes, gpus_per_node)``."""
        return self._temps[1]

    @property
    def freq_flat(self) -> np.ndarray:
        """Clock ratios as ``(lanes, num_gpus)``, global-GPU order.

        A read-only view; the same object is returned until a step
        replaces the clocks, so consumers can detect a change by
        identity.
        """
        source, flat = self._freq_flat
        if source is not self.freq:
            flat = self.freq.reshape(self.lanes, -1)
            flat.flags.writeable = False
            self._freq_flat = (self.freq, flat)
        return flat

    def off_ceiling(self) -> np.ndarray:
        """Per-lane flag: some clock differs from its effective ceiling."""
        return (self.freq != self._eff_ceiling).any(axis=(1, 2))

    def throttle_ratios(self, lane: int = 0) -> list[float]:
        """Per-GPU fraction of a lane's observed time spent throttled."""
        observed = self.observed_time[lane]
        if observed == 0:
            return [0.0] * (self._n * self._g)
        self._settle_stats(np.arange(self.lanes) == lane)
        return (self.throttled_time[lane] / observed).reshape(-1).tolist()

    def mean_freq_ratios(self, lane: int = 0) -> list[float]:
        """Per-GPU time-weighted mean clock ratio of a lane."""
        observed = self.observed_time[lane]
        if observed == 0:
            return [1.0] * (self._n * self._g)
        self._settle_stats(np.arange(self.lanes) == lane)
        return (self.freq_integral[lane] / observed).reshape(-1).tolist()


class PowerVector:
    """Vectorized per-GPU board-power evaluation with change tracking.

    Mirrors :func:`repro.power.model.gpu_power` across the whole cluster:
    ``P = idle + span * intensity * freq ** 2.4``. Like
    :class:`VectorPhysics` it carries a leading lane axis: clocks and
    powers are ``(lanes, num_gpus)``, and the intensity is per GPU
    (shared by every lane) or per lane and GPU. The activity-derived
    term is recomputed only when some kernel started or finished since
    the last step, and the clock exponential only where the governor
    actually moved a GPU's clock. When neither changed, :meth:`powers`
    returns the previous (read-only) array itself.
    """

    def __init__(self, cluster: ClusterSpec, lanes: int = 1) -> None:
        gpu = cluster.node.gpu
        self._idle = gpu.idle_watts
        self._span = gpu.tdp_watts - gpu.idle_watts
        self._num_gpus = cluster.total_gpus
        shape = (lanes, self._num_gpus)
        # span * intensity, the activity-dependent factor of P, kept
        # 2-D so the per-step product needs no broadcasting.
        self._dynamic = np.zeros((1, self._num_gpus))
        self._freq_seen = np.ones(shape)
        self._freq_pow = np.ones(shape)
        #: Activity levels of the last refresh, unclamped, stacked as
        #: ``(3, num_gpus)`` or ``(3, lanes, num_gpus)``: compute, comm,
        #: memory.
        self.levels = np.zeros((3, self._num_gpus))
        # The clock array the last powers() call saw, and its result.
        self._freq_in: np.ndarray | None = None
        self._powers: np.ndarray | None = None

    def refresh_intensity(self, compute_active, comm_active,
                          memory_active) -> None:
        """Recompute the activity intensity (call when dirty).

        Each argument holds per-GPU activity levels, ``(num_gpus,)`` for
        every lane or ``(lanes, num_gpus)``.
        """
        levels = self.levels = np.array(
            (compute_active, comm_active, memory_active), dtype=float
        )
        compute, comm, memory = np.minimum(np.maximum(levels, 0.0), 1.0)
        intensity = (
            COMPUTE_INTENSITY * compute
            + COMM_INTENSITY * comm
            + MEMORY_INTENSITY * memory
        )
        self._dynamic = self._span * np.minimum(
            np.maximum(intensity, 0.0), 1.0
        ).reshape(-1, self._num_gpus)
        self._powers = None

    def powers(self, freq_flat: np.ndarray) -> np.ndarray:
        """Board power per GPU, ``(lanes, num_gpus)``, for the clocks.

        The result is read-only. While the intensity and the clocks stay
        as they were, the same array is returned again. A read-only
        clock array seen before counts as unchanged without comparing
        values (:attr:`VectorPhysics.freq_flat` is replaced, never
        written).
        """
        if freq_flat is not self._freq_in or freq_flat.flags.writeable:
            changed = freq_flat != self._freq_seen
            if changed.any():
                self._freq_pow[changed] = (
                    freq_flat[changed] ** FREQ_POWER_EXP
                )
                self._freq_seen = freq_flat.copy()
                self._powers = None
            self._freq_in = freq_flat
        powers = self._powers
        if powers is None:
            powers = self._idle + self._dynamic * self._freq_pow
            powers.flags.writeable = False
            self._powers = powers
        return powers

