"""Static replica routing: the thermal-aware baseline scheduler.

This is the pre-batching serving model (paper Section 7.2's proposal),
folded into :mod:`repro.inferserve` as the ``static`` baseline: a
cluster is partitioned into fixed replicas, batched requests arrive on
a seeded Poisson process, and a router assigns each batch whole to a
replica — no continuous batching, no KV accounting. The cluster's
thermal state and DVFS governor are one
:class:`~repro.engine.physics.VectorPhysics` lane, and each replica is
a contiguous slice of its GPUs, so hot replicas serve slower.

Routers:

* ``round_robin`` — the thermally oblivious baseline;
* ``least_loaded`` — shortest queue first (classic load balancing);
* ``thermal_aware`` — shortest *expected completion*: queue depth plus
  the thermally degraded service time (hot, throttled replicas serve
  slower) — the paper's proposal made concrete.

The ablation benchmark compares them on tail latency and thermal
spread.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from repro.core.faults import HEALTHY
from repro.engine.physics import PowerVector, VectorPhysics
from repro.hardware.cluster import ClusterSpec

__all__ = [
    "ROUTERS",
    "RouterOutcome",
    "StaticRouterConfig",
    "compare_routers",
    "simulate_static_routing",
]

ROUTERS = ("round_robin", "least_loaded", "thermal_aware")

#: Fixed physics step (s); a horizon shorter than one has no samples.
_PHYSICS_DT_S = 0.1


@dataclass(frozen=True)
class StaticRouterConfig:
    """Static-routing simulation parameters.

    Attributes:
        num_replicas: independent model replicas; GPUs per replica is
            ``cluster.total_gpus / num_replicas`` (must divide).
        base_service_s: batch service time at boost clock (cool replica).
        arrival_rate_per_s: mean batch arrival rate (Poisson, seeded).
        duration_s: simulated horizon.
        router: routing policy name (see :data:`ROUTERS`).
        seed: RNG seed (arrivals are identical across routers for a
            given seed, enabling paired comparisons).
    """

    num_replicas: int
    base_service_s: float
    arrival_rate_per_s: float
    duration_s: float
    router: str = "round_robin"
    seed: int = 7

    def __post_init__(self) -> None:
        if self.num_replicas < 1:
            raise ValueError("need at least one replica")
        if self.base_service_s <= 0 or self.arrival_rate_per_s <= 0:
            raise ValueError("service time and arrival rate must be positive")
        if self.duration_s < _PHYSICS_DT_S:
            raise ValueError(
                f"duration must cover one {_PHYSICS_DT_S} s physics step"
            )
        if self.router not in ROUTERS:
            raise ValueError(f"unknown router {self.router!r}; {ROUTERS}")


@dataclass
class RouterOutcome:
    """Aggregate results of one static-routing simulation.

    Attributes:
        completed: batches served within the horizon.
        mean_latency_s / p99_latency_s: queueing + service latency.
        mean_temp_c / peak_temp_c: replica-GPU die temperatures.
        temp_spread_c: hottest minus coolest replica mean temperature.
        per_replica_served: load distribution across replicas.
    """

    completed: int
    mean_latency_s: float
    p99_latency_s: float
    mean_temp_c: float
    peak_temp_c: float
    temp_spread_c: float
    per_replica_served: list[int]


@dataclass
class _Replica:
    """One model replica: the ``index``-th contiguous slice of GPUs."""

    index: int
    busy_until_s: float = 0.0
    served: int = 0


def _build_replicas(cluster: ClusterSpec, num_replicas: int) -> list[_Replica]:
    per_node = cluster.node.gpus_per_node
    total = cluster.total_gpus
    if total % num_replicas:
        raise ValueError(
            f"{num_replicas} replicas do not divide {total} GPUs"
        )
    gpus_per_replica = total // num_replicas
    if gpus_per_replica > per_node:
        raise ValueError("replicas larger than a node are not supported")
    return [_Replica(index) for index in range(num_replicas)]


def _replica_means(values: list[float], width: int) -> list[float]:
    """Per-replica mean of per-GPU values, summed in GPU order."""
    return [
        sum(values[i:i + width]) / width
        for i in range(0, len(values), width)
    ]


def _pick_replica(
    router: str,
    replicas: list[_Replica],
    now: float,
    rr_state: list[int],
    base_service_s: float,
    clocks: list[float],
) -> _Replica:
    if router == "round_robin":
        choice = replicas[rr_state[0] % len(replicas)]
        rr_state[0] += 1
        return choice
    queue_depth = {
        r.index: max(0.0, r.busy_until_s - now) for r in replicas
    }
    if router == "least_loaded":
        return min(replicas, key=lambda r: (queue_depth[r.index], r.index))

    # thermal_aware: minimise expected completion time — the queue plus
    # this replica's thermally degraded service time.
    def expected_completion(replica: _Replica) -> float:
        service = base_service_s / max(0.05, clocks[replica.index])
        return queue_depth[replica.index] + service

    return min(
        replicas, key=lambda r: (expected_completion(r), r.index)
    )


def simulate_static_routing(
    cluster: ClusterSpec, config: StaticRouterConfig
) -> RouterOutcome:
    """Run the static-routing simulation and return aggregate metrics."""
    rng = random.Random(config.seed)
    replicas = _build_replicas(cluster, config.num_replicas)
    width = cluster.total_gpus // config.num_replicas

    # Pre-generate arrivals so every router sees the same trace.
    arrivals: list[float] = []
    t = 0.0
    while True:
        t += rng.expovariate(config.arrival_rate_per_s)
        if t >= config.duration_s:
            break
        arrivals.append(t)

    # Physics advances on a fixed grid; busy replicas dissipate at
    # compute 0.9 / memory 0.3, idle ones at idle power. The intensity
    # is refreshed only when some replica's busy flag flips.
    physics = VectorPhysics(cluster, HEALTHY)
    power = PowerVector(cluster)
    no_comm = np.zeros(cluster.total_gpus)
    dt = _PHYSICS_DT_S
    physics_time = 0.0
    busy_seen: list[bool] | None = None
    die_rows: list[list[float]] = []

    def advance_physics(to_time: float) -> None:
        nonlocal physics_time, busy_seen
        while physics_time + dt <= to_time:
            busy = [r.busy_until_s > physics_time for r in replicas]
            if busy != busy_seen:
                busy_seen = busy
                per_gpu = np.repeat(busy, width)
                power.refresh_intensity(
                    np.where(per_gpu, 0.9, 0.0), no_comm,
                    np.where(per_gpu, 0.3, 0.0),
                )
            physics.step(dt, power.powers(physics.freq_flat))
            die_rows.append(physics.die_c.reshape(-1).tolist())
            physics_time += dt

    latencies: list[float] = []
    rr_state = [0]
    for arrival in arrivals:
        advance_physics(arrival)
        clocks = _replica_means(physics.freq_flat[0].tolist(), width)
        replica = _pick_replica(
            config.router, replicas, arrival, rr_state,
            config.base_service_s, clocks,
        )
        start = max(arrival, replica.busy_until_s)
        # Hot replicas serve slower: service scales with 1/clock.
        service = config.base_service_s / max(0.05, clocks[replica.index])
        finish = start + service
        if finish <= config.duration_s:
            replica.busy_until_s = finish
            replica.served += 1
            latencies.append(finish - arrival)
    advance_physics(config.duration_s)

    if not latencies:
        raise ValueError("no batches completed; lower the service time")
    latencies.sort()
    p99 = latencies[min(len(latencies) - 1,
                        math.ceil(0.99 * len(latencies)) - 1)]
    # Replica-major sample order: each replica's samples run in time.
    samples = [_replica_means(row, width) for row in die_rows]
    all_temps = [t for replica in zip(*samples) for t in replica]
    replica_means = samples[-1]
    return RouterOutcome(
        completed=len(latencies),
        mean_latency_s=sum(latencies) / len(latencies),
        p99_latency_s=p99,
        mean_temp_c=sum(all_temps) / len(all_temps),
        peak_temp_c=max(all_temps),
        temp_spread_c=max(replica_means) - min(replica_means),
        per_replica_served=[r.served for r in replicas],
    )


def compare_routers(
    cluster: ClusterSpec, config: StaticRouterConfig
) -> dict[str, RouterOutcome]:
    """Run the same arrival trace through every router."""
    from dataclasses import replace

    return {
        router: simulate_static_routing(
            cluster, replace(config, router=router)
        )
        for router in ROUTERS
    }
