"""Node-granularity placement policies for the fleet simulator.

A job asks for ``nodes_required`` whole nodes inside a single cluster;
the policy chooses which. Three policies are compared, mirroring the
paper's Section 6 finding that *where* work lands thermally is a
first-order efficiency knob:

* ``packed`` — lowest-numbered free nodes of the lowest-numbered
  cluster. Minimises fragmentation, but keeps re-landing work on the
  nodes that just finished running (and are still hot), so jobs start
  thermally throttled.
* ``spread`` — the cluster with the most free capacity first,
  least-recently-released nodes within it. Rotates work across the
  hardware but is blind to actual temperatures.
* ``thermal-aware`` — coolest free nodes first: the cool-GPU-first idea
  of :mod:`repro.datacenter.thermal_aware` lifted from GPU positions
  within a node to nodes within the fleet. Jobs land on the hardware
  with the most thermal headroom, and (for strategies that allow it)
  additionally get the intra-node cool-first stage permutation in their
  micro-profile.
"""

from __future__ import annotations

from dataclasses import dataclass

POLICIES = ("packed", "spread", "thermal-aware")


@dataclass
class NodeState:
    """Fleet-side state of one physical node.

    Attributes:
        cluster: index of the owning cluster in the fleet pool.
        node: node index within that cluster.
        temp_c: fleet-granularity mean die temperature estimate,
            advanced by the fleet's exponential heating/cooling model.
        last_update_s: when ``temp_c`` was last advanced.
        last_release_s: when the node last finished a job (the
            ``spread`` policy rotates onto the stalest nodes).
        busy: whether a job currently occupies the node.
        healthy: False while the node is down for repair after a fault.
        job: name of the occupying job, if any.
    """

    cluster: int
    node: int
    temp_c: float
    last_update_s: float = 0.0
    last_release_s: float = -1.0
    busy: bool = False
    healthy: bool = True
    job: str | None = None

    @property
    def free(self) -> bool:
        """Whether the node can accept a job right now."""
        return self.healthy and not self.busy


@dataclass(frozen=True)
class Placement:
    """A policy decision: which nodes of which cluster a job gets."""

    cluster: int
    nodes: tuple[int, ...]


def select_nodes(
    policy: str, nodes: list[NodeState], needed: int
) -> Placement | None:
    """Choose ``needed`` free nodes in one cluster, or None if impossible.

    All three policies are deterministic: ties break on (cluster, node)
    index so a fixed seed yields a fixed schedule.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; known: {POLICIES}")
    if needed < 1:
        raise ValueError("needed must be >= 1")
    free_by_cluster: dict[int, list[NodeState]] = {}
    for state in nodes:
        if state.free:
            free_by_cluster.setdefault(state.cluster, []).append(state)
    candidates = {
        cluster: free
        for cluster, free in free_by_cluster.items()
        if len(free) >= needed
    }
    if not candidates:
        return None

    if policy == "packed":
        cluster = min(candidates)
        chosen = sorted(candidates[cluster], key=lambda s: s.node)[:needed]
    elif policy == "spread":
        cluster = min(
            candidates, key=lambda c: (-len(candidates[c]), c)
        )
        chosen = sorted(
            candidates[cluster], key=lambda s: (s.last_release_s, s.node)
        )[:needed]
    else:  # thermal-aware
        def coolness(cluster: int) -> tuple[float, int]:
            picks = sorted(
                candidates[cluster], key=lambda s: (s.temp_c, s.node)
            )[:needed]
            mean = sum(s.temp_c for s in picks) / needed
            return (mean, cluster)

        cluster = min(candidates, key=coolness)
        chosen = sorted(
            candidates[cluster], key=lambda s: (s.temp_c, s.node)
        )[:needed]

    return Placement(
        cluster=cluster, nodes=tuple(sorted(s.node for s in chosen))
    )


def thermal_derate(
    temp_c: float,
    onset_c: float,
    full_c: float,
    min_clock: float,
) -> float:
    """Clock multiplier a job starting on a ``temp_c``-hot node suffers.

    1.0 below the throttle onset, falling linearly to ``min_clock`` at
    ``full_c`` — the fleet-granularity stand-in for the DVFS governor
    the micro-simulator integrates per GPU.
    """
    if full_c <= onset_c:
        raise ValueError("full_c must exceed onset_c")
    if not 0 < min_clock <= 1.0:
        raise ValueError("min_clock must be in (0, 1]")
    if temp_c <= onset_c:
        return 1.0
    if temp_c >= full_c:
        return min_clock
    frac = (temp_c - onset_c) / (full_c - onset_c)
    return 1.0 - frac * (1.0 - min_clock)
