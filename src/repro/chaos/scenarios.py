"""Named, seeded chaos scenarios for the serving stack.

A :class:`Scenario` bundles a :class:`~repro.chaos.injection.FaultPlan`
with the harness shape it needs (remote workers for TCP faults, a
hedge delay for straggler scenarios, the availability bar it must
clear). The registry mirrors the failure taxonomy in docs/chaos.md;
``python -m repro chaos --list`` prints it.

These are *serving-stack* faults — processes, sockets, files — not the
*simulated-cluster* faults of :mod:`repro.resilience` (power sags,
thermal runaway inside the modelled datacenter). The soak scenario is
the repo's pinned acceptance bar: kill 2 of 4 local workers mid-batch,
drop the remote TCP link, corrupt 5% of cache reads — and still answer
every request.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chaos.injection import FaultPlan
from repro.suggest import normalize_name, unknown_name_message

__all__ = ["SCENARIOS", "Scenario", "get_scenario"]


@dataclass(frozen=True)
class Scenario:
    """One named fault campaign plus the harness shape it assumes.

    Attributes:
        name / description: registry identity.
        plan: the faults to inject.
        remote_workers: TCP workers the harness attaches to the pool
            (connection-drop scenarios need at least one).
        hedge_s: hedged-request delay the harness enables (straggler
            scenarios); ``None`` leaves hedging off.
        min_availability: the fraction of requests that must come back
            ``ok`` (possibly degraded) for the scenario to count as
            survived. Storm scenarios that *intend* to shed load with
            429s set this below 1.
        prefill_store: store every distinct request's result before
            the faults start. The broker's memo answers every repeat,
            so without this no store read ever finds an entry to tear.
    """

    name: str
    description: str
    plan: FaultPlan = field(default_factory=FaultPlan)
    remote_workers: int = 0
    hedge_s: float | None = None
    min_availability: float = 1.0
    prefill_store: bool = False


SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            name="baseline",
            description="no faults — the control run chaos reports "
                        "are compared against",
        ),
        Scenario(
            name="worker-crash",
            description="SIGKILL two pool workers mid-task; dispatch "
                        "retries + respawn must absorb both",
            plan=FaultPlan(kill_local_dispatches=(2, 5)),
        ),
        Scenario(
            name="straggler",
            description="~30% of dispatches stall 0.3s; hedged "
                        "requests race a duplicate after 0.15s",
            plan=FaultPlan(straggler_rate=0.3, straggler_delay_s=0.3),
            hedge_s=0.15,
        ),
        Scenario(
            name="tcp-drop",
            description="drop the remote TCP worker's connection "
                        "mid-task; its work must re-land locally and "
                        "the worker must reconnect",
            plan=FaultPlan(drop_remote_dispatches=(0,)),
            remote_workers=1,
        ),
        Scenario(
            name="torn-writes",
            description="25% of cache reads hit a torn entry; each "
                        "must quarantine to .pkl.corrupt and recompute",
            plan=FaultPlan(corrupt_read_rate=0.25),
            prefill_store=True,
        ),
        Scenario(
            name="lost-answers",
            description="20% of worker answers vanish in transit; the "
                        "crash-recovery path must redeliver them",
            plan=FaultPlan(result_drop_rate=0.2),
        ),
        Scenario(
            name="queue-storm",
            description="every execution attempt stalls 0.1s, "
                        "saturating the queue; backpressure may shed "
                        "load but nothing may hang",
            plan=FaultPlan(execute_delay_rate=1.0, execute_delay_s=0.1),
            min_availability=0.5,
        ),
        Scenario(
            name="soak",
            description="the pinned acceptance soak: kill 2 of 4 "
                        "local workers mid-batch, drop the remote TCP "
                        "link, corrupt 5% of cache reads — 100% of "
                        "requests must still be answered",
            plan=FaultPlan(
                kill_local_dispatches=(2, 5),
                drop_remote_dispatches=(0,),
                corrupt_read_rate=0.05,
            ),
            remote_workers=1,
        ),
    )
}


def get_scenario(name: str) -> Scenario:
    """Look up a scenario with the repo's did-you-mean diagnostics."""
    canonical = normalize_name(str(name))
    try:
        return SCENARIOS[canonical]
    except KeyError:
        raise ValueError(
            unknown_name_message(
                "chaos scenario", name, tuple(sorted(SCENARIOS))
            )
        ) from None
