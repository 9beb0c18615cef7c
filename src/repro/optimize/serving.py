"""Energy-optimal serving frequency: golden-section setpoint search.

The training-side search (:mod:`repro.optimize.setpoint`) minimises
energy-delay product under a slowdown bound; serving wants a different
objective with the same machinery: **energy per token**, subject to a
bound on p99 TTFT regression against the uncapped baseline. Decode is
memory-bound — its latency barely moves with clock — while dynamic
power falls super-linearly (``f**2.4``), so there is real energy to
harvest below the default setpoint before prefill slowdown starts
queueing requests into the TTFT budget.

Probes execute through :func:`repro.core.sweep.cached_run` (kind
``"serve"``), so repeated searches and overlapping sweeps share the
content-addressed result store, and ``jobs > 1`` fans the initial
bracket out over worker processes.

This module is the serving refinement stage of the joint optimizer
(:mod:`repro.optimize.search`).

.. note::
    To keep ``repro.optimize`` importable from :mod:`repro.api` without
    a cycle through :mod:`repro.inferserve` (whose package ``__init__``
    re-exports this module's dataclasses), this module must not import
    ``repro.inferserve`` at module level — serving config and outcome
    types appear only as string annotations and duck-typed values.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - type names only
    from repro.hardware.cluster import ClusterSpec
    from repro.inferserve.config import ServingConfig
    from repro.inferserve.outcome import ServingOutcome
    from repro.models.config import ModelConfig

__all__ = [
    "ServingSearchOutcome",
    "ServingSearchSettings",
    "ServingSetpointProbe",
    "optimize_serving_setpoint",
]

GOLDEN = (5.0 ** 0.5 - 1.0) / 2.0

_SETPOINT_DECIMALS = 4
_PENALTY_WEIGHT = 10.0


@dataclass(frozen=True)
class ServingSearchSettings:
    """Search-space and constraint knobs.

    Attributes:
        lo / hi: setpoint bracket (fractions of boost clock).
        tolerance: bracket width at which the search stops.
        max_ttft_regression: admissible p99-TTFT increase over the
            ``hi``-setpoint baseline (0.05 = +5%).
        max_iterations: golden-section iteration cap.
    """

    lo: float = 0.55
    hi: float = 1.0
    tolerance: float = 0.03
    max_ttft_regression: float = 0.05
    max_iterations: int = 16

    def __post_init__(self) -> None:
        if not 0.0 < self.lo < self.hi <= 1.0:
            raise ValueError(
                f"need 0 < lo < hi <= 1, got [{self.lo:g}, {self.hi:g}]"
            )
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_ttft_regression < 0:
            raise ValueError("max_ttft_regression must be >= 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class ServingSetpointProbe:
    """One evaluated setpoint."""

    setpoint: float
    energy_per_token_j: float
    ttft_p99_s: float
    goodput_per_s: float
    feasible: bool


@dataclass(frozen=True)
class ServingSearchOutcome:
    """Search result: the energy-per-token-optimal feasible setpoint.

    Attributes:
        baseline: the ``hi``-setpoint probe everything is judged
            against.
        best: lowest energy-per-token probe meeting the TTFT bound
            (the baseline itself when nothing else qualifies).
        probes: every evaluated setpoint, ascending.
        iterations: golden-section iterations executed.
        best_outcome: full :class:`ServingOutcome` at ``best``.
        probes_total / probes_cached: distinct setpoints evaluated and
            how many came from the memo/store (resumability telemetry).
    """

    baseline: ServingSetpointProbe
    best: ServingSetpointProbe
    probes: tuple[ServingSetpointProbe, ...]
    iterations: int
    best_outcome: "ServingOutcome"
    probes_total: int = 0
    probes_cached: int = 0

    @property
    def energy_saving_fraction(self) -> float:
        """Energy-per-token saved at ``best`` vs. the baseline."""
        if self.baseline.energy_per_token_j <= 0:
            return 0.0
        return 1.0 - (
            self.best.energy_per_token_j
            / self.baseline.energy_per_token_j
        )

    @property
    def ttft_regression_fraction(self) -> float:
        """p99 TTFT change at ``best`` vs. the baseline."""
        if self.baseline.ttft_p99_s <= 0:
            return 0.0
        return (
            self.best.ttft_p99_s / self.baseline.ttft_p99_s - 1.0
        )


def _round_setpoint(value: float) -> float:
    return round(value, _SETPOINT_DECIMALS)


class _ProbeRunner:
    """Memoised setpoint evaluation through the result cache."""

    def __init__(self, model: str, cluster: str,
                 config: "ServingConfig") -> None:
        self.model = model
        self.cluster = cluster
        self.config = config
        self.outcomes: dict[float, "ServingOutcome"] = {}
        self.probes_total = 0
        self.probes_cached = 0

    def _config_at(self, setpoint: float) -> "ServingConfig":
        return replace(self.config, freq_setpoint=setpoint)

    def ensure(self, setpoints: list[float], jobs: int) -> None:
        """Evaluate any unseen setpoints, fanning out when ``jobs>1``."""
        from repro.core.parallel import ExecutionReport, map_runs

        missing = [
            s for s in dict.fromkeys(setpoints)
            if s not in self.outcomes
        ]
        if not missing:
            return
        payloads = [
            (
                "serve",
                dict(
                    model=self.model,
                    cluster=self.cluster,
                    config=self._config_at(s),
                ),
            )
            for s in missing
        ]
        report = ExecutionReport()
        self.outcomes.update(zip(missing, map_runs(payloads, jobs, report)))
        self.probes_total += len(missing)
        self.probes_cached += len(report.cached)

    def outcome(self, setpoint: float) -> "ServingOutcome":
        if setpoint not in self.outcomes:
            self.ensure([setpoint], jobs=1)
        return self.outcomes[setpoint]


def optimize_serving_setpoint(
    model: "ModelConfig | str",
    cluster: "ClusterSpec | str",
    config: "ServingConfig",
    settings: ServingSearchSettings | None = None,
    jobs: int = 1,
) -> ServingSearchOutcome:
    """Find the energy-per-token-optimal DVFS setpoint for a deployment.

    Golden-section search over ``[lo, hi]`` minimising energy per token
    with a soft penalty while the bracket narrows, then a hard
    feasibility pass: the winner must hold p99 TTFT within
    ``max_ttft_regression`` of the baseline (which is always a
    candidate, so the search never returns something worse than not
    searching).
    """
    settings = settings or ServingSearchSettings()
    model_name = model if isinstance(model, str) else model.name
    cluster_name = (
        cluster if isinstance(cluster, str) else cluster.name
    )
    runner = _ProbeRunner(model_name, cluster_name, config)

    a, b = settings.lo, settings.hi
    c = _round_setpoint(b - GOLDEN * (b - a))
    d = _round_setpoint(a + GOLDEN * (b - a))
    runner.ensure([a, b, c, d], jobs)

    baseline_outcome = runner.outcome(b)
    ttft_budget_s = baseline_outcome.slo.ttft.p99 * (
        1.0 + settings.max_ttft_regression
    )

    def probe_of(setpoint: float) -> ServingSetpointProbe:
        outcome = runner.outcome(setpoint)
        return ServingSetpointProbe(
            setpoint=setpoint,
            energy_per_token_j=outcome.energy.energy_per_token_j,
            ttft_p99_s=outcome.slo.ttft.p99,
            goodput_per_s=outcome.slo.goodput_per_s,
            feasible=outcome.slo.ttft.p99 <= ttft_budget_s,
        )

    def objective(probe: ServingSetpointProbe) -> float:
        value = probe.energy_per_token_j
        if probe.ttft_p99_s > ttft_budget_s and ttft_budget_s > 0:
            excess = probe.ttft_p99_s / ttft_budget_s - 1.0
            value *= 1.0 + _PENALTY_WEIGHT * excess
        return value

    iterations = 0
    while (b - a) > settings.tolerance and (
        iterations < settings.max_iterations
    ):
        iterations += 1
        runner.ensure([c, d], jobs)
        if objective(probe_of(c)) <= objective(probe_of(d)):
            b, d = d, c
            c = _round_setpoint(b - GOLDEN * (b - a))
        else:
            a, c = c, d
            d = _round_setpoint(a + GOLDEN * (b - a))

    probes = tuple(
        probe_of(s) for s in sorted(runner.outcomes)
    )
    baseline = probe_of(settings.hi)
    feasible = [p for p in probes if p.feasible] or [baseline]
    best = min(
        feasible,
        key=lambda p: (p.energy_per_token_j, p.setpoint),
    )
    return ServingSearchOutcome(
        baseline=baseline,
        best=best,
        probes=probes,
        iterations=iterations,
        best_outcome=runner.outcome(best.setpoint),
        probes_total=runner.probes_total,
        probes_cached=runner.probes_cached,
    )
