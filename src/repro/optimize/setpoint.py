"""Per-plan setpoint refinement: golden-section over static clock caps.

Zeus-style outer loop: golden-section search over a *static* clock
ceiling (equivalently, a board power limit), where each probe is one
full simulated run and the objective is the configurable
energy·delayⁿ cost over the measured window. Probes go through
:func:`repro.core.sweep.cached_run`, so repeated searches —
and ``python -m repro sweep --freq-setpoint ...`` — reuse the
in-process memo and the persistent ``.repro_cache`` store; the initial
bracket fans out over worker processes via ``jobs``.

The throughput constraint is handled the way Zeus handles its MaxSlowdown
knob rather than by trusting unimodality of a penalized objective: the
search *iterates* on a softly penalized cost (keeping the bracket
well-behaved), but the final answer is the cheapest **feasible** probe —
slowdown within ``max_slowdown`` of the uncapped baseline — and the
baseline itself is always a candidate, so the search can never return
something worse than not searching.

This module is the per-plan refinement stage of the joint optimizer
(:mod:`repro.optimize.search`).
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

from repro.core.results import RunResult
from repro.engine.simulator import SimSettings
from repro.powerctl.config import NO_POWER_CONTROL, PowerControlConfig

#: 1/phi, the golden-section interior-point ratio.
GOLDEN = (5.0 ** 0.5 - 1.0) / 2.0

#: Setpoints are rounded to this many decimals before running, so the
#: probes of two searches over the same bracket hit the same cache keys.
_SETPOINT_DECIMALS = 4

#: Soft-penalty weight (in units of baseline cost per unit of excess
#: slowdown) applied while iterating; see module docstring.
_PENALTY_WEIGHT = 10.0


@dataclass(frozen=True)
class SearchSettings:
    """Knobs of the energy-optimal search.

    Attributes:
        lo / hi: clock-ratio bracket to search (hi=1.0 includes the
            uncapped baseline).
        tolerance: stop when the bracket is narrower than this.
        edp_exponent: the ``n`` in the energy·delayⁿ cost. 0 minimises
            pure energy, 1 the energy-delay product, 2 ED².
        max_slowdown: feasibility bound on step-time inflation relative
            to the uncapped baseline (0.05 = at most 5% slower); None
            disables the constraint.
        max_iterations: hard cap on golden-section refinements.
    """

    lo: float = 0.55
    hi: float = 1.0
    tolerance: float = 0.03
    edp_exponent: float = 1.0
    max_slowdown: float | None = 0.05
    max_iterations: int = 16

    def __post_init__(self) -> None:
        if not 0 < self.lo < self.hi <= 1.0:
            raise ValueError("search bracket must satisfy 0 < lo < hi <= 1")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.edp_exponent < 0:
            raise ValueError("edp_exponent must be >= 0")
        if self.max_slowdown is not None and self.max_slowdown < 0:
            raise ValueError("max_slowdown must be >= 0 (or None)")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class SetpointProbe:
    """One evaluated setpoint: measured-window metrics plus its cost."""

    setpoint: float
    energy_j: float
    step_time_s: float
    tokens_per_s: float
    mean_freq_ratio: float
    peak_temp_c: float
    cost: float
    feasible: bool


@dataclass
class SearchOutcome:
    """Result of one energy-optimal search."""

    baseline: SetpointProbe
    best: SetpointProbe
    probes: list[SetpointProbe]
    iterations: int
    best_result: RunResult
    #: Cache telemetry: distinct setpoints this search evaluated, and
    #: how many of them were answered from the memo/store without a
    #: fresh simulation (resumability accounting for ``repro optimize``).
    probes_total: int = 0
    probes_cached: int = 0

    @property
    def energy_saving_fraction(self) -> float:
        """Energy saved by the best setpoint vs the uncapped baseline."""
        if self.baseline.energy_j <= 0:
            return 0.0
        return 1.0 - self.best.energy_j / self.baseline.energy_j

    @property
    def slowdown_fraction(self) -> float:
        """Step-time inflation of the best setpoint vs the baseline."""
        if self.baseline.step_time_s <= 0:
            return 0.0
        return self.best.step_time_s / self.baseline.step_time_s - 1.0


def settings_for_setpoint(
    settings: SimSettings | None, setpoint: float
) -> SimSettings:
    """Sim settings running under a uniform static ceiling.

    A setpoint of 1.0 maps to ``NO_POWER_CONTROL`` (not a static cap at
    boost), so the search's baseline probe shares its cache entry with
    every ordinary uncapped run of the same configuration.
    """
    base = settings if settings is not None else SimSettings()
    if setpoint >= 1.0 - 1e-9:
        control = NO_POWER_CONTROL
    else:
        control = PowerControlConfig(
            governor="static", freq_setpoint=setpoint
        )
    return dataclasses.replace(base, power_control=control)


def _base_run_kwargs(
    model,
    cluster,
    parallelism,
    optimizations,
    microbatch_size: int,
    global_batch_size: int,
    iterations: int,
    pipeline_schedule: str | None = None,
    seq_splits: int | None = None,
) -> dict:
    kwargs = dict(
        model=model,
        cluster=cluster,
        parallelism=parallelism,
        microbatch_size=microbatch_size,
        global_batch_size=global_batch_size,
        iterations=iterations,
    )
    if optimizations is not None:
        kwargs["optimizations"] = optimizations
    if pipeline_schedule is not None:
        kwargs["pipeline_schedule"] = pipeline_schedule
    if seq_splits is not None:
        kwargs["seq_splits"] = seq_splits
    return kwargs


def _probe_kwargs(run_kwargs: dict, settings: SimSettings | None,
                  setpoint: float) -> dict:
    kwargs = dict(run_kwargs)
    kwargs["settings"] = settings_for_setpoint(settings, setpoint)
    return kwargs


class _ProbeRunner:
    """Evaluates setpoints through the run cache, memoising per search.

    Serial searches (``jobs == 1``) hold a
    :class:`repro.engine.batched.SetpointSession` open across calls, so
    the task graph is built once per search: the opening bracket and
    each later golden-section refinement run as simulations on the
    retained graph and comm-cost memos (a batch of enough new setpoints,
    as in :func:`evaluate_setpoints`, replays instead). Parallel
    searches fan out over worker processes as before; results are
    identical either way (same cache keys, field-for-field outcomes).
    """

    def __init__(self, run_kwargs: dict, settings: SimSettings | None,
                 jobs: int) -> None:
        # A partial, not a bound method: the session keeps it, and a
        # bound method would make runner and session a reference cycle
        # that holds the search's task graph until the cyclic collector.
        self._kwargs_for = functools.partial(_probe_kwargs, run_kwargs,
                                             settings)
        self._jobs = jobs
        self._session = None
        self.results: dict[float, RunResult] = {}
        self.probes_total = 0
        self.probes_cached = 0

    def ensure(self, setpoints: list[float]) -> None:
        """Evaluate any not-yet-run setpoints (batch fans out over jobs)."""
        from repro.core.parallel import ExecutionReport, map_runs

        missing = [
            sp for sp in dict.fromkeys(setpoints) if sp not in self.results
        ]
        if not missing:
            return
        report = ExecutionReport()
        if self._jobs <= 1:
            if self._session is None:
                from repro.engine.batched import SetpointSession

                self._session = SetpointSession(
                    "train", self._kwargs_for
                )
            self.results.update(self._session.evaluate(missing,
                                                       report=report))
        else:
            payloads = [("train", self._kwargs_for(sp)) for sp in missing]
            self.results.update(
                zip(missing, map_runs(payloads, self._jobs, report))
            )
        self.probes_total += len(missing)
        self.probes_cached += len(report.cached)


def _round_setpoint(value: float) -> float:
    return round(value, _SETPOINT_DECIMALS)


def optimize_setpoint(
    model,
    cluster,
    parallelism,
    *,
    optimizations=None,
    microbatch_size: int = 1,
    global_batch_size: int = 32,
    iterations: int = 2,
    settings: SimSettings | None = None,
    search: SearchSettings | None = None,
    jobs: int = 1,
    pipeline_schedule: str | None = None,
    seq_splits: int | None = None,
) -> SearchOutcome:
    """Find the energy-optimal static clock ceiling for one workload.

    The positional arguments mirror :func:`repro.core.experiment.
    execute_training` (catalog names or full spec objects, including
    ``pipeline_schedule``/``seq_splits`` overrides — the energy-optimal
    setpoint shifts with the pipeline schedule, since zero-bubble
    drains change where the idle time a lower clock can hide lives).
    ``jobs`` fans the initial three-probe bracket (baseline + two
    golden-section interior points) over worker processes; refinement
    probes run one at a time, each served from the cache when
    previously seen.
    """
    search = search or SearchSettings()
    runner = _ProbeRunner(
        _base_run_kwargs(
            model, cluster, parallelism, optimizations,
            microbatch_size, global_batch_size, iterations,
            pipeline_schedule, seq_splits,
        ),
        settings,
        jobs,
    )

    a, b = search.lo, search.hi
    c = _round_setpoint(b - GOLDEN * (b - a))
    d = _round_setpoint(a + GOLDEN * (b - a))
    runner.ensure([1.0, c, d])

    baseline_eff = runner.results[1.0].efficiency()
    baseline_cost = baseline_eff.energy_j * (
        baseline_eff.step_time_s ** search.edp_exponent
    )

    def iteration_cost(setpoint: float) -> float:
        """Penalized objective the golden-section bracket iterates on."""
        eff = runner.results[setpoint].efficiency()
        cost = eff.energy_j * (eff.step_time_s ** search.edp_exponent)
        if search.max_slowdown is not None:
            slowdown = eff.step_time_s / baseline_eff.step_time_s - 1.0
            excess = slowdown - search.max_slowdown
            if excess > 0:
                cost += _PENALTY_WEIGHT * excess * baseline_cost
        return cost

    refinements = 0
    while (b - a) > search.tolerance and refinements < search.max_iterations:
        if iteration_cost(c) < iteration_cost(d):
            b, d = d, c
            c = _round_setpoint(b - GOLDEN * (b - a))
            runner.ensure([c])
        else:
            a, c = c, d
            d = _round_setpoint(a + GOLDEN * (b - a))
            runner.ensure([d])
        refinements += 1

    probes: list[SetpointProbe] = []
    for setpoint, result in runner.results.items():
        eff = result.efficiency()
        stats = result.stats()
        slowdown = eff.step_time_s / baseline_eff.step_time_s - 1.0
        feasible = (
            search.max_slowdown is None
            or slowdown <= search.max_slowdown + 1e-12
        )
        probes.append(
            SetpointProbe(
                setpoint=setpoint,
                energy_j=eff.energy_j,
                step_time_s=eff.step_time_s,
                tokens_per_s=eff.tokens_per_s,
                mean_freq_ratio=stats.mean_freq_ratio,
                peak_temp_c=stats.peak_temp_c,
                cost=eff.energy_j * (eff.step_time_s ** search.edp_exponent),
                feasible=feasible,
            )
        )

    baseline = next(p for p in probes if p.setpoint == 1.0)
    feasible = [p for p in probes if p.feasible]
    best = min(feasible, key=lambda p: p.cost) if feasible else baseline
    return SearchOutcome(
        baseline=baseline,
        best=best,
        probes=probes,
        iterations=refinements,
        best_result=runner.results[best.setpoint],
        probes_total=runner.probes_total,
        probes_cached=runner.probes_cached,
    )


def evaluate_setpoints(
    model,
    cluster,
    parallelism,
    setpoints,
    *,
    optimizations=None,
    microbatch_size: int = 1,
    global_batch_size: int = 32,
    iterations: int = 2,
    settings: SimSettings | None = None,
    jobs: int = 1,
    pipeline_schedule: str | None = None,
    seq_splits: int | None = None,
) -> list[tuple[float, RunResult]]:
    """Run the workload under each static ceiling (cached, parallel).

    The grid-mode counterpart of :func:`optimize_setpoint`;
    ``python -m repro sweep --freq-setpoint ...`` returns the same rows.
    """
    runner = _ProbeRunner(
        _base_run_kwargs(
            model, cluster, parallelism, optimizations,
            microbatch_size, global_batch_size, iterations,
            pipeline_schedule, seq_splits,
        ),
        settings,
        jobs,
    )
    rounded = [_round_setpoint(sp) for sp in setpoints]
    runner.ensure(rounded)
    return [(sp, runner.results[sp]) for sp in rounded]
