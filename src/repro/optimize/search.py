"""The joint optimizer: prune analytically, simulate a beam, refine.

One :func:`run_optimize` call answers an :class:`OptimizeRequest` in
three stages:

1. **Enumerate + prune** (no simulation): the raw plan × microbatch ×
   schedule grid (:mod:`repro.optimize.space`) is cut down by the
   analytic memory model, schedule structural constraints, and the
   idle-power floor of the facility cap, each rejection ledgered with a
   reason.
2. **Beam simulation**: survivors are ranked by the FLOPs/roofline
   estimate and only the top ``beam_width`` plans are simulated
   (uncapped, setpoint 1.0) through :func:`repro.core.sweep.cached_run`
   — the same cache address space as every other run in the repo, so
   overlapping searches and benchmark sweeps feed each other.
3. **Setpoint refinement**: the best ``refine_top`` feasible plans get
   a golden-section DVFS search (:mod:`repro.optimize.setpoint` /
   :mod:`repro.optimize.serving`), with the MaxSlowdown budget
   rebased so the *global* constraint — within ``max_slowdown`` of the
   fastest simulated plan — is enforced per plan.

The winner is the cheapest feasible (plan, microbatch, schedule,
setpoint) point under the request's objective; the best
default-schedule, default-setpoint candidate is reported as the
baseline so the improvement is measured against "don't search".

Whole results are content-addressed too: ``cached_run("optimize",
request=...)`` stores the finished :class:`OptimizeResult` under the
request digest, so re-asking an identical question is one store read.
"""

from __future__ import annotations

from typing import Mapping

from repro.hardware.cluster import get_cluster
from repro.models.catalog import get_model
from repro.optimize.objective import Objective
from repro.optimize.request import (
    CandidateOutcome,
    OptimizeRequest,
    OptimizeResult,
    PruneStats,
)
from repro.optimize.setpoint import (
    SearchSettings,
    _base_run_kwargs,
    optimize_setpoint,
    settings_for_setpoint,
)
from repro.optimize.space import (
    PlanCandidate,
    analytic_plan_estimate,
    enumerate_candidates,
    prune_candidates,
)
from repro.parallelism.enumerate import ConfigSearchSpace

__all__ = ["run_optimize", "run_optimize_payload"]


def run_optimize_payload(request: Mapping | OptimizeRequest,
                         jobs: int = 1) -> OptimizeResult:
    """:func:`cached_run`'s ``"optimize"`` runner (dict-form request)."""
    if not isinstance(request, OptimizeRequest):
        request = OptimizeRequest.from_dict(request)
    return run_optimize(request, jobs=jobs, cached=False)


def run_optimize(
    request: OptimizeRequest,
    *,
    jobs: int = 1,
    settings=None,
    cached: bool = True,
) -> OptimizeResult:
    """Answer one :class:`OptimizeRequest`.

    Args:
        request: what to search (grid, objective, constraints).
        jobs: worker processes for the simulation fan-outs; results are
            independent of ``jobs``.
        settings: optional :class:`~repro.engine.simulator.SimSettings`
            base for every probe (tests use fast settings). Non-default
            settings bypass the whole-result cache — the request digest
            does not cover them — but probe-level caching still applies.
        cached: serve/persist the whole result under the request
            digest (the ``"optimize"`` payload of
            :func:`repro.core.sweep.cached_batch`); forced off when
            ``settings`` is given.
    """
    if cached and settings is None:
        from repro.core.sweep import cached_batch

        def search(misses, part):
            yield 0, run_optimize(request, jobs=jobs, cached=False)

        return cached_batch([request.to_run_payload()], search)[0]
    if request.kind == "serving":
        return _optimize_serving(request, jobs)
    return _optimize_training(request, jobs, settings)


# -- training ---------------------------------------------------------


def _train_kwargs(request: OptimizeRequest, candidate: PlanCandidate,
                  setpoint: float, settings) -> dict:
    """Probe kwargs, spelled exactly as the setpoint refiner spells
    them so beam probes and refinement probes share cache entries
    (``pipeline_schedule`` omitted for the default, matching every
    historical 1F1B run)."""
    schedule = candidate.pipeline_schedule
    kwargs = _base_run_kwargs(
        request.model,
        request.cluster,
        candidate.parallelism.name,
        None,
        candidate.microbatch_size,
        request.global_batch_size,
        request.iterations,
        None if schedule == "1f1b" else schedule,
        None,
    )
    kwargs["settings"] = settings_for_setpoint(settings, setpoint)
    return kwargs


def _mean_power_w(result) -> float:
    """Cluster-mean power over the measured window."""
    eff = result.efficiency()
    window_s = eff.step_time_s * result.measured_iterations
    return eff.energy_j / window_s if window_s > 0 else 0.0


def _train_outcome(
    candidate: PlanCandidate,
    result,
    setpoint: float,
    objective: Objective,
    feasible: bool,
) -> CandidateOutcome:
    eff = result.efficiency()
    return CandidateOutcome(
        parallelism=candidate.parallelism.name,
        microbatch_size=candidate.microbatch_size,
        pipeline_schedule=candidate.pipeline_schedule,
        setpoint=setpoint,
        cost=objective.cost(eff.energy_j, eff.step_time_s),
        feasible=feasible,
        energy_j=eff.energy_j,
        step_time_s=eff.step_time_s,
        tokens_per_s=eff.tokens_per_s,
        mean_power_w=_mean_power_w(result),
    )


def _optimize_training(request: OptimizeRequest, jobs: int,
                       settings) -> OptimizeResult:
    from repro.core.parallel import ExecutionReport, map_runs

    model = get_model(request.model)
    cluster = get_cluster(request.cluster)
    objective = request.parsed_objective()

    # Stage 1: enumerate and prune, entirely analytic.
    raw = enumerate_candidates(
        model,
        cluster,
        global_batch_size=request.global_batch_size,
        microbatch_sizes=request.microbatch_sizes,
        schedules=request.schedules,
        parallelisms=request.parallelisms,
        space=ConfigSearchSpace(allow_fsdp=request.allow_fsdp),
    )
    kept, verdicts = prune_candidates(
        model, cluster, raw, power_cap_w=request.power_cap_w
    )
    reasons = {"tiling": 0, "schedule": 0, "memory": 0, "power_cap": 0}
    for verdict in verdicts:
        reasons[verdict.reason] += 1

    # Stage 2: roofline ranking, then simulate only the beam.
    ranked = sorted(
        kept,
        key=lambda c: (
            analytic_plan_estimate(
                model, cluster, c, objective,
                global_batch_size=request.global_batch_size,
            ).cost,
            c.name,
        ),
    )
    # Layout-diverse beam: one candidate (the best-ranked schedule ×
    # microbatch variant) per distinct parallelism layout. The analytic
    # model orders schedules on the same plan reliably (the bubble term
    # dominates) but plans less so — spending the simulation budget on
    # distinct layouts covers more of the space the estimate is fuzzy
    # about.
    beam: list[PlanCandidate] = []
    seen_layouts: set[str] = set()
    for candidate in ranked:
        if candidate.parallelism.name in seen_layouts:
            continue
        seen_layouts.add(candidate.parallelism.name)
        beam.append(candidate)
        if len(beam) >= request.beam_width:
            break
    if beam and all(c.pipeline_schedule != "1f1b" for c in beam):
        # Keep a default-schedule plan in the beam so the result always
        # carries a "don't search" baseline to measure against.
        default = next(
            (c for c in ranked if c.pipeline_schedule == "1f1b"), None
        )
        if default is not None:
            beam.append(default)

    payloads = [
        ("train", _train_kwargs(request, c, 1.0, settings)) for c in beam
    ]
    report = ExecutionReport()
    simulated = list(zip(beam, map_runs(payloads, jobs, report)))
    probes_total = len(payloads)
    probes_cached = len(report.cached)

    prune = PruneStats(
        raw=len(raw),
        pruned_tiling=reasons["tiling"],
        pruned_schedule=reasons["schedule"],
        pruned_memory=reasons["memory"],
        pruned_power_cap=reasons["power_cap"],
        ranked_out=len(kept) - len(beam),
        simulated=len(beam),
    )
    if not simulated:
        raise ValueError(
            f"no feasible plan for {request.model} on {request.cluster}: "
            f"all {len(raw)} candidates pruned "
            f"({', '.join(f'{k}={v}' for k, v in reasons.items() if v)})"
        )

    # MaxSlowdown is judged against the fastest *simulated* plan.
    fastest_s = min(
        result.efficiency().step_time_s for _, result in simulated
    )
    budget_s = (
        None if request.max_slowdown is None
        else fastest_s * (1.0 + request.max_slowdown)
    )

    def feasible_at(result) -> bool:
        eff = result.efficiency()
        if budget_s is not None and eff.step_time_s > budget_s * (1 + 1e-12):
            return False
        if request.power_cap_w is not None:
            return _mean_power_w(result) <= request.power_cap_w
        return True

    candidates = [
        _train_outcome(c, result, 1.0, objective, feasible_at(result))
        for c, result in simulated
    ]

    # Stage 3: golden-section setpoint refinement of the best feasible
    # plans. A clock cap can only slow a run down, so pure-time
    # objectives keep setpoint 1.0 and skip this stage.
    if not objective.time_only:
        refine = sorted(
            (
                (c, result) for c, result in simulated
                if feasible_at(result)
            ),
            key=lambda pair: objective.cost(
                pair[1].efficiency().energy_j,
                pair[1].efficiency().step_time_s,
            ),
        )[: request.refine_top]
        for candidate, result in refine:
            plan_time_s = result.efficiency().step_time_s
            if budget_s is None:
                plan_slack = None
            else:
                # Rebase the global budget onto this plan's own
                # baseline, which is what the refiner constrains
                # against; negative slack means even setpoint 1.0 is
                # out of budget (already marked infeasible above).
                plan_slack = max(0.0, budget_s / plan_time_s - 1.0)
            search = SearchSettings(
                lo=request.setpoint_lo,
                hi=request.setpoint_hi,
                tolerance=request.setpoint_tolerance,
                edp_exponent=objective.edp_exponent,
                max_slowdown=plan_slack,
            )
            schedule = candidate.pipeline_schedule
            outcome = optimize_setpoint(
                request.model,
                request.cluster,
                candidate.parallelism.name,
                microbatch_size=candidate.microbatch_size,
                global_batch_size=request.global_batch_size,
                iterations=request.iterations,
                settings=settings,
                search=search,
                jobs=jobs,
                pipeline_schedule=(
                    None if schedule == "1f1b" else schedule
                ),
            )
            probes_total += outcome.probes_total
            probes_cached += outcome.probes_cached
            if outcome.best.setpoint != 1.0:
                refined_feasible = outcome.best.feasible and (
                    request.power_cap_w is None
                    or _mean_power_w(outcome.best_result)
                    <= request.power_cap_w
                )
                candidates.append(_train_outcome(
                    candidate, outcome.best_result, outcome.best.setpoint,
                    objective, refined_feasible,
                ))

    candidates.sort(key=lambda c: (c.cost, c.parallelism))
    feasible = [c for c in candidates if c.feasible]
    defaults = [
        c for c in candidates
        if c.pipeline_schedule == "1f1b" and c.setpoint == 1.0
    ]
    baseline = defaults[0] if defaults else candidates[0]
    best = feasible[0] if feasible else baseline
    return OptimizeResult(
        kind=request.kind,
        objective=request.objective,
        request_digest=request.digest(),
        best=best,
        baseline=baseline,
        candidates=tuple(candidates),
        prune=prune,
        probes_total=probes_total,
        probes_cached=probes_cached,
    )


# -- serving ----------------------------------------------------------


def _serving_outcome(
    replicas: int,
    gpus: int,
    outcome,
    setpoint: float,
    feasible: bool,
) -> CandidateOutcome:
    return CandidateOutcome(
        parallelism=f"replicas{replicas}-tp{gpus}",
        microbatch_size=1,
        pipeline_schedule="",
        setpoint=setpoint,
        cost=outcome.energy.energy_per_token_j,
        feasible=feasible,
        energy_j=outcome.energy.energy_j,
        tokens_per_s=outcome.slo.goodput_per_s,
        mean_power_w=outcome.energy.mean_power_w,
        replicas=replicas,
        gpus_per_replica=gpus,
        energy_per_token_j=outcome.energy.energy_per_token_j,
        ttft_p99_s=outcome.slo.ttft.p99,
    )


def _optimize_serving(request: OptimizeRequest,
                      jobs: int) -> OptimizeResult:
    import dataclasses

    from repro.core.parallel import ExecutionReport, map_runs
    from repro.inferserve.config import ServingConfig
    from repro.models.memory import serving_kv_capacity_tokens
    from repro.optimize.serving import (
        ServingSearchSettings,
        optimize_serving_setpoint,
    )

    model = get_model(request.model)
    cluster = get_cluster(request.cluster)
    base = ServingConfig.from_dict(request.serving)
    gpu = cluster.node.gpu
    hi = request.setpoint_hi

    grid = [
        (replicas, gpus)
        for replicas in request.replicas
        for gpus in request.gpus_per_replica
    ]
    reasons = {"tiling": 0, "schedule": 0, "memory": 0, "power_cap": 0}
    deployments: list[tuple[int, int, ServingConfig]] = []
    for replicas, gpus in grid:
        if replicas * gpus > cluster.total_gpus:
            reasons["tiling"] += 1
            continue
        if request.power_cap_w is not None and (
            replicas * gpus * gpu.idle_watts > request.power_cap_w
        ):
            reasons["power_cap"] += 1
            continue
        try:
            serving_kv_capacity_tokens(model, gpu.memory_bytes, gpus)
        except ValueError:
            reasons["memory"] += 1
            continue
        try:
            config = dataclasses.replace(
                base,
                replicas=replicas,
                batcher=dataclasses.replace(
                    base.batcher, gpus_per_replica=gpus
                ),
            )
        except ValueError:
            # e.g. autoscale bounds exclude this replica count.
            reasons["tiling"] += 1
            continue
        deployments.append((replicas, gpus, config))

    if not deployments:
        raise ValueError(
            f"no feasible serving deployment for {request.model} on "
            f"{request.cluster}: all {len(grid)} grid points pruned"
        )

    payloads = [
        (
            "serve",
            dict(
                model=request.model,
                cluster=request.cluster,
                config=dataclasses.replace(config, freq_setpoint=hi),
            ),
        )
        for _, _, config in deployments
    ]
    report = ExecutionReport()
    simulated = [
        (replicas, gpus, config, outcome)
        for (replicas, gpus, config), outcome in zip(
            deployments, map_runs(payloads, jobs, report)
        )
    ]
    probes_total = len(payloads)
    probes_cached = len(report.cached)

    def cap_ok(outcome) -> bool:
        return (
            request.power_cap_w is None
            or outcome.energy.mean_power_w <= request.power_cap_w
        )

    candidates = [
        _serving_outcome(replicas, gpus, outcome, hi, cap_ok(outcome))
        for replicas, gpus, _, outcome in simulated
    ]

    simulated.sort(key=lambda item: item[3].energy.energy_per_token_j)
    for replicas, gpus, config, _ in simulated[: request.refine_top]:
        outcome = optimize_serving_setpoint(
            request.model,
            request.cluster,
            config,
            ServingSearchSettings(
                lo=request.setpoint_lo,
                hi=hi,
                tolerance=request.setpoint_tolerance,
                max_ttft_regression=request.max_ttft_regression,
            ),
            jobs=jobs,
        )
        probes_total += outcome.probes_total
        probes_cached += outcome.probes_cached
        if outcome.best.setpoint != hi:
            best_outcome = outcome.best_outcome
            candidates.append(_serving_outcome(
                replicas, gpus, best_outcome, outcome.best.setpoint,
                outcome.best.feasible and cap_ok(best_outcome),
            ))

    candidates.sort(key=lambda c: (c.cost, c.parallelism))
    feasible = [c for c in candidates if c.feasible]
    base_defaults = [
        c for c in candidates
        if c.setpoint == hi
        and c.replicas == base.replicas
        and c.gpus_per_replica == base.batcher.gpus_per_replica
    ]
    hi_points = [c for c in candidates if c.setpoint == hi]
    baseline = (
        base_defaults[0] if base_defaults
        else hi_points[0] if hi_points else candidates[0]
    )
    best = feasible[0] if feasible else baseline
    return OptimizeResult(
        kind=request.kind,
        objective=request.objective,
        request_digest=request.digest(),
        best=best,
        baseline=baseline,
        candidates=tuple(candidates),
        prune=PruneStats(
            raw=len(grid),
            pruned_tiling=reasons["tiling"],
            pruned_schedule=reasons["schedule"],
            pruned_memory=reasons["memory"],
            pruned_power_cap=reasons["power_cap"],
            ranked_out=0,
            simulated=len(deployments),
        ),
        probes_total=probes_total,
        probes_cached=probes_cached,
    )
