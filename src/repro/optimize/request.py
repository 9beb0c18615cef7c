"""`OptimizeRequest` / `OptimizeResult`: the typed joint-search envelope.

The optimizer's API surface mirrors :class:`repro.api.SimRequest` —
frozen dataclasses, eager validation with did-you-mean diagnostics,
lossless ``to_dict``/``from_dict``/JSON round-trips, and a stable
:meth:`OptimizeRequest.digest` that doubles as the result-store
address. ``repro.api`` re-exports both classes; they are defined here
(below :mod:`repro.api` in the import graph) so the optimizer core can
build them without a cycle.

An :class:`OptimizeRequest` answers "hand me the best config": it
describes the *search* — objective, constraints, and grid axes — not a
single run. :class:`OptimizeResult` carries the winning
(plan, microbatch, schedule, setpoint) tuple, the simulated baseline it
beat, every simulated candidate, and an auditable prune ledger.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.hardware.cluster import get_cluster
from repro.models.catalog import get_model
from repro.optimize.objective import Objective, parse_objective
from repro.parallelism.strategy import parse_strategy
from repro.suggest import normalize_name, unknown_name_message

if TYPE_CHECKING:
    from repro.core.sweep import RunIdentity

__all__ = [
    "OPTIMIZE_KINDS",
    "CandidateOutcome",
    "OptimizeRequest",
    "OptimizeResult",
    "PruneStats",
]

#: Search kinds the schema covers (serving adds the replica axes).
OPTIMIZE_KINDS = ("training", "serving")

_KIND_ALIASES = {"train": "training", "serve": "serving"}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _int_tuple(name: str, values: Any, minimum: int = 1) -> tuple[int, ...]:
    try:
        items = tuple(values)
    except TypeError:
        raise ValueError(
            f"{name} must be a sequence of integers, got {values!r}"
        ) from None
    out = []
    for item in items:
        _require(
            isinstance(item, int) and not isinstance(item, bool)
            and item >= minimum,
            f"{name} entries must be integers >= {minimum}, got {item!r}",
        )
        out.append(item)
    return tuple(dict.fromkeys(sorted(out)))


@dataclass(frozen=True)
class OptimizeRequest:
    """One joint auto-search request.

    Each field's ``help`` metadata documents it (``repro optimize
    --help`` prints them as flags). ``serving`` is the base serving
    deployment (``ServingConfig`` dict form) of a serving search, and
    ``timeout_s`` the per-request wall-clock budget the broker honours.
    """

    kind: str = field(
        default="training",
        metadata={"help": "search a training plan grid or a serving "
                          "deployment grid (training, serving)"})
    model: str = field(default="", metadata={"help": "catalog model name"})
    cluster: str = field(
        default="", metadata={"help": "catalog cluster name"})
    objective: str = field(
        default="energy_delay",
        metadata={"help": "energy, energy_delay, energy_delay2, "
                          "energy_delay^N, time, or energy_per_token "
                          "(serving; the default there)"})
    max_slowdown: float | None = field(
        default=0.05,
        metadata={"help": "max step-time inflation vs the fastest "
                          "simulated plan (none = unbounded)"})
    max_ttft_regression: float = field(
        default=0.05,
        metadata={"help": "serving: max p99 TTFT inflation during "
                          "setpoint refinement"})
    power_cap_w: float | None = field(
        default=None,
        metadata={"help": "facility power cap on the cluster's mean draw; "
                          "plans over it even at idle clocks are pruned"})
    global_batch_size: int = field(
        default=32, metadata={"help": "training: sequences per step"})
    iterations: int = field(
        default=2, metadata={"help": "training: simulated iterations"})
    microbatch_sizes: tuple[int, ...] = field(
        default=(1, 2, 4), metadata={"help": "microbatch grid axis"})
    schedules: tuple[str, ...] | None = field(
        default=None,
        metadata={"help": "pipeline-schedule axis (every registered "
                          "schedule when omitted)"})
    parallelisms: tuple[str, ...] | None = field(
        default=None,
        metadata={"help": "plan axis of explicit strategies (every "
                          "tiling-valid plan when omitted)"})
    allow_fsdp: bool = field(
        default=False,
        metadata={"help": "include TP+FSDP plans in the plan axis"})
    beam_width: int = field(
        default=4,
        metadata={"help": "plans simulated after analytic ranking"})
    refine_top: int = field(
        default=2,
        metadata={"help": "feasible plans given the golden-section "
                          "setpoint search"})
    setpoint_lo: float = field(
        default=0.55, metadata={"help": "setpoint bracket lower bound"})
    setpoint_hi: float = field(
        default=1.0, metadata={"help": "setpoint bracket upper bound"})
    setpoint_tolerance: float = field(
        default=0.03,
        metadata={"help": "setpoint bracket width at convergence"})
    replicas: tuple[int, ...] = field(
        default=(),
        metadata={"help": "serving: replica-count axis (the base "
                          "deployment's when omitted)"})
    gpus_per_replica: tuple[int, ...] = field(
        default=(),
        metadata={"help": "serving: per-replica GPU axis (the base "
                          "deployment's when omitted)"})
    serving: Any = None
    timeout_s: float | None = None

    # -- validation -----------------------------------------------------

    def __post_init__(self) -> None:
        kind = normalize_name(str(self.kind))
        kind = _KIND_ALIASES.get(kind, kind)
        if kind not in OPTIMIZE_KINDS:
            raise ValueError(
                unknown_name_message(
                    "optimize kind", self.kind, OPTIMIZE_KINDS
                )
            )
        object.__setattr__(self, "kind", kind)
        _require(bool(self.model), "optimize requests require a model")
        _require(bool(self.cluster),
                 "optimize requests require a cluster")
        try:
            get_model(self.model)
        except KeyError as error:
            raise ValueError(error.args[0]) from None
        try:
            cluster = get_cluster(self.cluster)
        except KeyError as error:
            raise ValueError(error.args[0]) from None
        self._validate_objective()
        self._validate_bounds()
        if self.kind == "serving":
            self._validate_serving()
        else:
            _require(self.serving is None,
                     "serving parameters require kind='serving'")
            _require(
                self.replicas == () and self.gpus_per_replica == (),
                "replicas/gpus_per_replica apply to serving searches",
            )
            self._validate_grid(cluster)

    def _validate_objective(self) -> None:
        parsed = parse_objective(self.objective)
        if self.kind == "serving":
            if self.objective == type(self).objective and not parsed.serving:
                # The class default is a training objective; a serving
                # search that did not pick one means energy per token.
                parsed = parse_objective("energy_per_token")
            _require(
                parsed.serving,
                f"objective {self.objective!r} is a training objective; "
                "serving searches minimise 'energy_per_token'",
            )
        else:
            _require(
                not parsed.serving,
                f"objective {self.objective!r} applies to serving "
                "searches (kind='serving')",
            )
        object.__setattr__(self, "objective", parsed.name)

    def _validate_bounds(self) -> None:
        if self.max_slowdown is not None:
            _require(self.max_slowdown >= 0,
                     f"max_slowdown must be >= 0 (or None), got "
                     f"{self.max_slowdown:g}")
        _require(self.max_ttft_regression >= 0,
                 f"max_ttft_regression must be >= 0, got "
                 f"{self.max_ttft_regression:g}")
        if self.power_cap_w is not None:
            _require(self.power_cap_w > 0,
                     f"power_cap_w must be > 0, got {self.power_cap_w:g}")
        for name in ("global_batch_size", "iterations",
                     "beam_width", "refine_top"):
            value = getattr(self, name)
            _require(isinstance(value, int) and value >= 1,
                     f"{name} must be an integer >= 1, got {value!r}")
        _require(
            0.0 < self.setpoint_lo < self.setpoint_hi <= 1.0,
            "setpoint bracket must satisfy 0 < lo < hi <= 1, got "
            f"[{self.setpoint_lo:g}, {self.setpoint_hi:g}]",
        )
        _require(self.setpoint_tolerance > 0,
                 f"setpoint_tolerance must be > 0, got "
                 f"{self.setpoint_tolerance:g}")
        if self.timeout_s is not None:
            _require(self.timeout_s > 0,
                     f"timeout_s must be > 0, got {self.timeout_s:g}")

    def _validate_grid(self, cluster) -> None:
        object.__setattr__(
            self, "microbatch_sizes",
            _int_tuple("microbatch_sizes", self.microbatch_sizes),
        )
        _require(bool(self.microbatch_sizes),
                 "microbatch_sizes must not be empty")
        if self.schedules is not None:
            from repro.schedules import canonical_schedule_name

            names = tuple(
                canonical_schedule_name(str(name))
                for name in self.schedules
            )
            _require(bool(names), "schedules must not be empty (or None)")
            object.__setattr__(
                self, "schedules", tuple(dict.fromkeys(sorted(names)))
            )
        if self.parallelisms is not None:
            plans = []
            for entry in self.parallelisms:
                filled = parse_strategy(str(entry)).fill_dp(
                    cluster.total_gpus
                )
                plans.append(filled.name)
            _require(bool(plans),
                     "parallelisms must not be empty (or None)")
            object.__setattr__(
                self, "parallelisms", tuple(dict.fromkeys(sorted(plans)))
            )

    def _validate_serving(self) -> None:
        from repro.inferserve.config import ServingConfig

        payload = self.serving
        if payload is None:
            payload = {}
        if isinstance(payload, ServingConfig):
            config = payload
        elif isinstance(payload, Mapping):
            try:
                config = ServingConfig.from_dict(payload)
            except (TypeError, ValueError) as error:
                raise ValueError(f"serving: {error}") from None
        else:
            raise ValueError(
                "serving parameters must be a mapping or a ServingConfig"
            )
        object.__setattr__(self, "serving", config.to_dict())
        replicas = _int_tuple("replicas", self.replicas)
        gpus = _int_tuple("gpus_per_replica", self.gpus_per_replica)
        if not replicas:
            replicas = (config.replicas,)
        if not gpus:
            gpus = (config.batcher.gpus_per_replica,)
        object.__setattr__(self, "replicas", replicas)
        object.__setattr__(self, "gpus_per_replica", gpus)
        object.__setattr__(
            self, "microbatch_sizes",
            _int_tuple("microbatch_sizes", self.microbatch_sizes),
        )
        _require(
            self.schedules is None and self.parallelisms is None,
            "schedules/parallelisms apply to training searches; the "
            "serving grid is replicas x gpus_per_replica",
        )

    # -- derived --------------------------------------------------------

    @property
    def cacheable(self) -> bool:
        """Optimize results land in the content-addressed store."""
        return True

    @property
    def label(self) -> str:
        """Compact human-readable identity for logs and progress."""
        return (
            f"optimize|{self.kind}|{self.model}|{self.cluster}"
            f"|{self.objective}"
        )

    def parsed_objective(self) -> Objective:
        """The validated :class:`repro.optimize.Objective`."""
        return parse_objective(self.objective)

    def to_run_payload(self) -> tuple[str, dict]:
        """``(kind, kwargs)`` for :func:`repro.core.sweep.cached_run`.

        The whole request rides in one ``request`` kwarg (its canonical
        dict form), so the search result is content-addressed by every
        knob that can change it.
        """
        return ("optimize", {"request": self.to_dict()})

    # -- serialisation --------------------------------------------------

    def to_dict(self) -> dict:
        """Plain JSON-serialisable dict; inverse of :meth:`from_dict`."""
        data: dict = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, tuple):
                value = list(value)
            elif spec.name == "serving" and value is not None:
                value = dict(value)
            data[spec.name] = value
        return data

    def to_json(self) -> str:
        """Canonical JSON form (sorted keys; digest input)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "OptimizeRequest":
        """Rebuild a request, rejecting unknown keys with did-you-mean."""
        known = {spec.name for spec in fields(cls)}
        kwargs: dict = {}
        for key, value in dict(data).items():
            if key not in known:
                raise ValueError(
                    unknown_name_message(
                        "optimize field", key, sorted(known)
                    )
                )
            if isinstance(value, list):
                value = tuple(value)
            kwargs[key] = value
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str) -> "OptimizeRequest":
        """Inverse of :meth:`to_json`."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ValueError(f"invalid request JSON: {error}") from None
        if not isinstance(data, dict):
            raise ValueError("request JSON must be an object")
        return cls.from_dict(data)

    def identity(self) -> RunIdentity:
        """This request's :class:`repro.core.sweep.RunIdentity` (run
        payload, memo key and digest, built once), as
        :meth:`repro.api.SimRequest.identity`."""
        from repro.core.sweep import identify

        return identify(*self.to_run_payload())

    def digest(self) -> str:
        """Stable identity hash — exactly the result-store address
        :func:`repro.core.sweep.cached_run` writes the search result
        to, so a digest match *is* a cache hit."""
        return self.identity().digest


@dataclass(frozen=True)
class CandidateOutcome:
    """One simulated point of the joint grid (a plan at a setpoint).

    Training candidates fill ``energy_j``/``step_time_s``/
    ``tokens_per_s``; serving candidates fill ``replicas``/
    ``gpus_per_replica``/``energy_per_token_j``/``ttft_p99_s``.
    ``cost`` is the request objective's value (lower is better);
    ``feasible`` folds in every constraint (MaxSlowdown or TTFT budget,
    and the facility power cap).
    """

    parallelism: str = ""
    microbatch_size: int = 1
    pipeline_schedule: str = "1f1b"
    setpoint: float = 1.0
    cost: float = 0.0
    feasible: bool = True
    energy_j: float | None = None
    step_time_s: float | None = None
    tokens_per_s: float | None = None
    mean_power_w: float | None = None
    replicas: int | None = None
    gpus_per_replica: int | None = None
    energy_per_token_j: float | None = None
    ttft_p99_s: float | None = None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CandidateOutcome":
        return cls(**dict(data))


@dataclass(frozen=True)
class PruneStats:
    """The prune ledger: where every raw grid point went.

    ``raw == pruned (by reason) + ranked_out + simulated`` — nothing is
    dropped silently, and ``pruned_fraction`` is the paper-facing
    "eliminated before any simulation" number the optimize benchmark
    pins at >= 80%.
    """

    raw: int = 0
    pruned_tiling: int = 0
    pruned_schedule: int = 0
    pruned_memory: int = 0
    pruned_power_cap: int = 0
    ranked_out: int = 0
    simulated: int = 0

    @property
    def pruned_fraction(self) -> float:
        """Fraction of the raw grid never simulated."""
        if self.raw <= 0:
            return 0.0
        return 1.0 - self.simulated / self.raw

    def to_dict(self) -> dict:
        data = dataclasses.asdict(self)
        data["pruned_fraction"] = self.pruned_fraction
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PruneStats":
        payload = dict(data)
        payload.pop("pruned_fraction", None)
        return cls(**payload)


@dataclass(frozen=True)
class OptimizeResult:
    """Everything one joint search produced.

    Attributes:
        kind / objective / request_digest: identity of the search.
        best: the winning (plan, microbatch, schedule, setpoint) point.
        baseline: best *default-schedule, default-setpoint* simulated
            candidate — the "don't search" reference the improvement is
            measured against (``None`` when nothing simulated).
        candidates: every simulated point, best-first.
        prune: the raw-grid ledger.
        probes_total / probes_cached: simulation probes issued across
            the whole search and how many were answered from the
            memo/store — a warm re-run reports ~100% cached.
    """

    kind: str
    objective: str
    request_digest: str
    best: CandidateOutcome
    baseline: CandidateOutcome | None
    candidates: tuple[CandidateOutcome, ...]
    prune: PruneStats
    probes_total: int = 0
    probes_cached: int = 0

    @property
    def improvement_fraction(self) -> float:
        """Objective-cost reduction of ``best`` vs ``baseline``."""
        if self.baseline is None or self.baseline.cost <= 0:
            return 0.0
        return 1.0 - self.best.cost / self.baseline.cost

    @property
    def cached_fraction(self) -> float:
        """Fraction of probes answered without fresh simulation."""
        if self.probes_total <= 0:
            return 0.0
        return self.probes_cached / self.probes_total

    def to_dict(self) -> dict:
        """Plain JSON-serialisable dict (derived fractions included)."""
        return {
            "kind": self.kind,
            "objective": self.objective,
            "request_digest": self.request_digest,
            "best": self.best.to_dict(),
            "baseline": (
                None if self.baseline is None else self.baseline.to_dict()
            ),
            "candidates": [c.to_dict() for c in self.candidates],
            "prune": self.prune.to_dict(),
            "probes_total": self.probes_total,
            "probes_cached": self.probes_cached,
            "improvement_fraction": self.improvement_fraction,
            "cached_fraction": self.cached_fraction,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "OptimizeResult":
        payload = dict(data)
        payload.pop("improvement_fraction", None)
        payload.pop("cached_fraction", None)
        baseline = payload.get("baseline")
        return cls(
            kind=payload["kind"],
            objective=payload["objective"],
            request_digest=payload["request_digest"],
            best=CandidateOutcome.from_dict(payload["best"]),
            baseline=(
                None if baseline is None
                else CandidateOutcome.from_dict(baseline)
            ),
            candidates=tuple(
                CandidateOutcome.from_dict(c)
                for c in payload.get("candidates", ())
            ),
            prune=PruneStats.from_dict(payload.get("prune", {})),
            probes_total=payload.get("probes_total", 0),
            probes_cached=payload.get("probes_cached", 0),
        )


# The persistent store only deserialises registered result types (so a
# corrupted or foreign pickle cannot masquerade as a result); optimize
# search outcomes join that address space here, at definition time.
from repro.core.store import register_result_type  # noqa: E402

register_result_type(OptimizeResult)
