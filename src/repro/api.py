"""The stable, typed simulation API: ``SimRequest`` in, results out.

This module is the canonical surface every consumer — the CLI, sweeps,
the fleet simulator, and the ``repro.serve`` broker — speaks. One frozen
request schema covers training, inference, serving, and fleet jobs (a
sweep is just :func:`submit_many` over a request grid)::

    from repro.api import SimRequest, submit

    result = submit(SimRequest(
        kind="training",
        model="gpt3-13b",
        cluster="h100x64",
        parallelism="TP4-PP2",
    ))
    print(result.efficiency().tokens_per_s)

Requests validate eagerly (catalog names, strategy strings, fault and
governor flag groups — with the same did-you-mean diagnostics the CLI
prints), round-trip losslessly through ``to_dict``/``from_dict`` and
JSON, and hash to a stable :meth:`SimRequest.digest` that doubles as the
result-store address — which is how the broker answers repeat requests
without simulating.

Next to the run schema sits the search schema:
:class:`OptimizeRequest` (re-exported from :mod:`repro.optimize`) asks
for the *best* configuration instead of one configuration — a joint
plan × microbatch × schedule × setpoint auto-search with the same
validation, serialisation, and digest idioms, accepted by
:func:`submit` / :func:`submit_many`, the broker, and
``python -m repro optimize`` alike (docs/optimize.md).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Any, Iterable, Mapping

from repro.core.experiment import (
    DEFAULT_GLOBAL_BATCH,
    execute_inference,
    execute_training,
)
from repro.core.faults import FaultEvent, FaultKind, FaultSpec, FaultTimeline
from repro.core.results import RunResult
from repro.engine.simulator import SimSettings
from repro.hardware.cluster import get_cluster
from repro.models.catalog import get_model
from repro.optimize.request import OptimizeRequest, OptimizeResult
from repro.parallelism.strategy import OptimizationConfig, parse_strategy
from repro.powerctl.config import (
    GOVERNORS,
    NO_POWER_CONTROL,
    PowerControlConfig,
)
from repro.suggest import normalize_name, unknown_name_message

__all__ = [
    "KINDS",
    "OptimizeRequest",
    "OptimizeResult",
    "SimRequest",
    "submit",
    "submit_many",
]

#: Request kinds the schema covers. A sweep is ``submit_many`` over a
#: grid of ``training``/``inference``/``serving`` requests.
KINDS = ("training", "inference", "fleet", "serving")

_KIND_ALIASES = {
    "train": "training",
    "infer": "inference",
    "serve": "serving",
}

#: Keys accepted in :attr:`SimRequest.fleet` (mirroring the
#: ``repro fleet`` CLI surface; see :meth:`SimRequest.to_fleet_config`).
FLEET_KEYS = (
    "clusters",
    "policy",
    "seed",
    "num_jobs",
    "mean_interarrival_s",
    "power_cap_kw",
    "cap_mode",
    "node_mtbf_s",
    "repair_time_s",
    "recovery_policy",
    "restart_delay_s",
    "spare_swapin_s",
    "reconfig_s",
    "gpu_clock_limit",
    "gpu_power_limit_w",
)

_DEFAULT_FAULT_DURATION_S = 5.0
_DEFAULT_FAULT_POWER_SCALE = 0.25


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


@dataclass(frozen=True)
class SimRequest:
    """One typed simulation request covering all four kinds
    (training, inference, serving, or fleet).

    Every field is a plain JSON-serialisable value (plus the
    :class:`OptimizationConfig` dataclass of booleans), so a request
    round-trips losslessly through :meth:`to_dict` / :meth:`from_dict`
    and the broker's HTTP endpoint. Validation happens at construction:
    unknown catalog names, misspelled governors or fault kinds, and
    inconsistent flag groups raise :class:`ValueError` with the repo's
    did-you-mean diagnostics.

    Attributes:
        kind: ``"training"`` (default), ``"inference"``, ``"fleet"``,
            or ``"serving"``.
        model / cluster / parallelism: catalog names + paper-style
            strategy string (``"TP2-PP16"``); required unless fleet.
            Serving requests take model + cluster but no parallelism
            (replica width comes from the serving parameters).
        optimizations: optimization toggles (training only; ignored for
            inference, which always runs the forward-only profile).
        microbatch_size / global_batch_size / iterations /
            warmup_iterations: run shape (paper defaults).
        governor / freq_setpoint / power_limit_w: :mod:`repro.powerctl`
            power management; capping flags imply the static governor.
        fault_node / fault_power_scale: whole-run node power fault.
        fault_time / fault_duration / fault_kind / fault_severity:
            transient timed fault on ``fault_node``
            (:mod:`repro.resilience` taxonomy).
        pipeline_schedule: pipeline schedule name from the
            :mod:`repro.schedules` registry (``"1f1b"`` default,
            ``"interleaved"``, ``"gpipe"``, ``"zb-h1"``, ``"seq1f1b"``,
            ...). Normalised at construction; unknown names raise with
            a did-you-mean hint, and schedule constraints (interleaved
            microbatch divisibility, sequence-split support) are
            checked here rather than deep inside the graph builder.
        seq_splits: sequence splits per microbatch, for schedules that
            support them; ``None`` uses the schedule's default.
        timeout_s: per-request wall-clock budget, honoured by the
            broker (the synchronous :func:`submit` ignores it).
        fleet: fleet-job parameters (keys from :data:`FLEET_KEYS`);
            only valid — and only meaningful — when ``kind="fleet"``.
        serving: serving-deployment parameters (the
            :meth:`repro.inferserve.ServingConfig.to_dict` schema, or a
            ``ServingConfig`` itself); only valid when
            ``kind="serving"``. Normalised to the canonical full dict
            at construction so equivalent spellings share one digest.
    """

    kind: str = "training"
    model: str = ""
    cluster: str = ""
    parallelism: str = ""
    optimizations: OptimizationConfig = field(
        default_factory=OptimizationConfig
    )
    microbatch_size: int = 1
    global_batch_size: int = DEFAULT_GLOBAL_BATCH
    iterations: int = 2
    warmup_iterations: int = 1
    governor: str = "none"
    freq_setpoint: float = 1.0
    power_limit_w: float | None = None
    fault_node: int | None = None
    fault_power_scale: float | None = None
    fault_time: float | None = None
    fault_duration: float | None = None
    fault_kind: str | None = None
    fault_severity: float | None = None
    timeout_s: float | None = None
    fleet: dict | None = None
    serving: Any = None
    pipeline_schedule: str = "1f1b"
    seq_splits: int | None = None

    # -- validation -----------------------------------------------------

    def __post_init__(self) -> None:
        kind = normalize_name(str(self.kind))
        kind = _KIND_ALIASES.get(kind, kind)
        if kind not in KINDS:
            raise ValueError(unknown_name_message("request kind", self.kind, KINDS))
        object.__setattr__(self, "kind", kind)
        if kind != "serving":
            _require(self.serving is None,
                     "serving parameters require kind='serving'")
        if kind in ("fleet", "serving"):
            _require(
                self.pipeline_schedule == "1f1b"
                and self.seq_splits is None,
                "pipeline_schedule/seq_splits apply to training and "
                "inference requests",
            )
        if kind == "fleet":
            _require(
                not (self.model or self.cluster or self.parallelism),
                "fleet requests are parameterised via fleet={...}; "
                "model/cluster/parallelism belong to training and "
                "inference requests",
            )
            self._validate_fleet()
        elif kind == "serving":
            _require(self.fleet is None,
                     "fleet parameters require kind='fleet'")
            self._validate_serving()
        else:
            _require(self.fleet is None,
                     "fleet parameters require kind='fleet'")
            self._validate_workload()
        self._validate_power()
        self._validate_faults()
        if self.timeout_s is not None:
            _require(self.timeout_s > 0,
                     f"timeout_s must be > 0, got {self.timeout_s:g}")

    def _validate_workload(self) -> None:
        _require(bool(self.model), f"{self.kind} requests require a model")
        _require(bool(self.cluster),
                 f"{self.kind} requests require a cluster")
        _require(bool(self.parallelism),
                 f"{self.kind} requests require a parallelism strategy")
        try:
            get_model(self.model)
        except KeyError as error:
            raise ValueError(error.args[0]) from None
        try:
            cluster = get_cluster(self.cluster)
        except KeyError as error:
            raise ValueError(error.args[0]) from None
        strategy = parse_strategy(self.parallelism)
        _require(isinstance(self.optimizations, OptimizationConfig),
                 "optimizations must be an OptimizationConfig")
        for name in ("microbatch_size", "global_batch_size", "iterations"):
            value = getattr(self, name)
            _require(isinstance(value, int) and value >= 1,
                     f"{name} must be an integer >= 1, got {value!r}")
        self._validate_schedule(strategy, cluster)
        _require(0 <= self.warmup_iterations < self.iterations,
                 f"warmup_iterations must be in [0, iterations), got "
                 f"{self.warmup_iterations!r}")
        if self.fault_node is not None:
            num_nodes = cluster.num_nodes
            if not 0 <= self.fault_node < num_nodes:
                raise ValueError(
                    "fault_node: "
                    + unknown_name_message(
                        "node", str(self.fault_node),
                        tuple(str(i) for i in range(num_nodes)),
                    )
                    + f" (cluster {self.cluster!r} has {num_nodes} nodes)"
                )

    def _validate_schedule(self, strategy, cluster) -> None:
        """Normalise the schedule name and check its constraints early.

        Errors are spelled in the request's own vocabulary
        (``--pipeline-schedule``, ``--global-batch-size``, ...) so a
        bad combination fails at construction with an actionable
        message instead of a builder-internal one at run time.
        """
        from repro.schedules import (
            canonical_schedule_name,
            get_schedule_class,
        )

        canonical = canonical_schedule_name(self.pipeline_schedule)
        object.__setattr__(self, "pipeline_schedule", canonical)
        schedule_cls = get_schedule_class(canonical)
        if self.seq_splits is not None:
            _require(
                isinstance(self.seq_splits, int) and self.seq_splits >= 1,
                f"seq_splits must be an integer >= 1, got "
                f"{self.seq_splits!r}",
            )
            if self.seq_splits > 1 and not schedule_cls.supports_seq_splits:
                raise ValueError(
                    f"the {canonical!r} schedule does not split "
                    f"sequences; --seq-splits {self.seq_splits} needs a "
                    "sequence-split schedule such as --pipeline-schedule "
                    "seq1f1b"
                )
        if canonical != "interleaved":
            return
        pp = strategy.pp
        _require(
            pp > 1,
            "--pipeline-schedule interleaved needs a pipelined strategy "
            f"(pp >= 2); {self.parallelism!r} has pp={pp}",
        )
        # Resolve dp the same way execution will, to check Megatron's
        # microbatch-divisibility constraint before any graph is built.
        try:
            filled = strategy.fill_dp(cluster.total_gpus)
        except ValueError:
            return  # the strategy itself is the problem; reported there
        shards = filled.dp * self.microbatch_size
        if self.global_batch_size % shards == 0:
            num_microbatches = self.global_batch_size // shards
            if num_microbatches % pp:
                raise ValueError(
                    "interleaved schedule requires num_microbatches to "
                    f"be a multiple of num_stages: --global-batch-size "
                    f"{self.global_batch_size} with --microbatch-size "
                    f"{self.microbatch_size} and dp={filled.dp} gives "
                    f"{num_microbatches} microbatches, not a multiple "
                    f"of pp={pp}; adjust --global-batch-size or pick "
                    "--pipeline-schedule 1f1b"
                )

    def _validate_serving(self) -> None:
        from repro.inferserve.config import ServingConfig

        _require(bool(self.model), "serving requests require a model")
        _require(bool(self.cluster),
                 "serving requests require a cluster")
        _require(not self.parallelism,
                 "serving requests take no parallelism strategy; "
                 "replica width is serving={'batcher': "
                 "{'gpus_per_replica': ...}}")
        try:
            get_model(self.model)
        except KeyError as error:
            raise ValueError(error.args[0]) from None
        try:
            get_cluster(self.cluster)
        except KeyError as error:
            raise ValueError(error.args[0]) from None
        _require(self.governor == "none" and self.power_limit_w is None,
                 "serving power management is freq_setpoint only; "
                 "governors and power caps apply to training and "
                 "inference requests")
        _require(self.fault_node is None and self.fault_time is None,
                 "fault injection applies to training and inference "
                 "requests")
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
                "serving parameters must be a mapping or a "
                "ServingConfig"
            )
        if self.freq_setpoint != 1.0:
            _require(
                config.freq_setpoint in (1.0, self.freq_setpoint),
                "freq_setpoint given twice (request field and "
                "serving['freq_setpoint']) with different values",
            )
            config = dataclasses.replace(
                config, freq_setpoint=self.freq_setpoint
            )
        object.__setattr__(self, "serving", config.to_dict())

    def _validate_fleet(self) -> None:
        if self.fleet is None:
            return
        _require(isinstance(self.fleet, dict),
                 "fleet parameters must be a mapping")
        for key in self.fleet:
            if key not in FLEET_KEYS:
                raise ValueError(
                    "fleet: "
                    + unknown_name_message("fleet key", key, FLEET_KEYS)
                )

    def _validate_power(self) -> None:
        governor = normalize_name(str(self.governor))
        if governor not in GOVERNORS:
            raise ValueError(
                unknown_name_message("governor", self.governor, GOVERNORS)
            )
        object.__setattr__(self, "governor", governor)
        _require(0.0 < self.freq_setpoint <= 1.0,
                 f"freq_setpoint must be in (0, 1], got "
                 f"{self.freq_setpoint:g}")
        if self.power_limit_w is not None:
            _require(self.power_limit_w > 0,
                     f"power_limit_w must be > 0, got "
                     f"{self.power_limit_w:g}")

    def _validate_faults(self) -> None:
        dependent = (
            ("fault_duration", self.fault_duration),
            ("fault_kind", self.fault_kind),
            ("fault_severity", self.fault_severity),
        )
        if self.fault_time is None:
            for name, value in dependent:
                _require(value is None,
                         f"{name} requires fault_time (when does the "
                         "fault start?)")
        else:
            _require(self.fault_node is not None,
                     "fault_time requires fault_node (which node is hit?)")
            _require(self.fault_time >= 0,
                     f"fault_time must be >= 0, got {self.fault_time:g}")
            if self.fault_duration is not None:
                _require(self.fault_duration > 0,
                         f"fault_duration must be > 0, got "
                         f"{self.fault_duration:g}")
            if self.fault_kind is not None:
                kind_name = normalize_name(self.fault_kind).replace("-", "_")
                try:
                    FaultKind(kind_name)
                except ValueError:
                    raise ValueError(
                        "fault_kind: "
                        + unknown_name_message(
                            "fault kind", self.fault_kind,
                            tuple(k.value for k in FaultKind),
                        )
                    ) from None
                object.__setattr__(self, "fault_kind", kind_name)
        if self.fault_power_scale is not None:
            _require(self.fault_node is not None,
                     "fault_power_scale requires fault_node")
            _require(0.0 < self.fault_power_scale <= 1.0,
                     f"fault_power_scale must be in (0, 1], got "
                     f"{self.fault_power_scale:g}")
        if self.fault_node is not None:
            _require(self.fault_node >= 0,
                     f"fault_node must be >= 0, got {self.fault_node}")

    # -- derived configuration ------------------------------------------

    @property
    def cacheable(self) -> bool:
        """Whether results land in the content-addressed store
        (training, inference, and serving runs; fleet outcomes do
        not)."""
        return self.kind in ("training", "inference", "serving")

    @property
    def label(self) -> str:
        """Compact human-readable identity for logs and progress."""
        if self.kind == "fleet":
            return f"fleet|{(self.fleet or {}).get('policy', 'packed')}"
        if self.kind == "serving":
            params = self.serving or {}
            batcher = params.get("batcher") or {}
            return (
                f"serving|{self.model}|{self.cluster}"
                f"|r{params.get('replicas', 2)}"
                f"x{batcher.get('gpus_per_replica', 4)}"
                f"|{batcher.get('scheduler', 'continuous')}"
            )
        label = (
            f"{self.kind}|{self.model}|{self.cluster}|{self.parallelism}"
            f"|mb{self.microbatch_size}|{self.optimizations.label}"
        )
        if self.pipeline_schedule != "1f1b":
            label += f"|{self.pipeline_schedule}"
        return label

    def settings(self) -> SimSettings:
        """The :class:`SimSettings` this request's fault/governor
        fields describe (default settings when none are set)."""
        kwargs: dict = {}
        if self.fault_time is not None:
            event_kwargs: dict = {}
            if self.fault_severity is not None:
                event_kwargs["severity"] = self.fault_severity
            event = FaultEvent(
                kind=FaultKind(self.fault_kind or "power_sag"),
                node=self.fault_node,
                time_s=self.fault_time,
                duration_s=(
                    self.fault_duration
                    if self.fault_duration is not None
                    else _DEFAULT_FAULT_DURATION_S
                ),
                **event_kwargs,
            )
            kwargs["fault_timeline"] = FaultTimeline(events=(event,))
        elif self.fault_node is not None:
            scale = (
                self.fault_power_scale
                if self.fault_power_scale is not None
                else _DEFAULT_FAULT_POWER_SCALE
            )
            kwargs["faults"] = FaultSpec(
                node_power_cap_scale={self.fault_node: scale}
            )
        control = self.power_control()
        if control.active:
            kwargs["power_control"] = control
        return SimSettings(**kwargs)

    def power_control(self) -> PowerControlConfig:
        """The governor config; capping flags imply ``static``."""
        governor = self.governor
        if governor == "none" and (
            self.power_limit_w is not None or self.freq_setpoint < 1.0
        ):
            governor = "static"
        if governor == "none":
            return NO_POWER_CONTROL
        return PowerControlConfig(
            governor=governor,
            freq_setpoint=self.freq_setpoint,
            power_limit_w=self.power_limit_w,
        )

    def to_run_payload(self) -> tuple[str, dict]:
        """``(kind, kwargs)`` for :func:`repro.core.sweep.cached_run`.

        Only non-default knobs are materialised into kwargs, so a
        request and a hand-written ``cached_run`` call of the same
        shape share one cache address.
        """
        _require(self.cacheable,
                 f"{self.kind} requests have no run payload")
        if self.kind == "serving":
            from repro.inferserve.config import ServingConfig

            return (
                "serve",
                dict(
                    model=self.model,
                    cluster=self.cluster,
                    config=ServingConfig.from_dict(self.serving or {}),
                ),
            )
        kwargs: dict = dict(
            model=self.model,
            cluster=self.cluster,
            parallelism=self.parallelism,
            microbatch_size=self.microbatch_size,
            global_batch_size=self.global_batch_size,
            iterations=self.iterations,
        )
        if self.kind == "training":
            kwargs["optimizations"] = self.optimizations
        if self.warmup_iterations != 1:
            kwargs["warmup_iterations"] = self.warmup_iterations
        if self.pipeline_schedule != "1f1b":
            kwargs["pipeline_schedule"] = self.pipeline_schedule
        if self.seq_splits is not None:
            kwargs["seq_splits"] = self.seq_splits
        settings = self.settings()
        if settings != SimSettings():
            kwargs["settings"] = settings
        return ("train" if self.kind == "training" else "infer", kwargs)

    def to_fleet_config(self):
        """Build the :class:`repro.datacenter.FleetConfig` a fleet
        request describes (CLI-equivalent defaults)."""
        import math

        from repro.datacenter import (
            ArrivalConfig,
            FleetConfig,
            PowerCapConfig,
        )

        _require(self.kind == "fleet",
                 f"to_fleet_config() on a {self.kind} request")
        params = dict(self.fleet or {})
        cap_kw = params.get("power_cap_kw")
        control = NO_POWER_CONTROL
        if params.get("gpu_power_limit_w") is not None:
            control = PowerControlConfig(
                governor="static",
                power_limit_w=params["gpu_power_limit_w"],
            )
        elif params.get("gpu_clock_limit") is not None:
            control = PowerControlConfig(
                governor="static",
                freq_setpoint=params["gpu_clock_limit"],
            )
        seed = params.get("seed", 0)
        return FleetConfig(
            clusters=tuple(params.get("clusters") or ("h200x32",)),
            policy=params.get("policy", "packed"),
            seed=seed,
            power_cap=PowerCapConfig(
                facility_cap_w=(
                    math.inf if cap_kw is None else cap_kw * 1e3
                ),
                mode=params.get("cap_mode", "defer"),
            ),
            arrivals=ArrivalConfig(
                num_jobs=params.get("num_jobs", 12),
                mean_interarrival_s=params.get("mean_interarrival_s", 20.0),
                seed=seed,
            ),
            node_mtbf_s=params.get("node_mtbf_s", 0.0),
            repair_time_s=params.get("repair_time_s", 180.0),
            recovery_policy=params.get("recovery_policy", "failstop"),
            restart_delay_s=params.get("restart_delay_s", 0.0),
            spare_swapin_s=params.get("spare_swapin_s", 0.0),
            reconfig_s=params.get("reconfig_s", 0.0),
            power_control=control,
        )

    # -- serialisation --------------------------------------------------

    def to_dict(self) -> dict:
        """Plain JSON-serialisable dict; inverse of :meth:`from_dict`."""
        data: dict = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.name == "optimizations":
                value = dataclasses.asdict(value)
            elif spec.name in ("fleet", "serving") and value is not None:
                value = dict(value)
            data[spec.name] = value
        return data

    def to_json(self) -> str:
        """Canonical JSON form (sorted keys; digest input)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SimRequest":
        """Rebuild a request, rejecting unknown keys with did-you-mean."""
        known = {spec.name for spec in fields(cls)}
        kwargs: dict = {}
        for key, value in dict(data).items():
            if key not in known:
                raise ValueError(
                    unknown_name_message(
                        "request field", key, sorted(known)
                    )
                )
            kwargs[key] = value
        opts = kwargs.get("optimizations")
        if isinstance(opts, Mapping):
            opt_fields = {spec.name for spec in fields(OptimizationConfig)}
            for key in opts:
                if key not in opt_fields:
                    raise ValueError(
                        "optimizations: "
                        + unknown_name_message(
                            "optimization field", key, sorted(opt_fields)
                        )
                    )
            kwargs["optimizations"] = OptimizationConfig(**dict(opts))
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str) -> "SimRequest":
        """Inverse of :meth:`to_json`."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ValueError(f"invalid request JSON: {error}") from None
        if not isinstance(data, dict):
            raise ValueError("request JSON must be an object")
        return cls.from_dict(data)

    def digest(self) -> str:
        """Stable identity hash; for cacheable kinds this is exactly
        the result-store address :func:`repro.core.sweep.cached_run`
        writes to, so a digest match *is* a cache hit."""
        if self.cacheable:
            from repro.core.sweep import cache_key, key_digest

            return key_digest(cache_key(*self.to_run_payload()))
        return hashlib.sha256(self.to_json().encode()).hexdigest()


def submit(request: SimRequest | OptimizeRequest, *, cache: bool = True):
    """Execute one request synchronously and return its result.

    Training/inference requests return a :class:`RunResult`; serving
    requests a :class:`repro.inferserve.ServingOutcome`; fleet
    requests a :class:`repro.datacenter.FleetOutcome`; optimize
    requests an :class:`OptimizeResult`. With ``cache=True`` (default)
    runs go through the memo + persistent store; ``cache=False`` forces
    a fresh simulation (results are deterministic either way).
    """
    if isinstance(request, OptimizeRequest):
        from repro.optimize.search import run_optimize

        return run_optimize(request, cached=cache)
    if not isinstance(request, SimRequest):
        raise TypeError(
            f"submit() takes a SimRequest or OptimizeRequest, "
            f"got {type(request).__name__}"
        )
    if request.kind == "fleet":
        from repro.datacenter import simulate_fleet

        return simulate_fleet(request.to_fleet_config())
    kind, kwargs = request.to_run_payload()
    if cache:
        from repro.core.sweep import cached_run

        return cached_run(kind, **kwargs)
    if kind == "serve":
        from repro.inferserve.engine import execute_serving

        return execute_serving(**kwargs)
    runner = execute_training if kind == "train" else execute_inference
    return runner(**kwargs)


class BatchResult(list):
    """:func:`submit_many`'s return value: results in request order.

    A plain list (fully backwards compatible) carrying one extra
    attribute, :attr:`report` — the
    :class:`repro.core.parallel.ExecutionReport` describing how the
    batch actually executed (worker crashes survived, payloads that
    fell back in-process).
    """

    def __init__(self, items, report) -> None:
        super().__init__(items)
        self.report = report


def submit_many(
    requests: Iterable[SimRequest | OptimizeRequest],
    *,
    jobs: int = 1,
    report=None,
) -> BatchResult:
    """Execute a batch of requests; results come back in input order.

    Duplicate requests (same :meth:`SimRequest.digest`) simulate once.
    With ``jobs == 1`` cacheable requests stay in-process and batch
    through :func:`repro.engine.batched.evaluate_grid` (shared-graph
    grids anchor once and replay). With ``jobs > 1`` (values below 1
    mean auto) the whole batch shares one persistent
    :class:`repro.serve.workers.WorkerPool` — workers are spawned once
    for the batch, steal work from each other, and crashed payloads are
    retried then completed in-process, so no request is dropped. Fleet
    requests run in-process either way.

    Returns a :class:`BatchResult` (a list) whose ``report`` attribute
    records any crash recovery; pass your own ``report`` to accumulate
    across batches.
    """
    from repro.core.parallel import ExecutionReport, map_runs, resolve_jobs
    from repro.core.sweep import seed_memo

    requests = list(requests)
    for request in requests:
        if not isinstance(request, (SimRequest, OptimizeRequest)):
            raise TypeError(
                "submit_many() takes SimRequests/OptimizeRequests, got "
                f"{type(request).__name__}"
            )
    if report is None:
        report = ExecutionReport()
    jobs = 1 if jobs == 1 else resolve_jobs(jobs)
    distinct: dict[str, SimRequest] = {}
    for request in requests:
        distinct.setdefault(request.digest(), request)
    pooled = [
        (digest, request)
        for digest, request in distinct.items()
        if request.cacheable
    ]
    payloads = [request.to_run_payload() for _, request in pooled]
    if jobs > 1 and len(payloads) > 1:
        from repro.serve.workers import WorkerPool

        with WorkerPool(min(jobs, len(payloads))) as pool:
            outputs = pool.map(payloads, report)
    else:
        outputs = map_runs(payloads, 1, report)
    results: dict[str, Any] = {}
    for (digest, _), payload, output in zip(pooled, payloads, outputs):
        seed_memo(payload[0], payload[1], output)
        results[digest] = output
    for digest, request in distinct.items():
        if not request.cacheable:
            results[digest] = submit(request)
    return BatchResult(
        [results[request.digest()] for request in requests], report
    )
