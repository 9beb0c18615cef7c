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
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.core.experiment import DEFAULT_GLOBAL_BATCH
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

if TYPE_CHECKING:
    from repro.core.sweep import RunIdentity

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

@dataclass(frozen=True)
class FleetParams:
    """The parameters a fleet request takes in :attr:`SimRequest.fleet`
    (the ``repro fleet`` flags; see :meth:`SimRequest.to_fleet_config`)."""

    clusters: tuple[str, ...] = field(
        default=("h200x32",),
        metadata={"help": "clusters in the fleet pool"})
    policy: str = field(
        default="packed",
        metadata={"help": "placement: packed, spread, or thermal-aware"})
    seed: int = field(default=0, metadata={"help": "arrival and fault seed"})
    num_jobs: int = field(
        default=12, metadata={"help": "number of arriving jobs"})
    mean_interarrival_s: float = field(
        default=20.0,
        metadata={"help": "mean interarrival time (exponential)"})
    power_cap_kw: float | None = field(
        default=None, metadata={"help": "facility power cap in kW"})
    cap_mode: str = field(
        default="defer",
        metadata={"help": "cap enforcement: defer or cap"})
    node_mtbf_s: float = field(
        default=0.0,
        metadata={"help": "per-node mean time between failures (0 = off)"})
    repair_time_s: float = field(
        default=180.0, metadata={"help": "node repair time after a fault"})
    recovery_policy: str = field(
        default="failstop",
        metadata={"help": "interrupted jobs: failstop, hot-spare, elastic"})
    restart_delay_s: float = field(
        default=0.0, metadata={"help": "failstop: delay before requeue"})
    spare_swapin_s: float = field(
        default=0.0, metadata={"help": "hot-spare: delay before requeue"})
    reconfig_s: float = field(
        default=0.0, metadata={"help": "elastic: delay before requeue"})
    gpu_clock_limit: float | None = field(
        default=None,
        metadata={"help": "static clock ceiling on every placed job"})
    gpu_power_limit_w: float | None = field(
        default=None,
        metadata={"help": "per-GPU board power limit in W (overrides "
                          "gpu_clock_limit)"})


#: Keys accepted in :attr:`SimRequest.fleet`.
FLEET_KEYS = tuple(spec.name for spec in fields(FleetParams))

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

    kind: str = field(
        default="training",
        metadata={"help": "request kind: training, inference, or serving"})
    model: str = field(default="", metadata={"help": "catalog model name"})
    cluster: str = field(
        default="", metadata={"help": "catalog cluster name"})
    parallelism: str = field(
        default="",
        metadata={"help": "paper-style strategy, e.g. TP2-PP16 or "
                          "EP8-TP1-PP4"})
    optimizations: OptimizationConfig = field(
        default_factory=OptimizationConfig
    )
    microbatch_size: int = field(
        default=1, metadata={"help": "sequences per microbatch"})
    global_batch_size: int = field(
        default=DEFAULT_GLOBAL_BATCH,
        metadata={"help": "sequences per optimizer step"})
    iterations: int = field(
        default=2, metadata={"help": "simulated iterations"})
    warmup_iterations: int = field(
        default=1,
        metadata={"help": "leading iterations left out of the metrics"})
    governor: str = field(
        default="none",
        metadata={"help": "power governor: none, static, thermal, or "
                          "straggler"})
    freq_setpoint: float = field(
        default=1.0,
        metadata={"help": "clock-ratio ceiling in (0, 1]; below 1.0 "
                          "implies the static governor"})
    power_limit_w: float | None = field(
        default=None,
        metadata={"help": "per-GPU board power limit in W (implies the "
                          "static governor)"})
    fault_node: int | None = field(
        default=None,
        metadata={"help": "node hit by a power fault (Section 1 "
                          "incident)"})
    fault_power_scale: float | None = field(
        default=None,
        metadata={"help": "power-cap multiplier the faulted node is "
                          "pinned to (0.25 when omitted)"})
    fault_time: float | None = field(
        default=None,
        metadata={"help": "onset second of a transient timed fault on "
                          "fault_node"})
    fault_duration: float | None = field(
        default=None,
        metadata={"help": "timed fault duration in seconds (5 when "
                          "omitted)"})
    fault_kind: str | None = field(
        default=None,
        metadata={"help": "timed fault class: power_sag (default), "
                          "link_degrade, gpu_failstop, thermal_runaway, "
                          "or ecc_stall"})
    fault_severity: float | None = field(
        default=None,
        metadata={"help": "kind-specific severity (per-kind paper value "
                          "when omitted)"})
    timeout_s: float | None = None
    fleet: dict | None = None
    serving: Any = None
    pipeline_schedule: str = field(
        default="1f1b",
        metadata={"help": "pipeline schedule: 1f1b, interleaved, gpipe, "
                          "zb-h1, or seq1f1b"})
    seq_splits: int | None = field(
        default=None,
        metadata={"help": "sequence splits per microbatch (schedule "
                          "default when omitted)"})

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

        Errors name the request's own fields (``pipeline_schedule``,
        ``global_batch_size``, ...; the CLI spells them as flags) so a
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
                    f"sequences; seq_splits {self.seq_splits} needs a "
                    "sequence-split schedule such as pipeline_schedule "
                    "seq1f1b"
                )
        if canonical != "interleaved":
            return
        pp = strategy.pp
        _require(
            pp > 1,
            "pipeline_schedule interleaved needs a pipelined strategy "
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
                    f"be a multiple of num_stages: global_batch_size "
                    f"{self.global_batch_size} with microbatch_size "
                    f"{self.microbatch_size} and dp={filled.dp} gives "
                    f"{num_microbatches} microbatches, not a multiple "
                    f"of pp={pp}; adjust global_batch_size or pick "
                    "pipeline_schedule 1f1b"
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
        from repro.datacenter import CAP_MODES, POLICIES
        from repro.resilience.recovery import POLICIES as RECOVERY_POLICIES

        for key, known in (
            ("policy", POLICIES),
            ("cap_mode", CAP_MODES),
            ("recovery_policy", RECOVERY_POLICIES),
        ):
            value = self.fleet.get(key)
            if value is not None and value not in known:
                raise ValueError(
                    unknown_name_message(f"fleet {key}", str(value), known)
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
        params = FleetParams(**(self.fleet or {}))
        control = NO_POWER_CONTROL
        if params.gpu_power_limit_w is not None:
            control = PowerControlConfig(
                governor="static", power_limit_w=params.gpu_power_limit_w
            )
        elif params.gpu_clock_limit is not None:
            control = PowerControlConfig(
                governor="static", freq_setpoint=params.gpu_clock_limit
            )
        cap_kw = params.power_cap_kw
        return FleetConfig(
            clusters=tuple(params.clusters or ("h200x32",)),
            policy=params.policy,
            seed=params.seed,
            power_cap=PowerCapConfig(
                facility_cap_w=(
                    math.inf if cap_kw is None else cap_kw * 1e3
                ),
                mode=params.cap_mode,
            ),
            arrivals=ArrivalConfig(
                num_jobs=params.num_jobs,
                mean_interarrival_s=params.mean_interarrival_s,
                seed=params.seed,
            ),
            node_mtbf_s=params.node_mtbf_s,
            repair_time_s=params.repair_time_s,
            recovery_policy=params.recovery_policy,
            restart_delay_s=params.restart_delay_s,
            spare_swapin_s=params.spare_swapin_s,
            reconfig_s=params.reconfig_s,
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

    def identity(self) -> RunIdentity:
        """This request's :class:`repro.core.sweep.RunIdentity`: its run
        payload, memo key and digest, built once. The serve tier carries
        it beside the request, so no later step re-derives the key."""
        from repro.core.sweep import RunIdentity, identify

        if self.cacheable:
            return identify(*self.to_run_payload())
        return RunIdentity(
            None, None, hashlib.sha256(self.to_json().encode()).hexdigest()
        )

    def digest(self) -> str:
        """Stable identity hash; for cacheable kinds this is exactly
        the result-store address :func:`repro.core.sweep.cached_run`
        writes to, so a digest match *is* a cache hit."""
        return self.identity().digest


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
    from repro.core.sweep import _runner_for

    return _runner_for(kind)(**kwargs)


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
    Cacheable requests go through :func:`repro.core.parallel.map_runs`,
    which probes the memo and the store for each in this process first.
    With ``jobs == 1`` the misses stay in-process and batch through
    :func:`repro.engine.batched.evaluate_grid` (a shared-graph grid
    builds its graph once, then replays or runs each point on it).
    With ``jobs > 1`` (values below 1 mean auto) the misses share one
    :class:`repro.serve.workers.WorkerPool`, started only if something
    is missing — workers steal work from each other, and crashed
    payloads are retried then completed in-process, so no request is
    dropped. Fleet requests run in-process either way.

    Returns a :class:`BatchResult` (a list) whose ``report`` attribute
    records, by request position, which requests the cache answered
    (``cached``) and any crash recovery; pass your own ``report`` to
    accumulate across batches.
    """
    from repro.core.parallel import ExecutionReport, map_runs, resolve_jobs

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
    pooled = [i for i, request in enumerate(requests) if request.cacheable]
    part = ExecutionReport()
    outputs = map_runs(
        [requests[i].to_run_payload() for i in pooled], jobs, part
    )
    for name in ("retried", "fell_back", "cached"):
        getattr(report, name).extend(pooled[i] for i in getattr(part, name))
    results: dict[int, Any] = dict(zip(pooled, outputs))
    others: dict[str, Any] = {}
    for index, request in enumerate(requests):
        if index not in results:
            digest = request.digest()
            if digest not in others:
                others[digest] = submit(request)
            results[index] = others[digest]
    return BatchResult([results[i] for i in range(len(requests))], report)
