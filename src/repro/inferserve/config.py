"""Configuration schema for the serving simulator.

One frozen, JSON-round-trippable :class:`ServingConfig` describes a
deployment: the arrival trace, the batching engine, SLO targets, the
autoscaler, and the DVFS setpoint. It is the payload behind
``SimRequest(kind="serving")`` and the unit the result cache addresses.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, fields
from typing import Any, Mapping

from repro.inferserve.traces import TraceConfig
from repro.suggest import normalize_name, unknown_name_message

__all__ = [
    "SCHEDULERS",
    "AutoscaleConfig",
    "BatcherConfig",
    "ServingConfig",
    "SloConfig",
]

#: Batching disciplines: iteration-level continuous batching (requests
#: join and leave the running batch every decode step) vs. the
#: run-to-completion baseline (a batch admits once and drains fully).
SCHEDULERS = ("continuous", "run_to_completion")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _from_mapping(cls, data: Mapping[str, Any], label: str):
    known = {spec.name for spec in fields(cls)}
    for key in data:
        if key not in known:
            raise ValueError(
                f"{label}: "
                + unknown_name_message(f"{label} field", key, sorted(known))
            )
    return cls(**dict(data))


@dataclass(frozen=True)
class BatcherConfig:
    """Continuous-batching engine parameters (each field's ``help``
    metadata documents it)."""

    scheduler: str = field(
        default="continuous",
        metadata={"help": "batching discipline: continuous or "
                          "run_to_completion"})
    gpus_per_replica: int = field(
        default=4, metadata={"help": "tensor-parallel width of one replica"})
    max_batch_requests: int = field(
        default=64, metadata={"help": "in-flight request ceiling per replica"})
    decode_quantum_tokens: int = field(
        default=8,
        metadata={"help": "decode steps folded into one scheduling round "
                          "(admission happens at round boundaries)"})
    kv_headroom_fraction: float = field(
        default=0.9,
        metadata={"help": "share of post-weights HBM granted to the KV "
                          "cache"})
    admission_queue_limit: int = field(
        default=0,
        metadata={"help": "pending-queue depth beyond which arrivals are "
                          "rejected (0 disables rejection)"})
    disaggregated: bool = field(
        default=False,
        metadata={"help": "split replicas into a prefill pool and a decode "
                          "pool (Splitwise-style)"})
    prefill_replica_fraction: float = field(
        default=0.25,
        metadata={"help": "share of replicas in the prefill pool when "
                          "disaggregated"})

    def __post_init__(self) -> None:
        scheduler = normalize_name(str(self.scheduler)).replace("-", "_")
        if scheduler not in SCHEDULERS:
            raise ValueError(
                unknown_name_message("scheduler", self.scheduler, SCHEDULERS)
            )
        object.__setattr__(self, "scheduler", scheduler)
        _require(self.gpus_per_replica >= 1,
                 "gpus_per_replica must be >= 1")
        _require(self.max_batch_requests >= 1,
                 "max_batch_requests must be >= 1")
        _require(self.decode_quantum_tokens >= 1,
                 "decode_quantum_tokens must be >= 1")
        _require(0 < self.kv_headroom_fraction <= 1,
                 f"kv_headroom_fraction must be in (0, 1], got "
                 f"{self.kv_headroom_fraction:g}")
        _require(self.admission_queue_limit >= 0,
                 "admission_queue_limit must be >= 0 (0 disables)")
        _require(0 < self.prefill_replica_fraction < 1,
                 f"prefill_replica_fraction must be in (0, 1), got "
                 f"{self.prefill_replica_fraction:g}")
        _require(not (self.disaggregated
                      and scheduler == "run_to_completion"),
                 "disaggregated mode implies continuous batching "
                 "(run_to_completion is the colocated baseline)")


@dataclass(frozen=True)
class SloConfig:
    """Latency objectives goodput is measured against: a request is
    "good" only within both bounds."""

    ttft_p99_s: float = field(
        default=2.0, metadata={"help": "time-to-first-token target (s)"})
    tpot_p99_s: float = field(
        default=0.2,
        metadata={"help": "time-per-output-token target over decode (s)"})

    def __post_init__(self) -> None:
        _require(self.ttft_p99_s > 0 and self.tpot_p99_s > 0,
                 "SLO targets must be positive")


@dataclass(frozen=True)
class AutoscaleConfig:
    """Reactive queue-depth autoscaler parameters (each field's
    ``help`` metadata documents it)."""

    enabled: bool = field(
        default=False,
        metadata={"help": "scale the replica count at runtime (else it "
                          "stays at replicas)",
                  "flag": "autoscale"})
    min_replicas: int = field(
        default=1, metadata={"help": "autoscaler lower bound"})
    max_replicas: int = field(
        default=64,
        metadata={"help": "autoscaler upper bound (also clipped to what "
                          "the cluster can host)"})
    interval_s: float = field(
        default=30.0, metadata={"help": "autoscaler evaluation cadence (s)"})
    queue_high: float = field(
        default=4.0,
        metadata={"help": "pending requests per replica that trigger "
                          "scale-up"})
    queue_low: float = field(
        default=0.5,
        metadata={"help": "pending requests per replica that allow "
                          "scale-down"})
    scaleup_delay_s: float = field(
        default=60.0,
        metadata={"help": "provisioning delay before a new replica "
                          "serves (s)"})

    def __post_init__(self) -> None:
        _require(self.min_replicas >= 1, "min_replicas must be >= 1")
        _require(self.max_replicas >= self.min_replicas,
                 "max_replicas must be >= min_replicas")
        _require(self.interval_s > 0, "interval_s must be positive")
        _require(self.queue_high > self.queue_low >= 0,
                 "need queue_high > queue_low >= 0 (hysteresis band)")
        _require(self.scaleup_delay_s >= 0,
                 "scaleup_delay_s must be >= 0")


@dataclass(frozen=True)
class ServingConfig:
    """One serving deployment: trace + batcher + SLO + autoscaler.

    The autoscaler is off by default (static provisioning at
    ``replicas``); ``freq_setpoint`` is the DVFS clock cap in (0, 1]
    applied to every serving GPU, the axis the energy search optimises.
    """

    trace: TraceConfig = field(default_factory=TraceConfig)
    batcher: BatcherConfig = field(default_factory=BatcherConfig)
    slo: SloConfig = field(default_factory=SloConfig)
    autoscale: AutoscaleConfig = field(default_factory=AutoscaleConfig)
    replicas: int = field(
        default=2, metadata={"help": "initial replica count"})
    freq_setpoint: float = 1.0
    sample_interval_s: float = field(
        default=10.0, metadata={"help": "telemetry sampling cadence (s)"})

    def __post_init__(self) -> None:
        _require(isinstance(self.trace, TraceConfig),
                 "trace must be a TraceConfig")
        _require(isinstance(self.batcher, BatcherConfig),
                 "batcher must be a BatcherConfig")
        _require(isinstance(self.slo, SloConfig),
                 "slo must be an SloConfig")
        _require(isinstance(self.autoscale, AutoscaleConfig),
                 "autoscale must be an AutoscaleConfig")
        _require(self.replicas >= 1, "replicas must be >= 1")
        if self.autoscale.enabled:
            _require(
                self.autoscale.min_replicas <= self.replicas
                <= self.autoscale.max_replicas,
                "replicas must start inside "
                "[min_replicas, max_replicas]",
            )
        _require(0 < self.freq_setpoint <= 1.0,
                 f"freq_setpoint must be in (0, 1], got "
                 f"{self.freq_setpoint:g}")
        _require(self.sample_interval_s > 0,
                 "sample_interval_s must be positive")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ServingConfig":
        known = {spec.name for spec in fields(cls)}
        kwargs: dict = {}
        for key, value in dict(data).items():
            if key not in known:
                raise ValueError(
                    "serving: "
                    + unknown_name_message(
                        "serving field", key, sorted(known)
                    )
                )
            kwargs[key] = value
        if isinstance(kwargs.get("trace"), Mapping):
            kwargs["trace"] = TraceConfig.from_dict(kwargs["trace"])
        if isinstance(kwargs.get("batcher"), Mapping):
            kwargs["batcher"] = _from_mapping(
                BatcherConfig, kwargs["batcher"], "batcher"
            )
        if isinstance(kwargs.get("slo"), Mapping):
            kwargs["slo"] = _from_mapping(SloConfig, kwargs["slo"], "slo")
        if isinstance(kwargs.get("autoscale"), Mapping):
            kwargs["autoscale"] = _from_mapping(
                AutoscaleConfig, kwargs["autoscale"], "autoscale"
            )
        return cls(**kwargs)
