"""Seeded request-arrival traces for the serving simulator.

Three arrival processes cover the serving regimes the efficiency
literature cares about:

* ``poisson`` — memoryless arrivals at a constant mean rate, the
  baseline for queueing analysis;
* ``diurnal`` — a sinusoidal day/night cycle scaled from a
  users-per-day figure (production traffic from millions of users peaks
  near mid-day at roughly twice the trough), sampled by thinning;
* ``bursty`` — a two-state Markov-modulated Poisson process (calm /
  burst) reproducing the correlated request storms autoscalers have to
  absorb.

Every generator is deterministic for a seed, and a generated
:class:`RequestTrace` round-trips losslessly through JSON, so traces
can be archived next to results the way fault timelines are.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, fields
from typing import Any, Iterator, Mapping

from repro.suggest import normalize_name, unknown_name_message

__all__ = [
    "TRACE_KINDS",
    "Request",
    "RequestTrace",
    "TraceConfig",
    "generate_trace",
    "rate_from_daily_users",
]

TRACE_KINDS = ("poisson", "diurnal", "bursty")

SECONDS_PER_DAY = 86400.0


def rate_from_daily_users(
    daily_users: float, requests_per_user: float = 1.0
) -> float:
    """Mean request rate (req/s) for a daily active-user count."""
    if daily_users <= 0 or requests_per_user <= 0:
        raise ValueError("user and request counts must be positive")
    return daily_users * requests_per_user / SECONDS_PER_DAY


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


@dataclass(frozen=True)
class TraceConfig:
    """Parameters of one arrival trace (each field's ``help`` metadata
    documents it)."""

    kind: str = field(
        default="poisson",
        metadata={"help": "arrival process: poisson, diurnal, or bursty",
                  "flag": "trace"})
    duration_s: float = field(
        default=600.0, metadata={"help": "trace horizon (s)"})
    mean_rate_per_s: float = field(
        default=1.0, metadata={"help": "long-run mean arrival rate (req/s)"})
    seed: int = field(
        default=0, metadata={"help": "trace seed; same seed, same trace"})
    prompt_tokens_mean: int = field(
        default=512,
        metadata={"help": "geometric mean prompt length (floor 1 token)"})
    decode_tokens_mean: int = field(
        default=128,
        metadata={"help": "geometric mean decode length (floor 1 token)"})
    diurnal_amplitude: float = field(
        default=0.5,
        metadata={"help": "peak-to-mean swing of the day cycle in [0, 1); "
                          "0.5 gives a 2:1 peak-to-trough ratio"})
    diurnal_period_s: float = field(
        default=SECONDS_PER_DAY,
        metadata={"help": "day-cycle length (s; compress to shorten)"})
    burst_rate_multiplier: float = field(
        default=4.0,
        metadata={"help": "bursty: burst-state rate over the calm rate"})
    burst_mean_s: float = field(
        default=30.0, metadata={"help": "bursty: mean burst sojourn (s)"})
    calm_mean_s: float = field(
        default=120.0, metadata={"help": "bursty: mean calm sojourn (s)"})

    def __post_init__(self) -> None:
        kind = normalize_name(str(self.kind))
        if kind not in TRACE_KINDS:
            raise ValueError(
                unknown_name_message("trace kind", self.kind, TRACE_KINDS)
            )
        object.__setattr__(self, "kind", kind)
        _require(self.duration_s > 0, "duration_s must be positive")
        _require(self.mean_rate_per_s > 0,
                 "mean_rate_per_s must be positive")
        _require(self.prompt_tokens_mean >= 1 and self.decode_tokens_mean >= 1,
                 "token means must be >= 1")
        _require(0 <= self.diurnal_amplitude < 1,
                 f"diurnal_amplitude must be in [0, 1), got "
                 f"{self.diurnal_amplitude:g}")
        _require(self.diurnal_period_s > 0,
                 "diurnal_period_s must be positive")
        _require(self.burst_rate_multiplier >= 1,
                 "burst_rate_multiplier must be >= 1")
        _require(self.burst_mean_s > 0 and self.calm_mean_s > 0,
                 "MMPP sojourn means must be positive")

    def to_dict(self) -> dict:
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TraceConfig":
        known = {spec.name for spec in fields(cls)}
        for key in data:
            if key not in known:
                raise ValueError(
                    "trace: "
                    + unknown_name_message("trace field", key, sorted(known))
                )
        return cls(**dict(data))


@dataclass(frozen=True)
class Request:
    """One inference request: when it arrives and how big it is."""

    arrival_s: float
    prompt_tokens: int
    decode_tokens: int

    def __post_init__(self) -> None:
        _require(self.arrival_s >= 0, "arrival_s must be >= 0")
        _require(self.prompt_tokens >= 1 and self.decode_tokens >= 1,
                 "token counts must be >= 1")

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.decode_tokens


@dataclass(frozen=True)
class RequestTrace:
    """An immutable, time-ordered request stream plus its provenance."""

    config: TraceConfig
    requests: tuple[Request, ...]

    def __post_init__(self) -> None:
        arrivals = [r.arrival_s for r in self.requests]
        _require(arrivals == sorted(arrivals),
                 "requests must be time-ordered")

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self) -> Iterator[Request]:
        return iter(self.requests)

    @property
    def total_tokens(self) -> int:
        return sum(r.total_tokens for r in self.requests)

    @property
    def mean_rate_per_s(self) -> float:
        return len(self.requests) / self.config.duration_s

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "requests": [
                [r.arrival_s, r.prompt_tokens, r.decode_tokens]
                for r in self.requests
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RequestTrace":
        config = TraceConfig.from_dict(data["config"])
        requests = tuple(
            Request(arrival_s=row[0], prompt_tokens=row[1],
                    decode_tokens=row[2])
            for row in data["requests"]
        )
        return cls(config=config, requests=requests)

    @classmethod
    def from_json(cls, text: str) -> "RequestTrace":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ValueError(f"invalid trace JSON: {error}") from None
        if not isinstance(data, dict):
            raise ValueError("trace JSON must be an object")
        return cls.from_dict(data)


def _draw_tokens(rng: random.Random, mean: int) -> int:
    """Geometric-ish request length: exponential with a 1-token floor."""
    return max(1, int(round(rng.expovariate(1.0 / mean))))


def _poisson_arrivals(config: TraceConfig,
                      rng: random.Random) -> list[float]:
    arrivals: list[float] = []
    t = 0.0
    while True:
        t += rng.expovariate(config.mean_rate_per_s)
        if t >= config.duration_s:
            return arrivals
        arrivals.append(t)


def _diurnal_arrivals(config: TraceConfig,
                      rng: random.Random) -> list[float]:
    # Thinning against the cycle's peak rate; the sinusoid's mean is
    # exactly mean_rate_per_s, peaking mid-period.
    peak = config.mean_rate_per_s * (1.0 + config.diurnal_amplitude)
    omega = 2.0 * math.pi / config.diurnal_period_s
    arrivals: list[float] = []
    t = 0.0
    while True:
        t += rng.expovariate(peak)
        if t >= config.duration_s:
            return arrivals
        rate = config.mean_rate_per_s * (
            1.0 - config.diurnal_amplitude * math.cos(omega * t)
        )
        if rng.random() < rate / peak:
            arrivals.append(t)


def _bursty_arrivals(config: TraceConfig,
                     rng: random.Random) -> list[float]:
    # Two-state MMPP whose time-weighted mean matches mean_rate_per_s.
    calm_frac = config.calm_mean_s / (config.calm_mean_s +
                                      config.burst_mean_s)
    burst_frac = 1.0 - calm_frac
    calm_rate = config.mean_rate_per_s / (
        calm_frac + burst_frac * config.burst_rate_multiplier
    )
    burst_rate = calm_rate * config.burst_rate_multiplier
    arrivals: list[float] = []
    t = 0.0
    in_burst = False
    state_end = rng.expovariate(1.0 / config.calm_mean_s)
    while t < config.duration_s:
        rate = burst_rate if in_burst else calm_rate
        t += rng.expovariate(rate)
        while t >= state_end:
            in_burst = not in_burst
            mean = (config.burst_mean_s if in_burst
                    else config.calm_mean_s)
            state_end += rng.expovariate(1.0 / mean)
        if t < config.duration_s:
            arrivals.append(t)
    return arrivals


_GENERATORS = {
    "poisson": _poisson_arrivals,
    "diurnal": _diurnal_arrivals,
    "bursty": _bursty_arrivals,
}


def generate_trace(config: TraceConfig) -> RequestTrace:
    """Generate the seeded request stream ``config`` describes."""
    rng = random.Random(config.seed)
    arrivals = _GENERATORS[config.kind](config, rng)
    requests = tuple(
        Request(
            arrival_s=t,
            prompt_tokens=_draw_tokens(rng, config.prompt_tokens_mean),
            decode_tokens=_draw_tokens(rng, config.decode_tokens_mean),
        )
        for t in arrivals
    )
    return RequestTrace(config=config, requests=requests)
