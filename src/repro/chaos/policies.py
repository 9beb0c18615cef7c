"""Self-healing policy primitive: a retry budget with jittered backoff.

:class:`RetryPolicy` is a retry *budget* (total attempts) plus
exponential backoff with **full jitter**: the delay before retry ``k``
is drawn uniformly from ``[0, min(cap, base * 2**k)]``, the AWS-style
jitter that decorrelates a thundering herd of retriers. Two consumers
share it: :class:`repro.serve.workers.WorkerPool` paces its task
redispatch after a worker death or a lost answer (the package's one
crash-retry budget), and :func:`repro.serve.workers.serve_worker` paces
a remote worker's reconnect dials.

The RNG is injectable, so tests pin the delays without sleeping.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """A retry budget with exponential, fully-jittered backoff.

    Attributes:
        attempts: total attempts allowed (1 initial + ``attempts - 1``
            retries). ``attempts=1`` means "never retry".
        base_s: backoff base; the envelope for retry ``k`` is
            ``min(cap_s, base_s * 2**k)``.
        cap_s: hard ceiling on any single delay.
    """

    attempts: int = 3
    base_s: float = 0.05
    cap_s: float = 2.0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        if not 0 < self.base_s <= self.cap_s:
            raise ValueError(
                f"need 0 < base_s <= cap_s, got base_s={self.base_s:g} "
                f"cap_s={self.cap_s:g}"
            )

    def should_retry(self, attempt: int) -> bool:
        """Whether attempt ``attempt`` (0-based) leaves budget for one
        more."""
        return attempt + 1 < self.attempts

    def envelope_s(self, retry_index: int) -> float:
        """Upper bound of the delay before retry ``retry_index``
        (0-based): ``min(cap_s, base_s * 2**retry_index)``."""
        if retry_index < 0:
            raise ValueError("retry_index must be >= 0")
        # 2.0**large overflows Python floats; past ~2**63 the cap has
        # long since won anyway.
        return min(self.cap_s, self.base_s * (2.0 ** min(retry_index, 63)))

    def delay_s(self, retry_index: int, rng: random.Random) -> float:
        """One full-jitter delay: uniform over ``[0, envelope]``."""
        return rng.uniform(0.0, self.envelope_s(retry_index))

    def delays(self, rng: random.Random) -> Iterator[float]:
        """The whole backoff sequence this budget allows, in order.

        Yields exactly ``attempts - 1`` delays — one per retry — then
        stops: iterating to exhaustion *is* exhausting the budget.
        """
        for retry_index in range(self.attempts - 1):
            yield self.delay_s(retry_index, rng)
