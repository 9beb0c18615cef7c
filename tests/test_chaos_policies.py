"""Self-healing policy primitive: the retry budget and its backoff.

The hypothesis section pins the full-jitter contract — every delay
falls inside ``[0, min(cap, base * 2**k)]``, envelopes are monotone
within ``[base, cap]``, and a budget of N attempts yields exactly
``N - 1`` backoff delays before exhaustion — so the retry machinery in
the pool and the worker's reconnect loop cannot silently drift into unbounded sleeps.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.policies import RetryPolicy


class TestRetryPolicyValidation:
    def test_rejects_zero_attempts(self):
        with pytest.raises(ValueError, match="attempts"):
            RetryPolicy(attempts=0)

    def test_rejects_base_above_cap(self):
        with pytest.raises(ValueError, match="base_s"):
            RetryPolicy(base_s=5.0, cap_s=1.0)

    def test_rejects_nonpositive_base(self):
        with pytest.raises(ValueError, match="base_s"):
            RetryPolicy(base_s=0.0)


class TestRetryPolicyBudget:
    def test_should_retry_exhausts_at_budget(self):
        policy = RetryPolicy(attempts=3)
        assert policy.should_retry(0)
        assert policy.should_retry(1)
        assert not policy.should_retry(2)
        assert not policy.should_retry(7)

    def test_single_attempt_never_retries(self):
        policy = RetryPolicy(attempts=1)
        assert not policy.should_retry(0)
        assert list(policy.delays(random.Random(0))) == []

    def test_envelope_doubles_until_cap(self):
        policy = RetryPolicy(attempts=8, base_s=0.1, cap_s=0.5)
        assert policy.envelope_s(0) == pytest.approx(0.1)
        assert policy.envelope_s(1) == pytest.approx(0.2)
        assert policy.envelope_s(2) == pytest.approx(0.4)
        assert policy.envelope_s(3) == pytest.approx(0.5)  # capped
        assert policy.envelope_s(60) == pytest.approx(0.5)

    def test_huge_retry_index_does_not_overflow(self):
        policy = RetryPolicy(attempts=2, base_s=0.1, cap_s=2.0)
        assert policy.envelope_s(10_000) == pytest.approx(2.0)

    def test_delays_are_deterministic_under_a_seeded_rng(self):
        policy = RetryPolicy(attempts=5, base_s=0.05, cap_s=1.0)
        first = list(policy.delays(random.Random(42)))
        second = list(policy.delays(random.Random(42)))
        assert first == second


@settings(max_examples=200, deadline=None)
@given(
    attempts=st.integers(min_value=1, max_value=16),
    base_ms=st.integers(min_value=1, max_value=2_000),
    cap_mult=st.integers(min_value=1, max_value=100),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_full_jitter_delays_stay_in_envelope(
    attempts, base_ms, cap_mult, seed
):
    base = base_ms / 1000.0
    cap = base * cap_mult
    policy = RetryPolicy(attempts=attempts, base_s=base, cap_s=cap)
    rng = random.Random(seed)
    delays = list(policy.delays(rng))
    # Budget exhaustion ordering: exactly attempts-1 delays, one per
    # retry, in retry order.
    assert len(delays) == attempts - 1
    for retry_index, delay in enumerate(delays):
        envelope = policy.envelope_s(retry_index)
        assert 0.0 <= delay <= envelope
        assert base <= envelope <= cap
    envelopes = [policy.envelope_s(i) for i in range(attempts)]
    assert envelopes == sorted(envelopes)  # monotone non-decreasing
    assert all(e <= cap for e in envelopes)
