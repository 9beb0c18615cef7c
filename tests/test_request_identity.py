"""Request identities are pinned: cache keys and digests never drift.

A request's digest is public (``SimRequest.digest``,
``OptimizeResult.request_digest``) and addresses the result store, so a
change to how keys are built orphans every stored result. The literal
digests below pin one request of each kind; the property pins
:func:`repro.core.sweep.freeze` to its reference copy in
``tests/reference_freeze.py`` over scalars, enums, numpy scalars, nested
frozen dataclasses and containers.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given
from hypothesis import settings as hsettings
from hypothesis import strategies as st

from repro.api import OptimizeRequest, SimRequest
from repro.core.faults import FaultKind
from repro.core.sweep import cache_key, freeze, identify, key_digest
from repro.parallelism.strategy import OptimizationConfig
from tests.reference_freeze import freeze as reference_freeze

BASE = dict(model="gpt3-13b", cluster="mi250x32", parallelism="TP4-PP2",
            global_batch_size=8)

REQUESTS = {
    "training-power-limit": SimRequest(power_limit_w=400.0, **BASE),
    "training-fault": SimRequest(fault_node=1, fault_power_scale=0.5,
                                 **BASE),
    "training-fault-timeline": SimRequest(
        fault_node=0, fault_time=2.0, fault_duration=3.0,
        fault_kind="link_degrade", fault_severity=0.5, **BASE,
    ),
    "training-schedule": SimRequest(
        pipeline_schedule="interleaved", freq_setpoint=0.8,
        optimizations=OptimizationConfig(activation_recompute=True),
        **{**BASE, "global_batch_size": 16},
    ),
    "inference": SimRequest(kind="inference", **BASE),
    "serving": SimRequest(kind="serving", model="gpt3-13b",
                          cluster="mi250x32", serving={"replicas": 2},
                          freq_setpoint=0.9),
    "fleet": SimRequest(kind="fleet", fleet={
        "policy": "thermal-aware", "num_jobs": 4, "seed": 3,
    }),
    "optimize-training": OptimizeRequest(
        model="gpt3-13b", cluster="mi250x32", microbatch_sizes=(1, 2),
        power_cap_w=20000.0,
    ),
    "optimize-serving": OptimizeRequest(
        kind="serving", model="gpt3-13b", cluster="mi250x32",
        replicas=(1, 2),
    ),
}

DIGESTS = {
    "training-power-limit":
        "26916e1e2a6241bf8d68037d25469354574b59f88cf9aefb5dc135304118ede5",
    "training-fault":
        "50d7abdc5372fc7c0c97ad9dee96e24e967507519a9aa2afeaa7de27f94a51ea",
    "training-fault-timeline":
        "e60467c4242548aa2769d98976520f223216ac797a39e0b801fa0af5fb4d653f",
    "training-schedule":
        "9f415b2d8aa40486a4905531f0adda16b1abb5ac110bd35d29176a3d2d0d4cc9",
    "inference":
        "e02bba6a5401ebe642fcb212b112017c7e162b52f8179d31bca9758baf23a195",
    "serving":
        "80bff597b03e87c3cc9322782baafe4492ac0c132323ff135a77bd7410ebec13",
    "fleet":
        "38e41d220b401fe411025ff6a6fc10f07056108465b1733923fb177c77f661f9",
    "optimize-training":
        "b287be64a99de7b2a0a5d306b4f5f937184352354071382cffc2ba90dbc2dcf5",
    "optimize-serving":
        "b785b6ee91539f8a869bcadd51d6318f1fedec0edc77ebf4438b69c2af0258db",
}


@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_digest_is_pinned(name):
    assert REQUESTS[name].digest() == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_identity_matches_digest_and_store_address(name):
    request = REQUESTS[name]
    identity = request.identity()
    assert identity.digest == DIGESTS[name]
    if request.cacheable:
        kind, kwargs = request.to_run_payload()
        assert identity.key == cache_key(kind, kwargs)
        assert identity.digest == key_digest(identity.key)
        assert identify(kind, kwargs) == identity
    else:
        assert identity.payload is None and identity.key is None


def test_identity_does_not_follow_later_mutation():
    """An identity is a snapshot: mutating the request's serving dict
    afterwards cannot make an identity built earlier lie."""
    request = SimRequest(kind="serving", model="gpt3-13b",
                         cluster="mi250x32", serving={"replicas": 2})
    before = request.identity()
    request.serving["replicas"] = 3
    assert before.digest == SimRequest(
        kind="serving", model="gpt3-13b", cluster="mi250x32",
        serving={"replicas": 2},
    ).digest()
    assert request.identity().digest != before.digest


# -- freeze against its reference copy ---------------------------------


class Color(enum.Enum):
    RED = 1
    BLUE = 2


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


@dataclass(frozen=True)
class Leaf:
    a: object
    b: object = None


@dataclass(frozen=True)
class Branch:
    left: object
    right: object
    tag: str = "branch"


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2**70, max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
    st.binary(max_size=8),
    st.sampled_from(list(Color) + list(Level) + list(FaultKind)),
    st.builds(np.float64, st.floats(allow_nan=False)),
    st.builds(np.float32, st.floats(width=32, allow_nan=False)),
    st.builds(np.int64, st.integers(-2**40, 2**40)),
    st.builds(np.bool_, st.booleans()),
)

_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
        st.sets(st.integers(-50, 50), max_size=4),
        st.frozensets(st.text(max_size=3), max_size=4),
        st.builds(Leaf, inner, inner),
        st.builds(Branch, inner, inner, st.text(max_size=3)),
        st.builds(
            OptimizationConfig,
            activation_recompute=st.booleans(),
            lora_rank=st.integers(1, 64),
        ),
    ),
    max_leaves=12,
)


@hsettings(max_examples=300, deadline=None)
@given(_values)
def test_freeze_matches_reference(value):
    frozen, expected = freeze(value), reference_freeze(value)
    # repr is what the digest hashes; it also tells NaN keys apart.
    assert repr(frozen) == repr(expected)
    assert type(frozen) is type(expected)
    assert key_digest(("train", frozen)) == key_digest(("train", expected))


def test_freeze_keeps_subclass_branches():
    """Subclasses of the fast-path scalars freeze as before."""
    assert freeze(Level.HIGH) == ("Level", "HIGH")
    assert freeze(True) is True
    assert freeze(np.float64(0.5)) == reference_freeze(np.float64(0.5))
    assert freeze(np.int64(3)) == reference_freeze(np.int64(3))
    assert math.isnan(freeze(float("nan")))
