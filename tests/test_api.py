"""The unified ``repro.api`` request surface.

Covers the SimRequest contract end to end: validation with
did-you-mean suggestions, dict/JSON round-trips (including a hypothesis
property test), ``submit`` equalling the canonical execute functions
field by field, ``submit_many`` ordering and in-batch dedup, and fleet
requests flowing through the same schema.
"""

import dataclasses
import json

import pytest
from hypothesis import given
from hypothesis import settings as hsettings
from hypothesis import strategies as st

import repro
import repro.core.sweep as sweep_mod
from repro.api import KINDS, SimRequest, submit, submit_many
from repro.core.experiment import execute_inference, execute_training
from repro.core.sweep import cached_run
from repro.parallelism.strategy import OptimizationConfig
from tests.conftest import assert_run_results_equal

WORKLOAD = dict(
    model="gpt3-13b",
    cluster="mi250x32",
    parallelism="TP4-PP2",
    global_batch_size=8,
)


@pytest.fixture(autouse=True)
def _fresh_memo():
    """The in-process memo is process-global; isolate it per test."""
    sweep_mod._CACHE.clear()
    yield
    sweep_mod._CACHE.clear()


def _request(**overrides) -> SimRequest:
    kwargs = dict(WORKLOAD)
    kwargs.update(overrides)
    return SimRequest(**kwargs)


class TestValidation:
    def test_kind_alias_normalises(self):
        assert _request(kind="train").kind == "training"
        assert _request(kind="infer").kind == "inference"

    def test_unknown_kind_suggests(self):
        with pytest.raises(ValueError, match="did you mean 'training'"):
            _request(kind="trainning")
        assert set(KINDS) == {"training", "inference", "fleet", "serving"}

    def test_unknown_model_suggests(self):
        with pytest.raises(ValueError, match="did you mean 'gpt3-13b'"):
            _request(model="gpt13b")

    def test_unknown_cluster_suggests(self):
        with pytest.raises(ValueError, match="did you mean 'mi250x32'"):
            _request(cluster="mi250-32")

    def test_bad_strategy_suggests(self):
        with pytest.raises(ValueError, match="did you mean 'tp4-pp2'"):
            _request(parallelism="tp4_pp2")

    def test_fault_node_out_of_range(self):
        with pytest.raises(ValueError, match="has 4 nodes"):
            _request(fault_node=99)

    def test_fault_flags_require_fault_time(self):
        with pytest.raises(ValueError, match="requires fault_time"):
            _request(fault_node=1, fault_kind="power_sag")

    def test_fault_time_requires_node(self):
        with pytest.raises(ValueError, match="fault_node"):
            _request(fault_time=2.0)

    def test_fault_kind_suggests(self):
        with pytest.raises(ValueError, match="did you mean 'power_sag'"):
            _request(fault_node=1, fault_time=1.0, fault_kind="powersag")

    def test_governor_suggests(self):
        with pytest.raises(ValueError, match="did you mean 'thermal'"):
            _request(governor="termal")

    def test_power_scale_bounds(self):
        with pytest.raises(ValueError, match="fault_power_scale"):
            _request(fault_node=1, fault_power_scale=1.5)

    def test_warmup_must_be_below_iterations(self):
        with pytest.raises(ValueError, match="warmup"):
            _request(iterations=2, warmup_iterations=2)

    def test_fleet_kind_rejects_workload_fields(self):
        with pytest.raises(ValueError):
            SimRequest(kind="fleet", model="gpt3-13b")

    def test_fleet_payload_unknown_key_suggests(self):
        with pytest.raises(ValueError, match="did you mean 'num_jobs'"):
            SimRequest(kind="fleet", fleet={"numjobs": 2})

    def test_training_kind_rejects_fleet_payload(self):
        with pytest.raises(ValueError, match="fleet"):
            _request(fleet={"num_jobs": 2})

    def test_timeout_must_be_positive(self):
        with pytest.raises(ValueError, match="timeout_s"):
            _request(timeout_s=0.0)


class TestRoundTrip:
    def test_dict_round_trip(self):
        request = _request(
            optimizations=OptimizationConfig(activation_recompute=True),
            fault_node=1,
            fault_time=2.0,
            fault_kind="power_sag",
        )
        data = request.to_dict()
        assert data["kind"] == "training"
        assert SimRequest.from_dict(data) == request

    def test_json_round_trip(self):
        request = _request(governor="static", freq_setpoint=0.8)
        assert SimRequest.from_json(request.to_json()) == request

    def test_from_dict_unknown_key_suggests(self):
        with pytest.raises(ValueError, match="did you mean 'iterations'"):
            SimRequest.from_dict(dict(WORKLOAD, iteration=3))

    def test_from_json_bad_payload(self):
        with pytest.raises(ValueError, match="invalid request JSON"):
            SimRequest.from_json("{not json")

    def test_digest_is_stable_and_distinct(self):
        assert _request().digest() == _request().digest()
        assert _request().digest() != _request(microbatch_size=2).digest()

    @given(
        st.fixed_dictionaries(
            {},
            optional={
                "microbatch_size": st.sampled_from([1, 2]),
                "iterations": st.sampled_from([2, 3]),
                "governor": st.sampled_from(["none", "static"]),
                "freq_setpoint": st.sampled_from([0.8, 1.0]),
                "fault_node": st.sampled_from([0, 1]),
                "optimizations": st.builds(
                    OptimizationConfig,
                    activation_recompute=st.booleans(),
                    cc_overlap=st.booleans(),
                ),
            },
        )
    )
    @hsettings(max_examples=25, deadline=None)
    def test_round_trip_property(self, overrides):
        request = _request(**overrides)
        via_dict = SimRequest.from_dict(request.to_dict())
        via_json = SimRequest.from_json(request.to_json())
        assert via_dict == request
        assert via_json == request
        assert via_dict.digest() == request.digest()
        # to_json is deterministic (sorted keys) for equal requests.
        assert via_json.to_json() == request.to_json()


class TestSubmit:
    def test_submit_equals_execute(self):
        request = _request()
        kind, kwargs = request.to_run_payload()
        assert kind == "train"
        direct = execute_training(**kwargs)
        via_api = submit(request, cache=False)
        assert_run_results_equal(via_api, direct)

    def test_submit_caches_by_default(self, monkeypatch):
        calls = []
        real = sweep_mod.execute_training

        def counting(**kwargs):
            calls.append(1)
            return real(**kwargs)

        monkeypatch.setattr(sweep_mod, "execute_training", counting)
        first = submit(_request())
        second = submit(_request())
        assert len(calls) == 1
        assert second is first

    def test_inference_request(self):
        result = submit(_request(kind="inference"), cache=False)
        assert result.efficiency().tokens_per_s > 0

    def test_inference_submit_equals_execute(self):
        request = _request(kind="inference")
        kind, kwargs = request.to_run_payload()
        assert kind == "infer"
        assert_run_results_equal(
            submit(request, cache=False), execute_inference(**kwargs)
        )

    @pytest.mark.parametrize("kind", ["training", "inference"])
    def test_cached_run_shares_the_submit_cache(self, kind):
        # A hand-written cached_run call with a request's payload kwargs
        # is a memo hit on what submit() stored.
        request = _request(kind=kind)
        primed = submit(request)
        run_kind, kwargs = request.to_run_payload()
        assert cached_run(run_kind, **kwargs) is primed

    def test_submit_rejects_non_request(self):
        with pytest.raises(TypeError, match="SimRequest"):
            submit({"model": "gpt3-13b"})


class TestSubmitMany:
    def test_order_and_dedup(self, monkeypatch):
        calls = []
        real = sweep_mod.execute_training

        def counting(**kwargs):
            calls.append(kwargs["microbatch_size"])
            return real(**kwargs)

        monkeypatch.setattr(sweep_mod, "execute_training", counting)
        requests = [
            _request(microbatch_size=1),
            _request(microbatch_size=2),
            _request(microbatch_size=1),  # duplicate of [0]
        ]
        results = submit_many(requests)
        assert sorted(calls) == [1, 2]  # duplicate simulated once
        assert results[0] is results[2]
        assert results[0].parallelism.name == results[1].parallelism.name
        a = results[0].outcome.tokens_per_iteration
        b = results[1].outcome.tokens_per_iteration
        assert b == 2 * a or b == a  # mb=2 packs tokens differently

    def test_matches_submit(self):
        requests = [_request(), _request(microbatch_size=2)]
        batch = submit_many(requests)
        for request, result in zip(requests, batch):
            assert_run_results_equal(result, submit(request))

    def test_rejects_non_requests(self):
        with pytest.raises(TypeError):
            submit_many([_request(), "not a request"])


class TestFleetRequests:
    def test_fleet_submit(self):
        request = SimRequest(
            kind="fleet",
            fleet={"clusters": ["mi250x32"], "num_jobs": 2, "seed": 0},
        )
        outcome = submit(request)
        metrics = outcome.metrics()
        assert metrics.jobs_completed >= 0
        assert dataclasses.asdict(metrics)  # flat, JSON-able

    def test_fleet_round_trip(self):
        request = SimRequest(
            kind="fleet",
            fleet={"clusters": ["mi250x32"], "num_jobs": 2},
        )
        assert SimRequest.from_json(request.to_json()) == request
        assert request.digest() == SimRequest.from_dict(
            request.to_dict()
        ).digest()

    def test_fleet_not_cacheable(self):
        request = SimRequest(kind="fleet", fleet={"num_jobs": 1})
        assert not request.cacheable


class TestPublicSurface:
    def test_reexported_from_repro(self):
        assert repro.SimRequest is SimRequest
        assert repro.submit is submit
        assert repro.submit_many is submit_many
        assert repro.KINDS is KINDS

    def test_request_is_frozen(self):
        request = _request()
        with pytest.raises(dataclasses.FrozenInstanceError):
            request.model = "other"

    def test_json_payload_is_plain(self):
        payload = json.loads(_request().to_json())
        assert isinstance(payload, dict)
        assert payload["model"] == "gpt3-13b"
        assert isinstance(payload["optimizations"], dict)
