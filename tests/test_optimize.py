"""The joint optimizer: objective grammar, search space, request
envelope, end-to-end search, and every transport it rides.

Fast paths only: searches are pinned to tiny grids (explicit
parallelism / schedule axes) so each simulation is small and probes are
shared through the in-process memo across tests. The paper-scale
acceptance run lives in benchmarks/test_optimize_bench.py.
"""

import json

import pytest

from repro.api import OptimizeRequest, OptimizeResult, submit
from repro.optimize import (
    CandidateOutcome,
    PruneStats,
    parse_objective,
    run_optimize,
)
from repro.optimize.space import (
    analytic_plan_estimate,
    enumerate_candidates,
    prune_candidates,
)

#: The restricted training search most tests share (probes land in the
#: in-process memo, so only the first test pays for simulation).
FAST_GRID = dict(
    model="gpt3-13b",
    cluster="h100x64",
    parallelisms=("TP2-PP8",),
    schedules=("1f1b", "zb-h1"),
    microbatch_sizes=(1,),
    beam_width=2,
    refine_top=1,
    global_batch_size=32,
)


def _request(**overrides) -> OptimizeRequest:
    return OptimizeRequest(**{**FAST_GRID, **overrides})


# -- objective grammar -------------------------------------------------


class TestObjectiveGrammar:
    def test_canonical_names(self):
        assert parse_objective("energy").edp_exponent == 0.0
        assert parse_objective("energy_delay").edp_exponent == 1.0
        assert parse_objective("energy_delay2").edp_exponent == 2.0
        assert parse_objective("time").time_only
        assert parse_objective("energy_per_token").serving

    def test_aliases(self):
        assert parse_objective("edp").name == "energy_delay"
        assert parse_objective("ed2").name == "energy_delay2"
        assert parse_objective("delay").name == "time"
        assert parse_objective("energy_delay^0").name == "energy"

    def test_general_exponent(self):
        objective = parse_objective("energy_delay^3")
        assert objective.edp_exponent == 3.0
        assert objective.cost(2.0, 3.0) == pytest.approx(2.0 * 27.0)

    def test_unknown_suggests(self):
        with pytest.raises(ValueError, match="did you mean"):
            parse_objective("energy_dely")

    def test_cost_arithmetic(self):
        assert parse_objective("energy").cost(5.0, 9.0) == 5.0
        assert parse_objective("time").cost(5.0, 9.0) == 9.0
        assert parse_objective("energy_delay").cost(5.0, 2.0) == 10.0


# -- search space ------------------------------------------------------


class TestSearchSpace:
    def test_pp1_collapses_schedule_axis(self, tiny_model, small_cluster):
        candidates = enumerate_candidates(
            tiny_model, small_cluster, global_batch_size=8,
            microbatch_sizes=(1,), parallelisms=("TP4-PP1",),
        )
        assert [c.pipeline_schedule for c in candidates] == ["1f1b"]

    def test_tiling_reject(self, tiny_model, small_cluster):
        candidates = enumerate_candidates(
            tiny_model, small_cluster, global_batch_size=8,
            microbatch_sizes=(3,), parallelisms=("TP4-PP1",),
        )
        kept, verdicts = prune_candidates(
            tiny_model, small_cluster, candidates
        )
        assert kept == []
        assert {v.reason for v in verdicts} == {"tiling"}

    def test_power_cap_reject(self, tiny_model, small_cluster):
        candidates = enumerate_candidates(
            tiny_model, small_cluster, global_batch_size=8,
            microbatch_sizes=(1,), parallelisms=("TP4-PP2",),
        )
        kept, verdicts = prune_candidates(
            tiny_model, small_cluster, candidates, power_cap_w=10.0
        )
        assert kept == []
        assert {v.reason for v in verdicts} == {"power_cap"}

    def test_schedule_reject_reasons(self, tiny_model, small_cluster):
        # interleaved requires num_microbatches % pp == 0: dp=1, mb=1,
        # gb=6 gives 6 microbatches over pp=4.
        candidates = enumerate_candidates(
            tiny_model, small_cluster, global_batch_size=6,
            microbatch_sizes=(1,), schedules=("interleaved",),
            parallelisms=("TP2-PP4",),
        )
        kept, verdicts = prune_candidates(
            tiny_model, small_cluster, candidates
        )
        assert kept == []
        assert {v.reason for v in verdicts} == {"schedule"}

    def test_rejected_plans_fail_real_simulation(
        self, tiny_model, small_cluster, fast_settings
    ):
        """Pruner rejects are confirmed by the full execution path.

        A sample of tiling/schedule-rejected candidates is handed to
        the real simulator, which must refuse them too — the pruner
        never discards anything the engine could actually run.
        """
        from repro.core.experiment import execute_training

        candidates = enumerate_candidates(
            tiny_model, small_cluster, global_batch_size=6,
            microbatch_sizes=(1, 4), schedules=("1f1b", "interleaved"),
        )
        _, verdicts = prune_candidates(
            tiny_model, small_cluster, candidates
        )
        sampled = {v.reason: v for v in verdicts}
        assert {"tiling", "schedule"} <= set(sampled)
        for verdict in (sampled["tiling"], sampled["schedule"]):
            candidate = verdict.candidate
            with pytest.raises(ValueError):
                execute_training(
                    tiny_model, small_cluster, candidate.parallelism,
                    global_batch_size=6,
                    microbatch_size=candidate.microbatch_size,
                    pipeline_schedule=candidate.pipeline_schedule,
                    settings=fast_settings,
                )

    def test_bubble_orders_schedules_on_same_plan(
        self, tiny_model, small_cluster
    ):
        objective = parse_objective("energy_delay")
        costs = {}
        for schedule in ("1f1b", "zb-h1"):
            candidate = enumerate_candidates(
                tiny_model, small_cluster, global_batch_size=8,
                microbatch_sizes=(1,), schedules=(schedule,),
                parallelisms=("TP2-PP4",),
            )[0]
            costs[schedule] = analytic_plan_estimate(
                tiny_model, small_cluster, candidate, objective,
                global_batch_size=8,
            ).cost
        assert costs["zb-h1"] < costs["1f1b"]


# -- request envelope --------------------------------------------------


class TestOptimizeRequest:
    def test_kind_aliases(self):
        assert _request(kind="train").kind == "training"
        with pytest.raises(ValueError, match="did you mean"):
            _request(kind="trainig")

    def test_catalog_validation(self):
        with pytest.raises(ValueError, match="did you mean 'gpt3-13b'"):
            _request(model="gpt3-13")
        with pytest.raises(ValueError, match="did you mean 'h100x64'"):
            _request(cluster="h100x46")

    def test_objective_cross_validation(self):
        with pytest.raises(ValueError, match="serving"):
            _request(objective="energy_per_token")
        serving = OptimizeRequest(
            kind="serving", model="llama3-70b", cluster="h100x64"
        )
        assert serving.objective == "energy_per_token"
        # The class default normalises; an explicit training objective
        # on a serving search is an error.
        with pytest.raises(ValueError, match="training objective"):
            OptimizeRequest(
                kind="serving", model="llama3-70b", cluster="h100x64",
                objective="time",
            )

    def test_training_rejects_serving_axes(self):
        with pytest.raises(ValueError, match="serving"):
            _request(replicas=(2,))

    def test_serving_rejects_plan_axes(self):
        with pytest.raises(ValueError, match="training searches"):
            OptimizeRequest(
                kind="serving", model="llama3-70b", cluster="h100x64",
                schedules=("1f1b",),
            )

    def test_schedule_axis_canonicalized(self):
        request = _request(schedules=("zb-h1", "1F1B", "zb-h1"))
        assert request.schedules == ("1f1b", "zb-h1")

    def test_bounds(self):
        with pytest.raises(ValueError, match="max_slowdown"):
            _request(max_slowdown=-0.1)
        with pytest.raises(ValueError, match="beam_width"):
            _request(beam_width=0)
        with pytest.raises(ValueError, match="setpoint"):
            _request(setpoint_lo=0.9, setpoint_hi=0.6)

    def test_dict_round_trip(self):
        request = _request(power_cap_w=40000.0)
        assert OptimizeRequest.from_dict(request.to_dict()) == request

    def test_json_round_trip(self):
        request = _request()
        assert OptimizeRequest.from_json(request.to_json()) == request

    def test_unknown_key_suggests(self):
        data = _request().to_dict()
        data["beam_widht"] = 3
        del data["beam_width"]
        with pytest.raises(ValueError, match="did you mean 'beam_width'"):
            OptimizeRequest.from_dict(data)

    def test_from_json_bad_payload(self):
        with pytest.raises(ValueError, match="invalid request JSON"):
            OptimizeRequest.from_json("{not json")

    def test_digest_stable_and_distinct(self):
        assert _request().digest() == _request().digest()
        assert _request().digest() != _request(beam_width=3).digest()

    def test_result_round_trip(self):
        result = OptimizeResult(
            kind="training",
            objective="energy_delay",
            request_digest="d" * 64,
            best=CandidateOutcome(parallelism="TP2-PP8", cost=1.0),
            baseline=CandidateOutcome(parallelism="TP2-PP8", cost=2.0),
            candidates=(CandidateOutcome(parallelism="TP2-PP8"),),
            prune=PruneStats(raw=10, simulated=2),
            probes_total=5,
            probes_cached=1,
        )
        again = OptimizeResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert again == result
        assert again.improvement_fraction == pytest.approx(0.5)


# -- end-to-end search -------------------------------------------------


class TestRunOptimize:
    def test_restricted_search_beats_default(self):
        result = run_optimize(_request())
        assert result.best.pipeline_schedule == "zb-h1"
        assert result.best.setpoint < 1.0
        assert result.baseline.pipeline_schedule == "1f1b"
        assert result.baseline.setpoint == 1.0
        assert result.improvement_fraction >= 0.10
        assert result.best.cost <= min(c.cost for c in result.candidates)
        assert result.probes_total > 0

    def test_whole_result_cache_round_trip(self):
        request = _request()
        first = run_optimize(request)
        again = run_optimize(request)
        assert again == first
        assert again.request_digest == request.digest()

    def test_submit_routes_optimize_requests(self):
        result = submit(_request())
        assert isinstance(result, OptimizeResult)
        assert result.request_digest == _request().digest()

    def test_cached_run_kind(self):
        from repro.core.sweep import cached_run

        request = _request()
        result = cached_run(
            "optimize", request=request.to_dict()
        )
        assert isinstance(result, OptimizeResult)
        assert result.request_digest == request.digest()

    def test_unknown_kind_suggests(self):
        from repro.core.sweep import cached_run

        with pytest.raises(ValueError, match="did you mean 'optimize'"):
            cached_run("optimise", request={})

    def test_time_objective_skips_refinement(self):
        result = run_optimize(
            _request(objective="time", schedules=("1f1b",))
        )
        assert all(c.setpoint == 1.0 for c in result.candidates)

    def test_everything_pruned_raises(self):
        with pytest.raises(ValueError, match="no feasible plan"):
            run_optimize(_request(power_cap_w=1.0))

    def test_store_round_trips_optimize_result(self):
        import repro.core.sweep as sweep_mod
        from repro.core.store import result_store
        from repro.core.sweep import cache_key, key_digest

        request = _request()
        key = cache_key("optimize", {"request": request.to_dict()})
        # Evict the whole-result memo entry (earlier tests seeded it)
        # so this run must persist into this test's fresh store dir;
        # the per-plan probes stay memoized, so no re-simulation.
        sweep_mod._CACHE.pop(key, None)
        result = run_optimize(request)
        assert result_store().get(key_digest(key)) == result


class TestServingOptimize:
    SERVING = dict(
        trace=dict(kind="poisson", duration_s=60.0,
                   mean_rate_per_s=1.0, seed=5),
        batcher=dict(gpus_per_replica=4),
    )

    def test_serving_search(self):
        request = OptimizeRequest(
            kind="serving",
            model="llama3-70b",
            cluster="h100x64",
            serving=self.SERVING,
            replicas=(2,),
            gpus_per_replica=(4,),
            refine_top=1,
            setpoint_tolerance=0.2,
        )
        result = run_optimize(request)
        assert result.kind == "serving"
        assert result.objective == "energy_per_token"
        assert result.best.replicas == 2
        assert result.best.gpus_per_replica == 4
        assert result.best.energy_per_token_j is not None
        assert result.best.cost <= result.baseline.cost
        assert result.prune.simulated == 1

    def test_impossible_grid_raises(self):
        with pytest.raises(ValueError, match="no feasible serving"):
            run_optimize(OptimizeRequest(
                kind="serving",
                model="llama3-70b",
                cluster="h100x64",
                serving=self.SERVING,
                replicas=(1000,),
                gpus_per_replica=(64,),
            ))


# -- result-store registry ---------------------------------------------


class TestResultTypeRegistry:
    def test_register_is_idempotent(self):
        from repro.core.store import _RESULT_TYPES, register_result_type

        before = len(_RESULT_TYPES)
        register_result_type(OptimizeResult)
        register_result_type(OptimizeResult)
        from repro.core.store import _RESULT_TYPES as after

        assert len(after) == before
        assert OptimizeResult in after

    def test_register_rejects_non_class(self):
        from repro.core.store import register_result_type

        with pytest.raises(TypeError, match="class"):
            register_result_type("OptimizeResult")

    def test_serving_outcome_registered(self):
        from repro.core.store import _RESULT_TYPES
        from repro.inferserve.outcome import ServingOutcome

        assert ServingOutcome in _RESULT_TYPES


# -- broker + HTTP -----------------------------------------------------


class TestBrokerTransport:
    def test_broker_answers_optimize_requests(self):
        import asyncio

        from repro.serve import Broker, BrokerConfig

        async def scenario():
            broker = Broker(BrokerConfig(use_processes=False))
            response = await broker.submit(_request())
            return response

        response = asyncio.run(scenario())
        assert response.ok
        assert isinstance(response.result, OptimizeResult)
        body = response.to_dict()
        assert body["result"]["best"]["pipeline_schedule"] == "zb-h1"
        json.dumps(body)  # JSON-serialisable end to end

    def test_broker_rejects_other_types(self):
        import asyncio

        from repro.serve import Broker, BrokerConfig

        async def scenario():
            broker = Broker(BrokerConfig(use_processes=False))
            with pytest.raises(TypeError, match="OptimizeRequest"):
                await broker.submit({"kind": "training"})

        asyncio.run(scenario())

    def test_http_optimize_endpoint(self):
        import urllib.request

        from repro.serve import BrokerConfig, BrokerServer

        with BrokerServer(
            BrokerConfig(use_processes=False), port=0
        ) as server:
            data = _request().to_json().encode()
            http_request = urllib.request.Request(
                f"http://{server.address}/v1/optimize",
                data=data,
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(
                http_request, timeout=120
            ) as reply:
                body = json.loads(reply.read())
            assert body["status"] == "ok"
            assert body["result"]["best"]["pipeline_schedule"] == "zb-h1"

            bad = urllib.request.Request(
                f"http://{server.address}/v1/optimize",
                data=b'{"model": "nope"}',
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(bad, timeout=30)
            assert excinfo.value.code == 400


# -- CLI ---------------------------------------------------------------


class TestOptimizeCli:
    ARGS = [
        "optimize", "--model", "gpt3-13b", "--cluster", "h100x64",
        "--parallelisms", "TP2-PP8", "--schedules", "1f1b", "zb-h1",
        "--microbatch-sizes", "1",
        "--beam-width", "2", "--refine-top", "1",
    ]

    def test_json_output(self, capsys):
        from repro.cli import main

        assert main(self.ARGS + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["best"]["pipeline_schedule"] == "zb-h1"
        assert payload["best"]["setpoint"] < 1.0

    def test_human_output(self, capsys):
        from repro.cli import main

        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "best          :" in out
        assert "improvement" in out

    def test_bad_flag_is_exit_2(self, capsys):
        from repro.cli import main

        assert main(self.ARGS + ["--beam-width", "0"]) == 2
        assert "--beam-width" in capsys.readouterr().err
