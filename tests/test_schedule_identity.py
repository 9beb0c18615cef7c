"""Bit-identity pins: the schedule-graph engine vs the legacy engine.

The digests below were captured from the pre-refactor engine (commit
11416d6, where the engine emitted hardcoded per-rank op lists
directly) over the optimization toggles that change emission order.
The schedule-graph rework (:mod:`repro.schedules` feeding
``engine/builder.py``) must reproduce every one of them field-for-field
— same records, same timestamps, same collective keys — or it silently
changed simulated physics for every downstream benchmark.

If a deliberate physics change ever invalidates these, recapture them
in the same commit and say so in the message; they are not free to
drift.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.experiment import execute_inference, execute_training
from repro.parallelism.strategy import OptimizationConfig, ParallelismConfig


def outcome_digest(outcome) -> str:
    """Order-sensitive digest of every observable SimOutcome field."""
    h = hashlib.sha256()
    h.update(
        repr(
            (
                outcome.makespan_s,
                outcome.iteration_end_s,
                outcome.throttle_ratio,
                outcome.mean_freq_ratio,
                outcome.tokens_per_iteration,
                outcome.num_iterations,
            )
        ).encode()
    )
    for r in outcome.records:
        h.update(
            repr(
                (
                    r.gpu,
                    r.rank,
                    r.kind.value,
                    r.start_s,
                    r.end_s,
                    r.iteration,
                    r.microbatch,
                    r.stage,
                )
            ).encode()
        )
    return h.hexdigest()


def _strategy(**extra) -> ParallelismConfig:
    return ParallelismConfig(tp=2, pp=4, dp=4, **extra)


def _train(strategy: ParallelismConfig,
           opts: OptimizationConfig | None = None) -> str:
    result = execute_training(
        "gpt3-13b",
        "h200x32",
        strategy,
        optimizations=opts,
        microbatch_size=1,
        global_batch_size=16,
        iterations=2,
    )
    return outcome_digest(result.outcome)


ACT_CC = OptimizationConfig(activation_recompute=True, cc_overlap=True)

BASE_GOLDENS = {
    "1f1b":
        "5dcf0015de50b25e3a024e4fe61a4f7f2bdbb4b87225ace53a3c4ed0d17aea5d",
    "interleaved":
        "9ec49548e1b8d7b290db8bc532ae3479a9a0392a494a8a088dd0e5cda4ba0988",
    "gpipe":
        "da9b0d2577cf4c789f1cb8b32f5185c05889eae1d0cf441fc207fed62631c7c9",
}

OPT_GOLDENS = {
    "1f1b":
        "1fb55f8e7c2561af2b13dbea09ac5edd67d8053faf4e2dd1a1776ea4c9a33a02",
    "interleaved":
        "7a22fb4c8dcdde171442a7d7b294243ffa690a2ff72a8f3dc9c3ae7e84fb9870",
    "gpipe":
        "ab7f9e6ddf0ba229d604d7ec63094db957b8fa886570363487820bb477f693b4",
}


def _strategy_for(schedule: str) -> ParallelismConfig:
    if schedule == "interleaved":
        return _strategy(pipeline_schedule="interleaved")
    if schedule == "gpipe":
        return _strategy(pipeline_schedule="gpipe")
    return _strategy()


class TestLegacySchedulesBitIdentical:
    @pytest.mark.parametrize("schedule", sorted(BASE_GOLDENS))
    def test_base_run_matches_prerefactor_engine(self, schedule):
        assert _train(_strategy_for(schedule)) == BASE_GOLDENS[schedule]

    @pytest.mark.parametrize("schedule", sorted(OPT_GOLDENS))
    def test_recompute_overlap_run_matches(self, schedule):
        assert _train(_strategy_for(schedule), ACT_CC) == (
            OPT_GOLDENS[schedule]
        )

    def test_inference_matches(self):
        result = execute_inference(
            "gpt3-13b", "h200x32", _strategy(),
            microbatch_size=1, global_batch_size=16, iterations=2,
        )
        assert outcome_digest(result.outcome) == (
            "28a82510023554d53804f27d5bf74981288f8312535d54a9b955957e6aae5b1e"
        )

    def test_moe_expert_parallel_matches(self):
        result = execute_training(
            "mixtral-8x7b", "h200x32",
            ParallelismConfig(tp=1, pp=2, dp=16, ep=4),
            microbatch_size=1, global_batch_size=32, iterations=2,
        )
        assert outcome_digest(result.outcome) == (
            "27b2920a2089746f300ceac1bca769f41468c224498536f05be2b5dcff52322e"
        )

    def test_schedule_override_is_equivalent_to_strategy_field(self):
        """``pipeline_schedule=`` kwarg == strategy-field spelling."""
        via_kwarg = execute_training(
            "gpt3-13b", "h200x32", _strategy(),
            microbatch_size=1, global_batch_size=16, iterations=2,
            pipeline_schedule="gpipe",
        )
        assert outcome_digest(via_kwarg.outcome) == BASE_GOLDENS["gpipe"]
