"""Persistent result-store correctness.

Covers the cache contract end to end: hit/miss behaviour through
``cached_run``, schema-version invalidation, corruption
tolerance, concurrent-writer atomicity, ``clear_cache`` clearing both
layers, and a property test that cached results equal fresh simulations
field by field.
"""

import threading

import pytest
from hypothesis import HealthCheck, given
from hypothesis import settings as hsettings
from hypothesis import strategies as st

import repro.core.store as store_mod
import repro.core.sweep as sweep_mod
from repro.core.experiment import execute_training
from repro.core.store import persistence_disabled, result_store
from repro.core.sweep import cached_run, clear_cache, key_digest
from repro.engine.simulator import SimSettings
from repro.hardware.cluster import ClusterSpec
from repro.hardware.interconnect import INFINIBAND_100G
from repro.models.config import ModelConfig
from repro.parallelism.strategy import ParallelismConfig
from tests.conftest import assert_run_results_equal, small_node

FAST = SimSettings(physics_dt_s=0.002, telemetry_interval_s=0.005)


def _tiny_model() -> ModelConfig:
    return ModelConfig(
        name="tiny-dense",
        num_layers=8,
        hidden_size=2048,
        num_heads=16,
        ffn_hidden_size=8192,
        vocab_size=32000,
        seq_length=1024,
    )


def _small_cluster() -> ClusterSpec:
    return ClusterSpec(
        name="small-2x4",
        node=small_node(),
        num_nodes=2,
        inter_node_link=INFINIBAND_100G,
    )


def _kwargs(**overrides) -> dict:
    kwargs = dict(
        model=_tiny_model(),
        cluster=_small_cluster(),
        parallelism=ParallelismConfig(tp=2, pp=2, dp=2),
        microbatch_size=1,
        global_batch_size=8,
        iterations=2,
        settings=FAST,
    )
    kwargs.update(overrides)
    return kwargs


@pytest.fixture
def counted_runs(monkeypatch):
    """Count actual simulations behind cached_run."""
    calls = []
    real = sweep_mod.execute_training

    def counting(**kwargs):
        calls.append(1)
        return real(**kwargs)

    monkeypatch.setattr(sweep_mod, "execute_training", counting)
    clear_cache()
    return calls


class TestHitMiss:
    def test_memo_then_disk_hit(self, counted_runs):
        first = cached_run("train", **_kwargs())
        assert len(counted_runs) == 1
        assert result_store().stats().entries == 1

        # Fresh-but-equal kwargs objects hit the in-process memo.
        again = cached_run("train", **_kwargs())
        assert len(counted_runs) == 1
        assert again is first

        # A new process is modelled by dropping the memo: disk serves it.
        sweep_mod._CACHE.clear()
        from_disk = cached_run("train", **_kwargs())
        assert len(counted_runs) == 1
        assert_run_results_equal(from_disk, first)

    def test_different_config_misses(self, counted_runs):
        cached_run("train", **_kwargs())
        cached_run("train", **_kwargs(microbatch_size=2))
        assert len(counted_runs) == 2
        assert result_store().stats().entries == 2

    def test_persistence_disabled_skips_disk(self, counted_runs):
        with persistence_disabled():
            cached_run("train", **_kwargs())
        assert len(counted_runs) == 1
        assert result_store().stats().entries == 0

    def test_clear_cache_clears_both_layers(self, counted_runs):
        cached_run("train", **_kwargs())
        clear_cache()
        assert not sweep_mod._CACHE
        assert result_store().stats().entries == 0
        cached_run("train", **_kwargs())
        assert len(counted_runs) == 2


class TestInvalidation:
    def test_schema_bump_orphans_entries(self, counted_runs, monkeypatch):
        cached_run("train", **_kwargs())
        assert result_store().stats().entries == 1

        key = sweep_mod.cache_key("train", _kwargs())
        digest = key_digest(key)
        bumped = store_mod.SCHEMA_VERSION + 1
        monkeypatch.setattr(store_mod, "SCHEMA_VERSION", bumped)
        sweep_mod._CACHE.clear()
        # The version directory alone orphans the entry; key digests
        # are public request identities and stay put.
        assert key_digest(key) == digest

        stats = result_store().stats()
        assert stats.entries == 0
        assert stats.stale_entries == 1

        cached_run("train", **_kwargs())  # re-simulates under new schema
        assert len(counted_runs) == 2
        assert result_store().stats().entries == 1

    def test_corrupt_entry_is_a_miss(self, counted_runs):
        cached_run("train", **_kwargs())
        digest = key_digest(
            sweep_mod.cache_key("train", _kwargs())
        )
        path = result_store().path_for(digest)
        assert path.is_file()
        path.write_bytes(b"not a pickle")

        sweep_mod._CACHE.clear()
        repaired = cached_run("train", **_kwargs())
        assert len(counted_runs) == 2
        assert repaired.outcome.makespan_s > 0


class TestQuarantine:
    """Broken entries are moved aside, counted, and healed by recompute."""

    def _poison(self, payload: bytes) -> str:
        digest = key_digest(sweep_mod.cache_key("train", _kwargs()))
        path = result_store().path_for(digest)
        assert path.is_file()
        path.write_bytes(payload)
        sweep_mod._CACHE.clear()
        return digest

    def test_corrupt_entry_is_quarantined(self, counted_runs):
        cached_run("train", **_kwargs())
        digest = self._poison(b"not a pickle")

        cached_run("train", **_kwargs())  # recompute heals the store
        assert len(counted_runs) == 2
        path = result_store().path_for(digest)
        corpse = path.with_suffix(path.suffix + ".corrupt")
        assert corpse.is_file()
        assert corpse.read_bytes() == b"not a pickle"

        stats = result_store().stats()
        # The quarantined file stops shadowing the digest and is not
        # counted as a live entry; the healthy rewrite is.
        assert stats.quarantined_entries == 1
        assert stats.entries == 1

        # The reinstalled entry now serves disk hits again.
        sweep_mod._CACHE.clear()
        cached_run("train", **_kwargs())
        assert len(counted_runs) == 2

    def test_wrong_type_payload_is_quarantined(self, counted_runs):
        import pickle

        cached_run("train", **_kwargs())
        self._poison(pickle.dumps({"not": "a RunResult"}))

        cached_run("train", **_kwargs())
        assert len(counted_runs) == 2
        assert result_store().stats().quarantined_entries == 1

    def test_cli_cache_stats_reports_quarantined(self, counted_runs):
        from repro.cli import main

        cached_run("train", **_kwargs())
        self._poison(b"\x80truncated")
        assert result_store().get(
            key_digest(sweep_mod.cache_key("train", _kwargs()))
        ) is None  # the lookup itself quarantines

        import io
        from contextlib import redirect_stdout

        out = io.StringIO()
        with redirect_stdout(out):
            main(["cache", "stats"])
        assert "quarantined" in out.getvalue()


class TestAtomicity:
    def test_concurrent_writers_and_readers(self):
        result = execute_training(**_kwargs())
        store = result_store()
        digest = "ab" + "0" * 62
        errors: list[BaseException] = []

        def writer():
            try:
                for _ in range(20):
                    store.put(digest, result)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        def reader():
            try:
                for _ in range(40):
                    loaded = store.get(digest)
                    assert loaded is None or (
                        loaded.outcome.makespan_s
                        == result.outcome.makespan_s
                    )
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        threads += [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # Readers only ever see whole files, and no temp litter remains.
        assert store.get(digest) is not None
        leftovers = list(store.version_dir.rglob("*.tmp"))
        assert leftovers == []


class TestCachedEqualsFresh:
    @given(
        shape=st.sampled_from([(2, 2, 2), (1, 2, 4), (4, 1, 2)]),
        microbatch=st.sampled_from([1, 2]),
    )
    @hsettings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_cached_equals_fresh(self, shape, microbatch):
        tp, pp, dp = shape
        kwargs = _kwargs(
            parallelism=ParallelismConfig(tp=tp, pp=pp, dp=dp),
            microbatch_size=microbatch,
        )
        clear_cache()
        fresh = execute_training(**kwargs)
        cached_run("train", **kwargs)  # populate disk
        sweep_mod._CACHE.clear()
        roundtripped = cached_run("train", **kwargs)  # pickle round-trip
        assert_run_results_equal(roundtripped, fresh)
