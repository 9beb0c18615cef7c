"""The chaos harness end to end: small seeded runs + the CLI wrapper.

These are integration tests against the real serving stack (broker,
worker pool, hooks), kept small — a handful of requests over two
distinct configurations — so they finish in seconds while still proving
the survival-report plumbing: zero drops, availability scoring, JSON
shape, and the ``python -m repro chaos`` exit-code contract.
"""

import json

import pytest

from repro.chaos import SCENARIOS, get_scenario, run_scenario
from repro.chaos import hooks
from repro.chaos.harness import SurvivalReport, build_requests
from repro.cli import main


@pytest.fixture(autouse=True)
def _fresh_memo():
    import repro.core.sweep as sweep_mod

    sweep_mod._CACHE.clear()
    yield
    sweep_mod._CACHE.clear()


@pytest.fixture(autouse=True)
def _no_chaos_handler():
    hooks.uninstall()
    yield
    hooks.uninstall()


class TestBuildRequests:
    def test_count_and_cycling(self):
        batch = build_requests(10, distinct=3)
        assert len(batch) == 10
        digests = [request.digest() for request in batch]
        assert len(set(digests)) == 3
        assert digests[0] == digests[3] == digests[6]

    def test_distinct_defaults_to_at_most_eight(self):
        assert len({r.digest() for r in build_requests(20)}) == 8
        assert len({r.digest() for r in build_requests(3)}) == 3

    def test_requests_carry_the_harness_deadline(self):
        assert all(r.timeout_s == 120.0 for r in build_requests(2))


class TestRunScenario:
    def test_baseline_survives_with_zero_drops(self, tmp_path):
        report = run_scenario(
            SCENARIOS["baseline"],
            seed=0, requests=6, workers=2, distinct=2,
            cache_dir=tmp_path / "chaos-cache",
        )
        assert isinstance(report, SurvivalReport)
        assert report.survived
        assert report.answered == 6
        assert report.ok == 6
        assert report.drops == 0
        assert report.degraded == 0
        assert report.injected == {}
        assert report.availability == 1.0
        assert report.latency_p99_s >= report.latency_p50_s >= 0.0
        assert report.pool["workers"] == 2
        json.dumps(report.to_dict())  # JSON-shaped
        assert "SURVIVED" in report.describe()

    def test_lost_answers_scenario_heals(self, tmp_path):
        report = run_scenario(
            SCENARIOS["lost-answers"],
            seed=1, requests=8, workers=2, distinct=2,
            cache_dir=tmp_path / "chaos-cache",
        )
        assert report.survived
        assert report.drops == 0
        assert report.metrics["errors_total"] == 0

    def test_tcp_drop_alone_drops_and_reconnects(self, tmp_path):
        report = run_scenario(
            SCENARIOS["tcp-drop"], seed=0, requests=20,
            cache_dir=tmp_path / "chaos-cache",
        )
        assert report.injected == {"pool.dispatch:drop_conn": 1}
        assert report.survived
        assert report.drops == 0
        assert report.ok == 20
        # The dropped task re-landed elsewhere, and the remote worker
        # dialled back in: the pool holds the 4 local workers and one
        # remote connection, not the dropped one as well. (That a drop
        # buries the connection at once is pinned by
        # test_chaos_pool.TestRemoteDrop.)
        assert report.metrics["retries_total"] >= 1
        assert report.pool["remote_workers"] == 1
        assert report.pool["workers"] == 5

    def test_torn_writes_tear_stored_entries(self, tmp_path):
        """The store is filled before the faults start, so reads meet
        entries: each torn one is quarantined and recomputed."""
        from repro.core.store import ResultStore

        cache = tmp_path / "chaos-cache"
        report = run_scenario(SCENARIOS["torn-writes"], seed=0,
                              requests=20, cache_dir=cache)
        torn = report.injected.get("store.get:corrupted", 0)
        assert torn >= 1
        assert report.survived and report.availability == 1.0
        assert report.degraded == 0 and report.drops == 0
        store = ResultStore(cache)
        quarantined = list(store.version_dir.rglob("*.pkl.corrupt"))
        assert len(quarantined) == torn
        # Each torn entry was recomputed and stored again, healthy.
        assert report.metrics["misses"] == torn
        assert report.metrics["store_hits"] == 8 - torn
        for request in build_requests(20):
            assert store.get(request.digest()) is not None

    def test_seeded_runs_inject_identically(self, tmp_path):
        reports = [
            run_scenario(
                SCENARIOS["torn-writes"],
                seed=7, requests=6, workers=2, distinct=2,
                cache_dir=tmp_path / f"chaos-cache-{index}",
            )
            for index in range(2)
        ]
        assert reports[0].injected == reports[1].injected
        assert all(report.survived for report in reports)


class TestChaosCli:
    def test_list_prints_the_registry(self, capsys):
        assert main(["chaos", "--list", "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert set(listing) == set(SCENARIOS)
        assert "kill 2 of 4" in listing["soak"]

    def test_unknown_scenario_is_a_helpful_error(self):
        with pytest.raises(ValueError, match="soak"):
            get_scenario("sokk")

    def test_baseline_run_exits_zero_and_reports(self, capsys,
                                                 tmp_path):
        out = tmp_path / "report.json"
        code = main([
            "chaos", "--scenario", "baseline",
            "--requests", "4", "--workers", "2",
            "--json", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["survived"] is True
        assert payload["scenarios"][0]["scenario"] == "baseline"
        assert payload["scenarios"][0]["drops"] == 0
        assert json.loads(out.read_text()) == payload
