"""Tests for the thermal-aware static request router
(``repro.inferserve.static_router``)."""

import pytest

from repro.hardware.cluster import H100_X64, H200_X32
from repro.inferserve import (
    ROUTERS,
    StaticRouterConfig,
    compare_routers,
    simulate_static_routing,
)


def _config(**overrides) -> StaticRouterConfig:
    defaults = dict(
        num_replicas=8,
        base_service_s=0.6,
        arrival_rate_per_s=8.0,
        duration_s=60.0,
        seed=7,
    )
    defaults.update(overrides)
    return StaticRouterConfig(**defaults)


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            _config(num_replicas=0)
        with pytest.raises(ValueError):
            _config(base_service_s=0.0)
        with pytest.raises(ValueError):
            _config(router="random")
        with pytest.raises(ValueError):
            _config(duration_s=0.09)  # shorter than one physics step

    def test_rejects_non_dividing_replicas(self):
        with pytest.raises(ValueError):
            simulate_static_routing(H200_X32, _config(num_replicas=7))

    def test_rejects_multi_node_replicas(self):
        with pytest.raises(ValueError):
            simulate_static_routing(H200_X32, _config(num_replicas=2))


class TestSimulation:
    def test_completes_with_sane_metrics(self):
        outcome = simulate_static_routing(H200_X32, _config())
        assert outcome.completed > 100
        assert outcome.mean_latency_s >= _config().base_service_s
        assert outcome.p99_latency_s >= outcome.mean_latency_s
        assert 30 < outcome.mean_temp_c < 100
        assert len(outcome.per_replica_served) == 8

    def test_deterministic_for_seed(self):
        first = simulate_static_routing(H200_X32, _config())
        second = simulate_static_routing(H200_X32, _config())
        assert first.completed == second.completed
        assert first.mean_latency_s == second.mean_latency_s

    def test_seed_changes_trace(self):
        first = simulate_static_routing(H200_X32, _config(seed=1))
        second = simulate_static_routing(H200_X32, _config(seed=2))
        assert first.completed != second.completed or (
            first.mean_latency_s != second.mean_latency_s
        )

    def test_higher_load_raises_latency(self):
        light = simulate_static_routing(H200_X32, _config(arrival_rate_per_s=4.0))
        heavy = simulate_static_routing(H200_X32, _config(arrival_rate_per_s=11.0))
        assert heavy.mean_latency_s > light.mean_latency_s

    def test_round_robin_balances_load(self):
        outcome = simulate_static_routing(H200_X32, _config(router="round_robin"))
        served = outcome.per_replica_served
        assert max(served) - min(served) <= 2


class TestRouterComparison:
    def test_all_routers_run_same_trace(self):
        outcomes = compare_routers(H200_X32, _config())
        assert set(outcomes) == set(ROUTERS)
        # Same arrival trace: the total offered load matches.
        totals = {sum(o.per_replica_served) for o in outcomes.values()}
        assert len(totals) <= 2  # at most off-by-a-tail-batch

    def test_thermal_aware_prefers_cool_replicas(self):
        """The paper's proposal: route to cooler GPUs. Front-positioned
        replicas (even node halves) must receive more work."""
        outcome = simulate_static_routing(
            H200_X32, _config(router="thermal_aware", duration_s=120.0)
        )
        served = outcome.per_replica_served
        front = sum(served[i] for i in range(0, 8, 2))
        rear = sum(served[i] for i in range(1, 8, 2))
        assert front > rear

    def test_thermal_aware_not_worse_than_round_robin(self):
        outcomes = compare_routers(
            H200_X32, _config(duration_s=120.0, arrival_rate_per_s=9.0)
        )
        assert (
            outcomes["thermal_aware"].p99_latency_s
            <= outcomes["round_robin"].p99_latency_s * 1.02
        )


#: Outcomes pinned before the router moved onto ``VectorPhysics``: the
#: ablation benchmark's config on ``h200x32`` (240 s, 8 replicas) and a
#: throttling ``h100x64`` config with 16 replicas.
PINNED_CASES = {
    "ablation-h200x32": (
        H200_X32,
        StaticRouterConfig(
            num_replicas=8, base_service_s=0.8, arrival_rate_per_s=8.5,
            duration_s=240.0, seed=11,
        ),
        {
            "round_robin": (
                1995, [255, 245, 255, 244, 254, 244, 254, 244],
                (2.3047984933598706, 9.446413029844905, 76.45781420798734,
                 84.7174672923269, 9.227985976991121),
            ),
            "least_loaded": (
                2021, [284, 248, 279, 240, 267, 231, 252, 220],
                (1.5777836876058087, 4.451293557078117, 76.6828835495575,
                 85.53660416292173, 3.7602097699058845),
            ),
            "thermal_aware": (
                2023, [284, 239, 278, 235, 269, 230, 262, 226],
                (1.5756839997303766, 4.502128871827466, 76.83292976364652,
                 85.71504353654072, 8.032622089451223),
            ),
        },
    ),
    "h100x64-16-replicas": (
        H100_X64,
        StaticRouterConfig(
            num_replicas=16, base_service_s=0.6, arrival_rate_per_s=22.0,
            duration_s=90.0, seed=3,
        ),
        {
            "round_robin": (
                1982,
                [124, 124, 124, 124, 124, 124, 124, 124,
                 124, 124, 124, 124, 124, 123, 124, 123],
                (0.6722049167451276, 1.1700692547856981, 69.65093807115255,
                 84.78966944976892, 15.721807353444419),
            ),
            "least_loaded": (
                1981,
                [142, 135, 141, 133, 138, 129, 135, 128,
                 132, 121, 123, 118, 112, 107, 99, 88],
                (0.669321218436759, 1.160789154332786, 69.14484831477098,
                 85.00176008121741, 16.216227742987797),
            ),
            "thermal_aware": (
                1983,
                [141, 127, 139, 122, 138, 123, 134, 120,
                 131, 118, 128, 115, 120, 112, 112, 103],
                (0.6609349832106177, 1.160789154332786, 69.35640271871694,
                 84.87485875632129, 19.66641812877451),
            ),
        },
    ),
}


class TestPinnedOutcomes:
    """Characterisation: every router's outcome on two fixed traces.

    Counts match exactly; the float fields to 1e-12 relative, which
    admits reduction-order noise in the physics but no model change.
    """

    @pytest.mark.parametrize("case", sorted(PINNED_CASES))
    def test_compare_routers_matches_pinned(self, case):
        cluster, config, expected = PINNED_CASES[case]
        outcomes = compare_routers(cluster, config)
        assert set(outcomes) == set(expected)
        for router, (completed, served, floats) in expected.items():
            outcome = outcomes[router]
            assert outcome.completed == completed, router
            assert outcome.per_replica_served == served, router
            got = (outcome.mean_latency_s, outcome.p99_latency_s,
                   outcome.mean_temp_c, outcome.peak_temp_c,
                   outcome.temp_spread_c)
            assert got == pytest.approx(floats, rel=1e-12, abs=0), router
