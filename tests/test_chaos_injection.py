"""FaultPlan / FaultInjector: validation, determinism, bookkeeping."""

import pytest

from repro.chaos.injection import FaultInjector, FaultPlan, torn_write
from repro.chaos.scenarios import SCENARIOS, get_scenario


class TestFaultPlan:
    def test_defaults_are_inert(self):
        plan = FaultPlan()
        assert not plan.active

    def test_any_trigger_arms_the_plan(self):
        assert FaultPlan(kill_local_dispatches=(1,)).active
        assert FaultPlan(straggler_rate=0.5).active
        assert FaultPlan(corrupt_read_rate=0.01).active

    def test_delay_magnitudes_alone_do_not_arm(self):
        assert not FaultPlan(straggler_delay_s=9.0).active

    def test_rejects_out_of_range_rates(self):
        with pytest.raises(ValueError, match="straggler_rate"):
            FaultPlan(straggler_rate=1.5)
        with pytest.raises(ValueError, match="corrupt_read_rate"):
            FaultPlan(corrupt_read_rate=-0.1)

    def test_rejects_negative_delays(self):
        with pytest.raises(ValueError, match="straggler_delay_s"):
            FaultPlan(straggler_delay_s=-1.0)

    def test_to_dict_is_json_shaped(self):
        import json

        plan = FaultPlan(kill_local_dispatches=(2, 5),
                         corrupt_read_rate=0.05)
        data = plan.to_dict()
        assert data["kill_local_dispatches"] == [2, 5]
        assert data["corrupt_read_rate"] == 0.05
        json.dumps(data)  # serialisable


class TestTornWrite:
    def test_truncates_to_half(self, tmp_path):
        target = tmp_path / "entry.pkl"
        target.write_bytes(b"x" * 100)
        assert torn_write(target)
        assert target.stat().st_size == 50

    def test_missing_file_is_a_no_op(self, tmp_path):
        assert not torn_write(tmp_path / "absent.pkl")

    def test_tiny_file_is_left_alone(self, tmp_path):
        target = tmp_path / "tiny.pkl"
        target.write_bytes(b"x")
        assert not torn_write(target)
        assert target.read_bytes() == b"x"


class TestInjectorOrdinals:
    def test_kills_exactly_the_named_local_dispatches(self):
        plan = FaultPlan(kill_local_dispatches=(1, 3))
        injector = FaultInjector(plan, seed=0)
        outcomes = [
            dict(injector("pool.dispatch",
                          {"worker": 0, "task": i, "remote": False,
                           "dispatch": i}) or {})
            for i in range(5)
        ]
        assert [bool(o.get("kill")) for o in outcomes] == [
            False, True, False, True, False
        ]

    def test_remote_and_local_ordinals_are_independent(self):
        plan = FaultPlan(drop_remote_dispatches=(0,))
        injector = FaultInjector(plan, seed=0)
        local = injector("pool.dispatch",
                         {"worker": 0, "task": 0, "remote": False,
                          "dispatch": 0})
        remote = injector("pool.dispatch",
                          {"worker": 1, "task": 1, "remote": True,
                           "dispatch": 1})
        assert not (local or {}).get("drop_conn")
        assert remote["drop_conn"] is True

    def test_broker_execute_only_stalls(self):
        injector = FaultInjector(FaultPlan(execute_delay_rate=1.0,
                                           execute_delay_s=0.1), seed=0)
        assert injector("broker.execute", {"digest": "d"}) == {
            "delay_s": 0.1
        }
        assert FaultInjector(FaultPlan(), seed=0)(
            "broker.execute", {"digest": "d"}
        ) is None


class TestInjectorDeterminism:
    def _straggler_pattern(self, seed: int) -> list:
        injector = FaultInjector(FaultPlan(straggler_rate=0.5), seed=seed)
        return [
            bool((injector("pool.dispatch",
                           {"worker": 0, "task": i, "remote": False,
                            "dispatch": i}) or {}).get("delay_s"))
            for i in range(32)
        ]

    def test_same_seed_same_faults(self):
        assert self._straggler_pattern(7) == self._straggler_pattern(7)

    def test_different_seed_different_faults(self):
        assert self._straggler_pattern(7) != self._straggler_pattern(8)

    def test_sites_draw_from_independent_streams(self):
        # Interleaving calls to another site must not perturb a site's
        # own sequence (thread-schedule immunity).
        plan = FaultPlan(straggler_rate=0.5, result_drop_rate=0.5)
        solo = FaultInjector(plan, seed=3)
        interleaved = FaultInjector(plan, seed=3)
        solo_pattern = [
            bool((solo("pool.dispatch",
                       {"worker": 0, "task": i, "remote": False,
                        "dispatch": i}) or {}).get("delay_s"))
            for i in range(16)
        ]
        mixed_pattern = []
        for i in range(16):
            interleaved("pool.result", {"worker": 0, "task": i})
            mixed_pattern.append(
                bool((interleaved("pool.dispatch",
                                  {"worker": 0, "task": i,
                                   "remote": False,
                                   "dispatch": i}) or {}).get("delay_s"))
            )
        assert solo_pattern == mixed_pattern


class TestInjectorBookkeeping:
    def test_counts_and_events_record_what_fired(self):
        plan = FaultPlan(kill_local_dispatches=(0,))
        injector = FaultInjector(plan, seed=0)
        injector("pool.dispatch",
                 {"worker": 4, "task": 9, "remote": False, "dispatch": 0})
        assert injector.injected() == {"pool.dispatch:kill": 1}
        assert injector.events[0]["site"] == "pool.dispatch"
        assert injector.events[0]["worker"] == "4"

    def test_unknown_site_is_ignored(self):
        injector = FaultInjector(FaultPlan(), seed=0)
        assert injector("no.such.site", {}) is None


class TestScenarioRegistry:
    def test_soak_is_registered_with_the_pinned_faults(self):
        soak = SCENARIOS["soak"]
        assert soak.plan.kill_local_dispatches == (2, 5)
        assert soak.plan.drop_remote_dispatches == (0,)
        assert soak.plan.corrupt_read_rate == 0.05
        assert soak.remote_workers == 1
        assert soak.min_availability == 1.0

    def test_lookup_normalises_names(self):
        assert get_scenario("  SOAK ").name == "soak"

    def test_unknown_scenario_gets_did_you_mean(self):
        with pytest.raises(ValueError) as excinfo:
            get_scenario("sook")
        message = str(excinfo.value)
        assert "sook" in message
        assert "soak" in message
