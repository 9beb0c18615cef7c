"""Contract of columnar run outputs: ``KernelTable`` and ``TelemetryLog``.

A run's kernel trace is a :class:`~repro.engine.kernels.KernelTable`
(eight columns) and its aligned telemetry is one matrix per field. The
properties here pin that the columnar forms are drop-in replacements
for the record lists they replaced:

- a table iterates back to the exact records it was built from, as
  plain Python values, and survives a pickle round trip;
- every trace aggregation over a table equals the record-by-record
  loops kept below as the reference, with ``==`` (same float bits,
  same dict key order);
- results compare exactly with ``==``;
- a stored result pickles a few buffers, not one object per record.
"""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.experiment import execute_training
from repro.core.store import persistence_disabled
from repro.engine.batched import evaluate_grid
from repro.engine.kernels import (
    KernelCategory,
    KernelKind,
    KernelRecord,
    KernelTable,
    pressure_of,
)
from repro.engine.simulator import SimSettings
from repro.optimize import settings_for_setpoint
from repro.trace.chakra import (
    KernelBreakdown,
    PressureSummary,
    comm_skew,
    filter_records,
    mean_breakdown,
    per_rank_breakdown,
    pressure_summary,
)
from tests.conftest import lane_tally


# -- reference: the record-by-record loops the columns replaced --------


def ref_filter_records(records, iteration=None, min_iteration=None):
    out = records
    if iteration is not None:
        out = [r for r in out if r.iteration == iteration]
    if min_iteration is not None:
        out = [r for r in out if r.iteration >= min_iteration]
    return out


def ref_per_rank_breakdown(records):
    out = {}
    for record in records:
        out.setdefault(record.rank, KernelBreakdown()).add(
            record.category, record.duration_s
        )
    return out


def ref_mean_breakdown(records):
    per_rank = ref_per_rank_breakdown(records)
    if not per_rank:
        return KernelBreakdown()
    mean = KernelBreakdown()
    for breakdown in per_rank.values():
        for category, seconds in breakdown.seconds.items():
            mean.add(category, seconds / len(per_rank))
    return mean


def ref_comm_skew(records):
    per_rank = ref_per_rank_breakdown(records)
    comm_categories = (
        KernelCategory.ALLREDUCE,
        KernelCategory.SENDRECV,
        KernelCategory.ALLTOALL,
        KernelCategory.ALLGATHER_RS,
    )
    totals = [
        sum(b.get(c) for c in comm_categories) for b in per_rank.values()
    ]
    if not totals:
        return 1.0
    mean = sum(totals) / len(totals)
    if mean == 0:
        return 1.0
    return max(totals) / mean


def ref_pressure_summary(records, wall_time_s):
    occupancy = warps = blocks = 0.0
    for record in records:
        profile = pressure_of(record.kind)
        weight = record.duration_s / wall_time_s
        occupancy += profile.occupancy * weight
        warps += profile.warps_per_sm * weight
        blocks += profile.threadblocks_per_sm * weight
    gpus = len({r.gpu for r in records}) or 1
    return PressureSummary(
        occupancy=min(1.0, occupancy / gpus),
        warps_per_sm=warps / gpus,
        threadblocks_per_sm=blocks / gpus,
    )


# -- strategies ----------------------------------------------------------

_times = st.floats(
    min_value=0.0, max_value=1e3, allow_nan=False, allow_infinity=False
)


@st.composite
def record_lists(draw, max_size=60):
    records = []
    for _ in range(draw(st.integers(0, max_size))):
        start = draw(_times)
        records.append(
            KernelRecord(
                gpu=draw(st.integers(0, 7)),
                rank=draw(st.integers(0, 7)),
                kind=draw(st.sampled_from(list(KernelKind))),
                start_s=start,
                end_s=start + draw(_times),
                iteration=draw(st.integers(0, 3)),
                microbatch=draw(st.integers(-1, 4)),
                stage=draw(st.integers(-1, 3)),
            )
        )
    return records


def _items(breakdowns: dict) -> list:
    """Per-rank breakdowns as ordered (rank, [(category, s), ...])."""
    return [
        (rank, list(b.seconds.items())) for rank, b in breakdowns.items()
    ]


# -- KernelTable ---------------------------------------------------------


class TestKernelTableRows:
    @settings(max_examples=60, deadline=None)
    @given(records=record_lists())
    def test_round_trip_as_python_values(self, records):
        table = KernelTable.from_records(records)
        rows = list(table)
        assert rows == records
        assert len(table) == len(records)
        assert bool(table) == bool(records)
        for row in rows:
            for name in ("gpu", "rank", "iteration", "microbatch", "stage"):
                assert type(getattr(row, name)) is int
            assert type(row.start_s) is float
            assert type(row.end_s) is float
            assert type(row.kind) is KernelKind
        for i in range(len(records)):
            assert table[i] == records[i]
            assert type(table[i].gpu) is int

    @settings(max_examples=40, deadline=None)
    @given(records=record_lists())
    def test_pickle_round_trip(self, records):
        table = KernelTable.from_records(records)
        again = pickle.loads(pickle.dumps(table))
        assert isinstance(again, KernelTable)
        assert again == table
        assert (again == table) is True
        assert list(again) == records

    def test_equality_is_exact(self):
        records = [
            KernelRecord(0, 0, KernelKind.FWD_GEMM, 0.0, 1.0, 0, 0, 0),
            KernelRecord(1, 1, KernelKind.PP_SEND, 1.0, 2.5, 0, 0, 1),
        ]
        table = KernelTable.from_records(records)
        assert table == KernelTable.from_records(records)
        other = KernelTable.from_records(records)
        other.end_s[1] = np.nextafter(2.5, 3.0)
        assert table != other
        assert (table == other) is False
        assert table != KernelTable.from_records(records[:1])

    def test_slices_and_masks_select_tables(self):
        records = [
            KernelRecord(g, g, KernelKind.BWD_GEMM, 0.0, 1.0 + g, g % 2)
            for g in range(4)
        ]
        table = KernelTable.from_records(records)
        assert list(table[1:3]) == records[1:3]
        assert list(table[table.iteration == 1]) == records[1::2]
        assert list(table[np.array([3, 0])]) == [records[3], records[0]]
        assert table[-1] == records[-1]


class TestAggregationsMatchReferenceLoops:
    @settings(max_examples=80, deadline=None)
    @given(records=record_lists())
    def test_per_rank_breakdown(self, records):
        got = per_rank_breakdown(KernelTable.from_records(records))
        assert _items(got) == _items(ref_per_rank_breakdown(records))

    @settings(max_examples=80, deadline=None)
    @given(records=record_lists())
    def test_mean_breakdown_bits_and_key_order(self, records):
        got = mean_breakdown(KernelTable.from_records(records))
        want = ref_mean_breakdown(records)
        # Key order is what run_summary's kernel_seconds emits; the
        # golden digests sort keys, so only this test pins it.
        assert list(got.seconds.items()) == list(want.seconds.items())

    @settings(max_examples=80, deadline=None)
    @given(records=record_lists())
    def test_comm_skew(self, records):
        assert comm_skew(KernelTable.from_records(records)) == (
            ref_comm_skew(records)
        )

    @settings(max_examples=80, deadline=None)
    @given(
        records=record_lists(),
        wall=st.floats(min_value=1e-3, max_value=1e4),
    )
    def test_pressure_summary(self, records, wall):
        got = pressure_summary(KernelTable.from_records(records), wall)
        assert got == ref_pressure_summary(records, wall)
        assert all(type(v) is float for v in (
            got.occupancy, got.warps_per_sm, got.threadblocks_per_sm,
        ))

    @settings(max_examples=60, deadline=None)
    @given(
        records=record_lists(),
        iteration=st.none() | st.integers(0, 3),
        min_iteration=st.none() | st.integers(0, 3),
    )
    def test_filter_records(self, records, iteration, min_iteration):
        got = filter_records(
            KernelTable.from_records(records), iteration, min_iteration
        )
        assert isinstance(got, KernelTable)
        assert list(got) == ref_filter_records(
            records, iteration, min_iteration
        )

    @settings(max_examples=30, deadline=None)
    @given(records=record_lists())
    def test_plain_lists_still_accepted(self, records):
        assert _items(per_rank_breakdown(records)) == _items(
            ref_per_rank_breakdown(records)
        )
        assert list(filter_records(records, min_iteration=1)) == (
            ref_filter_records(records, min_iteration=1)
        )


# -- whole runs ----------------------------------------------------------


def _small_run(model, cluster, settings):
    return execute_training(
        model, cluster, "TP2-PP2", global_batch_size=8, iterations=2,
        settings=settings,
    )


class TestRunEquality:
    def test_identical_runs_compare_equal(
        self, tiny_model, small_cluster, fast_settings
    ):
        with persistence_disabled():
            first = _small_run(tiny_model, small_cluster, fast_settings)
            second = _small_run(tiny_model, small_cluster, fast_settings)
        assert first.outcome is not second.outcome
        assert (first.outcome == second.outcome) is True
        assert (first == second) is True

    def test_one_changed_value_breaks_equality(
        self, tiny_model, small_cluster, fast_settings
    ):
        with persistence_disabled():
            result = _small_run(tiny_model, small_cluster, fast_settings)

        hotter = copy.deepcopy(result)
        assert hotter == result
        hotter.outcome.telemetry._matrices[1][3, 2] += 1e-6  # temp_c
        assert hotter.outcome.telemetry != result.outcome.telemetry
        assert hotter.outcome != result.outcome
        assert hotter != result

        later = copy.deepcopy(result)
        later.outcome.records.end_s[5] += 1e-9
        assert later.outcome.records != result.outcome.records
        assert later.outcome != result.outcome
        assert later != result


class TestStoredOutputsStayColumnar:
    """A store write pickles a few buffers, not one object per record."""

    @staticmethod
    def _assert_columnar(outcome):
        records = outcome.records
        assert len(records) > 0
        per_record = len(pickle.dumps(records, pickle.HIGHEST_PROTOCOL))
        assert per_record / len(records) <= 48

        telemetry = outcome.telemetry
        samples = telemetry.num_samples(0)
        assert samples > 0
        # One time vector plus six (samples, num_gpus) float64 matrices.
        raw = samples * (1 + 6 * telemetry.num_gpus) * 8
        stored = len(pickle.dumps(telemetry, pickle.HIGHEST_PROTOCOL))
        assert stored <= 1.1 * raw

    def test_simulated_run(self, tiny_model, small_cluster, fast_settings):
        with persistence_disabled():
            result = _small_run(tiny_model, small_cluster, fast_settings)
        self._assert_columnar(result.outcome)

    def test_batched_grid_points(self):
        payloads = [
            (
                "train",
                dict(
                    model="gpt3-13b",
                    cluster="mi250x32",
                    parallelism="TP4-PP2",
                    global_batch_size=8,
                    iterations=2,
                    settings=settings_for_setpoint(SimSettings(), s),
                ),
            )
            for s in (0.9, 0.8)
        ]
        with persistence_disabled(), lane_tally(min_replay_lanes=1) as tally:
            results = evaluate_grid(payloads, cache=False)
        assert len(results) == 2
        assert tally.replayed == 1
        for result in results:
            self._assert_columnar(result.outcome)


@pytest.mark.parametrize("n", [0, 1, 70, 200])
def test_telemetry_log_grows_and_trims(n):
    from repro.telemetry.monitor import TelemetryLog

    log = TelemetryLog(num_gpus=3, sample_interval_s=0.1)
    for i in range(n):
        row = np.arange(3, dtype=float) + i
        log.record_step(0.1 * i, row, row + 1, row + 2, row > 1, row > 2,
                        row * 10)
    log.trim()
    assert log.num_samples(2) == n
    series = log.series(2)
    np.testing.assert_array_equal(series.times_s, 0.1 * np.arange(n))
    np.testing.assert_array_equal(series.power_w, 2.0 + np.arange(n))
    np.testing.assert_array_equal(series.compute_util, np.ones(n))
    again = pickle.loads(pickle.dumps(log))
    assert again == log
