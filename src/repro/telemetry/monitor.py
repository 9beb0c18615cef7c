"""Zeus-style telemetry: sampled per-GPU time series.

The simulator samples every GPU at a fixed interval (the paper's modified
Zeus polls NVML/AMD-SMI similarly), recording board power, die
temperature, clock ratio, compute/communication utilisation flags, and
instantaneous PCIe throughput. Downstream analysis (Figures 4, 6, 9-10,
12-14, 17-19, 23) consumes these series.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


_FIELDS = (
    "time_s",
    "power_w",
    "temp_c",
    "freq_ratio",
    "compute_util",
    "comm_util",
    "pcie_bytes_per_s",
)


def gpu_rows(matrix: np.ndarray) -> np.ndarray:
    """A ``(samples, gpus)`` matrix as one contiguous row per GPU.

    Reducing a contiguous row sums one GPU's samples in the same order
    as reducing that GPU's own series, so the floats match it bit for
    bit; a strided column would be summed in another order. The column
    sum of the rows adds the GPUs in id order, sample by sample.
    """
    return np.ascontiguousarray(matrix.T)


@dataclass
class GpuSeries:
    """Telemetry time series of one GPU, as parallel numpy arrays."""

    times_s: np.ndarray
    power_w: np.ndarray
    temp_c: np.ndarray
    freq_ratio: np.ndarray
    compute_util: np.ndarray
    comm_util: np.ndarray
    pcie_bytes_per_s: np.ndarray

    def window(self, start_s: float, end_s: float) -> "GpuSeries":
        """Restrict the series to ``[start_s, end_s)``."""
        mask = (self.times_s >= start_s) & (self.times_s < end_s)
        return GpuSeries(
            times_s=self.times_s[mask],
            power_w=self.power_w[mask],
            temp_c=self.temp_c[mask],
            freq_ratio=self.freq_ratio[mask],
            compute_util=self.compute_util[mask],
            comm_util=self.comm_util[mask],
            pcie_bytes_per_s=self.pcie_bytes_per_s[mask],
        )

    def energy_joules(self) -> float:
        """Trapezoidal energy integral over the series."""
        if len(self.times_s) < 2:
            return 0.0
        return float(np.trapezoid(self.power_w, self.times_s))


@dataclass(eq=False)
class TelemetryLog:
    """Collected samples for every GPU of a run.

    :meth:`record_step` writes one aligned sample for *all* GPUs at once
    as one row of a growable ``(samples, num_gpus)`` matrix per field,
    plus one entry of a shared sample-time vector; :meth:`trim` drops
    the unused capacity when a run ends, so a stored log pickles seven
    arrays. :meth:`from_matrices` builds a log from whole matrices (the
    batched replay), and :meth:`series` reads one GPU's column.

    ``==`` is exact: every field equal, arrays compared element for
    element.
    """

    num_gpus: int
    sample_interval_s: float
    # Sample times (capacity,) and one (capacity, num_gpus) matrix per
    # non-time field; the first _count rows are filled.
    _times: np.ndarray | None = field(default=None, repr=False)
    _matrices: tuple[np.ndarray, ...] = field(default=(), repr=False)
    _count: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self._times is None:
            self._times = np.empty(0)
            self._matrices = tuple(
                np.empty((0, self.num_gpus)) for _ in _FIELDS[1:]
            )

    @classmethod
    def from_matrices(cls, num_gpus: int, sample_interval_s: float,
                      times_s, matrices) -> "TelemetryLog":
        """A log of aligned samples given whole.

        Args:
            times_s: ``(samples,)`` sample instants.
            matrices: one ``(samples, num_gpus)`` matrix per field, in
                :meth:`record_step` order, columns indexed by physical
                GPU id. Float arrays are used as given, not copied.
        """
        times = np.asarray(times_s, dtype=float)
        return cls(
            num_gpus, sample_interval_s, _times=times,
            _matrices=tuple(np.asarray(m, dtype=float) for m in matrices),
            _count=len(times),
        )

    def record_step(
        self,
        time_s: float,
        power_w,
        temp_c,
        freq_ratio,
        compute_util,
        comm_util,
        pcie_bytes_per_s,
    ) -> None:
        """Append one aligned sample for every GPU at once.

        Args:
            time_s: shared sample instant.
            power_w..pcie_bytes_per_s: per-GPU sequences indexed by
                physical GPU id. Values are copied into the log's
                matrices, so callers may reuse or mutate their buffers
                afterwards.
        """
        row = self._count
        if row == len(self._times):
            self._resize(max(64, 2 * row))
        self._times[row] = time_s
        power, temp, freq, compute, comm, pcie = self._matrices
        power[row] = power_w
        temp[row] = temp_c
        freq[row] = freq_ratio
        compute[row] = compute_util
        comm[row] = comm_util
        pcie[row] = pcie_bytes_per_s
        self._count = row + 1

    def _resize(self, capacity: int) -> None:
        """Move the aligned samples into buffers of ``capacity`` rows."""
        n = self._count
        times = np.empty(capacity)
        times[:n] = self._times[:n]
        matrices = []
        for matrix in self._matrices:
            grown = np.empty((capacity, self.num_gpus))
            grown[:n] = matrix[:n]
            matrices.append(grown)
        self._times = times
        self._matrices = tuple(matrices)

    def trim(self) -> None:
        """Drop unused buffer capacity (the simulator calls this when a
        run ends)."""
        if len(self._times) != self._count:
            self._resize(self._count)

    def num_samples(self, gpu: int) -> int:
        """Number of samples recorded for one GPU."""
        return self._count

    def series(self, gpu: int) -> GpuSeries:
        """Materialise one GPU's samples as arrays (copies)."""
        n = self._count
        power, temp, freq, compute, comm, pcie = (
            matrix[:n, gpu].copy() for matrix in self._matrices
        )
        return GpuSeries(
            times_s=self._times[:n].copy(),
            power_w=power,
            temp_c=temp,
            freq_ratio=freq,
            compute_util=compute,
            comm_util=comm,
            pcie_bytes_per_s=pcie,
        )

    def window(
        self, start_s: float = 0.0, end_s: float = float("inf")
    ) -> tuple[np.ndarray, ...]:
        """Samples in ``[start_s, end_s)``, every field at once.

        Returns ``(times_s, power_w, temp_c, freq_ratio, compute_util,
        comm_util, pcie_bytes_per_s)``: the ``(samples,)`` time vector,
        then one ``(samples, num_gpus)`` matrix per field, all
        read-only. When the selected samples are consecutive (sample
        times ascend, as the simulator records them) these are views of
        the log, otherwise copies.
        """
        n = self._count
        times = self._times[:n]
        rows = np.flatnonzero((times >= start_s) & (times < end_s))
        if len(rows) and rows[-1] - rows[0] + 1 == len(rows):
            rows = slice(rows[0], rows[-1] + 1)
        window = (times[rows],) + tuple(
            matrix[:n][rows] for matrix in self._matrices
        )
        for array in window:
            array.flags.writeable = False
        return window

    def __eq__(self, other) -> bool:
        if not isinstance(other, TelemetryLog):
            return NotImplemented
        n = self._count
        return (
            self.num_gpus == other.num_gpus
            and self.sample_interval_s == other.sample_interval_s
            and n == other._count
            and np.array_equal(self._times[:n], other._times[:n])
            and all(
                np.array_equal(a[:n], b[:n])
                for a, b in zip(self._matrices, other._matrices)
            )
        )

    __hash__ = None

    def gpu_energy_joules(
        self, start_s: float = 0.0, end_s: float = float("inf")
    ) -> list[float]:
        """Per-GPU trapezoidal energy over a time window, by GPU id.

        ``np.trapezoid`` integrates each GPU as one contiguous row, so
        every value equals :meth:`GpuSeries.energy_joules` on that GPU's
        windowed series bit for bit.
        """
        times, power = self.window(start_s, end_s)[:2]
        if len(times) < 2:
            return [0.0] * self.num_gpus
        return np.trapezoid(gpu_rows(power), times).tolist()

    def total_energy_joules(
        self, start_s: float = 0.0, end_s: float = float("inf")
    ) -> float:
        """Cluster-wide energy over a time window (GPUs added in id
        order)."""
        return sum(self.gpu_energy_joules(start_s, end_s))

    def aggregate_power(self) -> tuple[np.ndarray, np.ndarray]:
        """(times, total power) across all GPUs on the common grid.

        Sample times are aligned by construction (the simulator samples
        every GPU at the same instants); each sample adds the GPUs in id
        order.
        """
        n = self._count
        if self.num_gpus == 0 or n == 0:
            return np.array([]), np.array([])
        return self._times[:n].copy(), gpu_rows(self._matrices[0][:n]).sum(
            axis=0
        )
