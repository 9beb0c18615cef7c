"""GPU power modelling."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.power.model": (
        "BUSY_COMM", "BUSY_COMPUTE", "BUSY_OVERLAPPED", "COMM_INTENSITY",
        "COMPUTE_INTENSITY", "FREQ_POWER_EXP", "IDLE", "MEMORY_INTENSITY",
        "Activity", "energy_joules", "gpu_power",
    ),
})

__all__ = [
    "BUSY_COMM",
    "BUSY_COMPUTE",
    "BUSY_OVERLAPPED",
    "COMM_INTENSITY",
    "COMPUTE_INTENSITY",
    "FREQ_POWER_EXP",
    "IDLE",
    "MEMORY_INTENSITY",
    "Activity",
    "energy_joules",
    "gpu_power",
]
