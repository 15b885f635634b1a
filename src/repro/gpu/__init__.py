"""GPU hardware substrate.

The paper evaluates Sieve through *real silicon validation* on an Nvidia
RTX 3080 (Ampere) and RTX 2080Ti (Turing). This package is the stand-in for
that silicon: an analytical, interval-style GPU timing model that maps each
kernel invocation's execution characteristics to a deterministic cycle
count on a configurable architecture.

The samplers under test (Sieve, PKS) never look inside this model — they
only consume the per-invocation cycle counts it produces, exactly as the
paper's scripts only consume profiler and hardware-counter output.
"""

from repro.gpu.arch import AMPERE_RTX3080, TURING_RTX2080TI, GpuArchitecture
from repro.gpu.hardware import HardwareExecutor, WorkloadMeasurement
from repro.gpu.kernel import InvocationBatch, KernelTraits
from repro.gpu.occupancy import OccupancyResult, occupancy_for

__all__ = [
    "GpuArchitecture",
    "AMPERE_RTX3080",
    "TURING_RTX2080TI",
    "KernelTraits",
    "InvocationBatch",
    "OccupancyResult",
    "occupancy_for",
    "HardwareExecutor",
    "WorkloadMeasurement",
]
