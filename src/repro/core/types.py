"""Sampling output types shared by Sieve and the baselines.

Both Sieve and PKS reduce a workload to a small set of *representative
kernel invocations* with weights; everything downstream (simulation,
performance prediction, speedup accounting) consumes this common shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.hardware import WorkloadMeasurement
from repro.utils.validation import require


@dataclass(frozen=True)
class Representative:
    """One selected kernel invocation.

    ``invocation_id`` is the per-kernel chronological index (the paper's
    kernel invocation ID); ``row`` is the invocation's row in the profile
    table it was selected from; ``weight`` is the representative's relative
    weight under its method's weighting scheme; ``group`` labels the
    stratum/cluster it represents; ``group_size`` is the number of
    invocations it stands in for.
    """

    kernel_name: str
    kernel_id: int
    invocation_id: int
    row: int
    weight: float
    group: str
    group_size: int

    def __post_init__(self) -> None:
        require(self.weight >= 0, "weights must be non-negative")
        require(self.group_size >= 1, "a representative stands for >= 1")


@dataclass(frozen=True)
class SampleSelection:
    """A sampling method's output for one workload."""

    workload: str
    method: str
    representatives: tuple[Representative, ...]
    total_instructions: int
    num_invocations: int

    def __post_init__(self) -> None:
        require(len(self.representatives) >= 1, "selection must be non-empty")
        require(self.num_invocations >= len(self.representatives),
                "more representatives than invocations")

    @property
    def num_representatives(self) -> int:
        return len(self.representatives)

    def locate(self, measurement: WorkloadMeasurement) -> tuple[np.ndarray, np.ndarray]:
        """Each representative as (kernel, invocation id) in ``measurement``.

        The pair :meth:`WorkloadMeasurement.lookup` and the imputation
        ladder take; an absent kernel is -1.
        """
        reps = self.representatives
        kernel = measurement.kernel_index(rep.kernel_name for rep in reps)
        ids = np.fromiter((rep.invocation_id for rep in reps), dtype=np.int64, count=len(reps))
        return kernel, ids

    def sample_cycles(self, measurement: WorkloadMeasurement) -> int:
        """Cycles spent executing (or simulating) just the representatives.

        A representative the measurement lacks costs nothing here.
        """
        cycles, _, _ = measurement.lookup(*self.locate(measurement))
        return int(cycles.sum())
