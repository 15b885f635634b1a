"""Periodic (systematic) sampling baseline.

Takes every ``period``-th invocation in chronological order — the GPU
analogue of periodic CPU sampling (Wunderlich et al., SMARTS). Vulnerable
to phase-aligned workloads, which is part of why targeted sampling exists.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.random_sampling import horvitz_thompson
from repro.core.prediction import PredictionResult
from repro.core.types import Representative, SampleSelection
from repro.gpu.hardware import WorkloadMeasurement
from repro.profiling.table import ProfileTable
from repro.utils.validation import require


@dataclass(frozen=True)
class PeriodicSampler:
    """Select every ``period``-th invocation, starting with the first."""

    period: int = 100

    def __post_init__(self) -> None:
        require(self.period >= 1, "period must be >= 1")

    def select(self, table: ProfileTable) -> SampleSelection:
        n = len(table)
        rows = range(0, n, self.period)
        representatives = tuple(
            Representative(
                kernel_name=table.kernel_name_of_row(row),
                kernel_id=int(table.kernel_id[row]),
                invocation_id=int(table.invocation_id[row]),
                row=row,
                weight=1.0 / len(rows),
                group=f"period{i}",
                group_size=min(self.period, n),
            )
            for i, row in enumerate(rows)
        )
        return SampleSelection(
            workload=table.workload,
            method="periodic",
            representatives=representatives,
            total_instructions=table.total_instructions,
            num_invocations=n,
        )

    def predict(
        self, selection: SampleSelection, measurement: WorkloadMeasurement
    ) -> PredictionResult:
        return horvitz_thompson(selection, measurement)
