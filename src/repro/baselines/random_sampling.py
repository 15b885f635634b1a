"""Simple random sampling baseline.

A classical statistical baseline (in the spirit of SMARTS-style random
sampling for CPUs): draw N invocations uniformly at random and scale their
mean cycle count by the population size. Not part of the paper's main
comparison but useful as a floor for the ablation benches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.prediction import PredictionResult
from repro.core.types import Representative, SampleSelection
from repro.evaluation.imputation import representative_cycles
from repro.gpu.hardware import WorkloadMeasurement
from repro.profiling.table import ProfileTable
from repro.utils.errors import PredictionError
from repro.utils.seeding import rng_for
from repro.utils.validation import require


@dataclass(frozen=True)
class RandomSampler:
    """Uniform random sampler with a fixed sample budget."""

    sample_size: int = 100

    def __post_init__(self) -> None:
        require(self.sample_size >= 1, "sample size must be >= 1")

    def select(self, table: ProfileTable) -> SampleSelection:
        n = len(table)
        size = min(self.sample_size, n)
        rng = rng_for("random-sampler", table.workload, size)
        rows = sorted(rng.choice(n, size=size, replace=False).tolist())
        # Each sampled invocation stands for n / size invocations.
        representatives = tuple(
            Representative(
                kernel_name=table.kernel_name_of_row(row),
                kernel_id=int(table.kernel_id[row]),
                invocation_id=int(table.invocation_id[row]),
                row=int(row),
                weight=1.0 / size,
                group=f"sample{i}",
                group_size=max(n // size, 1),
            )
            for i, row in enumerate(rows)
        )
        return SampleSelection(
            workload=table.workload,
            method="random",
            representatives=representatives,
            total_instructions=table.total_instructions,
            num_invocations=n,
        )

    def predict(
        self, selection: SampleSelection, measurement: WorkloadMeasurement
    ) -> PredictionResult:
        return horvitz_thompson(selection, measurement)


def horvitz_thompson(
    selection: SampleSelection, measurement: WorkloadMeasurement
) -> PredictionResult:
    """Horvitz-Thompson estimate: sample mean times population size.

    The predictor of both equal-probability baselines (random and
    periodic): every sampled invocation stands for
    ``num_invocations / len(sample)`` invocations. A zeroed or missing
    counter takes its kernel's mean cycles, with a diagnostic; a
    representative with neither is left out of the sample, and a sample
    left empty raises :class:`PredictionError`.
    """
    cycles = representative_cycles(
        selection,
        measurement,
        f"{selection.method}.predict",
        "it is left out of the sample mean",
    )
    sampled = ~np.isnan(cycles)
    count = int(sampled.sum())
    require(
        count > 0,
        f"workload {selection.workload!r}: no representative has a "
        "usable measurement to predict from",
        PredictionError,
    )
    scale = selection.num_invocations / count
    predicted = float(cycles[sampled].sum()) / count * selection.num_invocations
    return PredictionResult(
        workload=selection.workload,
        method=selection.method,
        predicted_cycles=predicted,
        predicted_ipc=selection.total_instructions / predicted,
        num_representatives=selection.num_representatives,
        contributions=tuple(np.where(sampled, cycles * scale, 0.0).tolist()),
    )
