"""Two-level profiling (the PKA mitigation for Nsight's cost).

Section II-B: "Baddouh et al. propose two-level profiling in which they
perform detailed profiling collecting the 12 characteristics for a first
batch of kernels, followed by low-overhead profiling to collect the kernel
names and grid dimensions for the remaining kernels in the workload."

:class:`TwoLevelProfiler` emits a detailed (12-metric) table for the first
``detailed_budget`` chronological invocations and a light (name + launch
shape) table for the remainder, with the modeled cost of each phase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.arch import AMPERE_RTX3080, GpuArchitecture
from repro.gpu.hardware import execution_record
from repro.observability import metrics, span
from repro.profiling.base import flatten_chronological, footprints, native_seconds
from repro.profiling.cost import ProfilingCost, ProfilingCostModel
from repro.profiling.metrics import PKS_METRICS
from repro.profiling.table import ProfileTable
from repro.utils.validation import require
from repro.workloads.generator import WorkloadRun


@dataclass(frozen=True)
class TwoLevelProfile:
    """Output of a two-level profiling campaign."""

    detailed: ProfileTable  # first batch, full 12-metric matrix
    light: ProfileTable  # remainder: names + launch shapes (+ insn count)
    detailed_cost: ProfilingCost
    light_cost: ProfilingCost

    @property
    def total_seconds(self) -> float:
        return self.detailed_cost.total_seconds + self.light_cost.total_seconds

    @property
    def num_invocations(self) -> int:
        return len(self.detailed) + len(self.light)


def _slice_table(table: ProfileTable, rows: np.ndarray) -> ProfileTable:
    return ProfileTable(
        workload=table.workload,
        kernel_names=table.kernel_names,
        kernel_id=table.kernel_id[rows],
        invocation_id=table.invocation_id[rows],
        insn_count=table.insn_count[rows],
        cta_size=table.cta_size[rows],
        num_ctas=table.num_ctas[rows],
        metrics=None if table.metrics is None else table.metrics[rows],
    )


class TwoLevelProfiler:
    """Detailed profiling for a prefix, light profiling for the rest."""

    def __init__(
        self,
        detailed_budget: int,
        arch: GpuArchitecture = AMPERE_RTX3080,
    ):
        require(detailed_budget >= 1, "detailed budget must be >= 1")
        self.detailed_budget = detailed_budget
        self.arch = arch
        self._cost_model = ProfilingCostModel()

    def profile(self, run: WorkloadRun) -> TwoLevelProfile:
        """Profile ``run`` with the two-level scheme."""
        with span("profiling.two_level", workload=run.label):
            record = execution_record(self.arch, run)
            full = flatten_chronological(run, record, with_metrics=True)
            seconds = native_seconds(record, self.arch)
            footprint = footprints(record, self.arch)
            budget = min(self.detailed_budget, len(full))
            head = np.arange(budget)
            tail = np.arange(budget, len(full))

            detailed = _slice_table(full, head)
            light = _slice_table(full, tail).without_metrics()

            metrics.inc("profiling.two_level.detailed", int(budget))
            metrics.inc("profiling.two_level.light", int(len(full) - budget))
            detailed_cost = self._cost_model.nsight_cost(
                run.label,
                seconds[head],
                footprint[head],
                num_metrics=len(PKS_METRICS),
                complexity=run.spec.profiling_complexity,
            )
            light_cost = self._cost_model.nvbit_cost(run.label, seconds[tail])
            return TwoLevelProfile(
                detailed=detailed,
                light=light,
                detailed_cost=detailed_cost,
                light_cost=light_cost,
            )
