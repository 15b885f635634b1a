"""Two-level profiling (the PKA mitigation for Nsight's cost).

Section II-B: "Baddouh et al. propose two-level profiling in which they
perform detailed profiling collecting the 12 characteristics for a first
batch of kernels, followed by low-overhead profiling to collect the kernel
names and grid dimensions for the remaining kernels in the workload."

:func:`split_two_level` cuts one Nsight profile into a detailed
(12-metric) table for the first ``detailed_budget`` chronological
invocations and a light (name + launch shape) table for the remainder;
the ``pks-two-level`` method splits the context's Nsight table this way.
:class:`TwoLevelProfiler` profiles a run with the same split and models
the cost of each phase.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def split_two_level(
    table: ProfileTable, detailed_budget: int
) -> tuple[ProfileTable, ProfileTable]:
    """Split a chronological Nsight profile into its two levels.

    The detailed prefix is the first ``detailed_budget`` rows with their
    12-metric matrix; the light remainder is every later row without it.
    Both are views of ``table``, so row ``i`` of the prefix is row ``i``
    of ``table``.
    """
    budget = min(detailed_budget, len(table))
    detailed = table.slice_rows(0, budget)
    light = table.slice_rows(budget, len(table)).without_metrics()
    return detailed, light


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
            detailed, light = split_two_level(full, self.detailed_budget)
            seconds = native_seconds(record, self.arch)
            footprint = footprints(record, self.arch)
            budget = len(detailed)

            metrics.inc("profiling.two_level.detailed", budget)
            metrics.inc("profiling.two_level.light", len(light))
            detailed_cost = self._cost_model.nsight_cost(
                run.label,
                seconds[:budget],
                footprint[:budget],
                num_metrics=len(PKS_METRICS),
                complexity=run.spec.profiling_complexity,
            )
            light_cost = self._cost_model.nvbit_cost(run.label, seconds[budget:])
            return TwoLevelProfile(
                detailed=detailed,
                light=light,
                detailed_cost=detailed_cost,
                light_cost=light_cost,
            )
