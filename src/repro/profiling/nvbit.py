"""NVBit-style light-weight instrumentation profiler.

Collects exactly what Sieve needs (Section III-A): kernel name, kernel
invocation ID and dynamic instruction count, plus the launch shape that
comes for free with every kernel launch. Single pass, modest slowdown.
"""

from __future__ import annotations

from repro.gpu.arch import AMPERE_RTX3080, GpuArchitecture
from repro.gpu.hardware import execution_record
from repro.profiling.base import flatten_chronological, native_seconds
from repro.profiling.cost import ProfilingCost, ProfilingCostModel
from repro.profiling.table import ProfileTable
from repro.workloads.generator import WorkloadRun


class NVBitProfiler:
    """Single-characteristic profiler (what Sieve uses)."""

    def __init__(self, arch: GpuArchitecture = AMPERE_RTX3080):
        self.arch = arch
        self._cost_model = ProfilingCostModel()

    def profile(self, run: WorkloadRun) -> tuple[ProfileTable, ProfilingCost]:
        """Profile ``run``; returns (instruction-count table, modeled cost)."""
        record = execution_record(self.arch, run)
        table = flatten_chronological(run, record, with_metrics=False)
        cost = self._cost_model.nvbit_cost(run.label, native_seconds(record, self.arch))
        return table, cost
