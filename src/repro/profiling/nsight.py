"""Nsight Compute-style detailed profiler.

Collects the full 12-characteristic Table II matrix (what PKS needs) by
replaying each kernel invocation once per metric group, with device-memory
save/restore between passes and bookkeeping that grows super-linearly in
the number of invocations profiled — the behaviours the paper identifies as
making PKS profiling take "multiple days, and in some cases even several
weeks" (Section II-B).
"""

from __future__ import annotations

from repro.gpu.arch import AMPERE_RTX3080, GpuArchitecture
from repro.gpu.hardware import execution_record
from repro.profiling.base import flatten_chronological, footprints, native_seconds
from repro.profiling.cost import ProfilingCost, ProfilingCostModel
from repro.profiling.metrics import PKS_METRICS
from repro.profiling.table import ProfileTable
from repro.workloads.generator import WorkloadRun


class NsightComputeProfiler:
    """Twelve-characteristic profiler (what PKS uses)."""

    def __init__(self, arch: GpuArchitecture = AMPERE_RTX3080):
        self.arch = arch
        self._cost_model = ProfilingCostModel()

    def profile(self, run: WorkloadRun) -> tuple[ProfileTable, ProfilingCost]:
        """Profile ``run``; returns (full metric table, modeled cost)."""
        record = execution_record(self.arch, run)
        table = flatten_chronological(run, record, with_metrics=True)
        cost = self._cost_model.nsight_cost(
            run.label,
            native_seconds(record, self.arch),
            footprints(record, self.arch),
            num_metrics=len(PKS_METRICS),
            complexity=run.spec.profiling_complexity,
        )
        return table, cost
