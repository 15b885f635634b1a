"""Cached per-workload evaluation context.

Building a context = generate the workload, measure it on the baseline GPU
(the golden reference), and profile it with both tools. Contexts are
memoized because several experiments share the same workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.gpu.arch import AMPERE_RTX3080, GpuArchitecture
from repro.gpu.hardware import HardwareExecutor, WorkloadMeasurement
from repro.observability import metrics, span
from repro.profiling.cost import ProfilingCost
from repro.profiling.nsight import NsightComputeProfiler
from repro.profiling.nvbit import NVBitProfiler
from repro.profiling.table import ProfileTable
from repro.robustness.faults import (
    FaultPlan,
    inject_measurement_faults,
    inject_table_faults,
)
from repro.utils.validation import require
from repro.workloads.catalog import spec_for
from repro.workloads.generator import WorkloadRun, generate
from repro.workloads.spec import WorkloadSpec


@dataclass(frozen=True)
class WorkloadContext:
    """Everything an experiment needs for one workload."""

    run: WorkloadRun
    golden: WorkloadMeasurement  # baseline-architecture reference
    sieve_table: ProfileTable  # NVBit profile (instruction count only)
    pks_table: ProfileTable  # Nsight profile (12 metrics)
    sieve_profiling: ProfilingCost
    pks_profiling: ProfilingCost
    #: The uncorrupted golden reference when fault injection is active.
    #: ``golden`` is what the samplers see; ``truth`` is what accuracy is
    #: judged against. Identical unless a fault plan touched the run.
    clean_golden: WorkloadMeasurement | None = None

    @property
    def truth(self) -> WorkloadMeasurement:
        """The measurement accuracy should be judged against."""
        return self.clean_golden if self.clean_golden is not None else self.golden

    @property
    def label(self) -> str:
        return self.run.label

    def measure_on(self, arch: GpuArchitecture) -> WorkloadMeasurement:
        """Golden reference on another architecture (e.g. Turing)."""
        return HardwareExecutor(arch).measure(self.run)


@lru_cache(maxsize=4)
def _cached_context(
    label: str,
    max_invocations: int | None,
    fault_plan: FaultPlan | None,
    spec=None,  # WorkloadSpec | None; inline spec for non-catalog labels
):
    arch = AMPERE_RTX3080  # the baseline; Figure 9 measures Turing with measure_on
    with span("context.build", workload=label, arch=arch.name):
        with span("context.generate", workload=label):
            run = generate(
                spec if spec is not None else spec_for(label),
                max_invocations=max_invocations,
            )
        with span("context.measure", workload=label):
            golden = HardwareExecutor(arch).measure(run)
        with span("context.profile.nvbit", workload=label):
            sieve_table, sieve_cost = NVBitProfiler(arch).profile(run)
        with span("context.profile.nsight", workload=label):
            pks_table, pks_cost = NsightComputeProfiler(arch).profile(run)
        clean_golden = None
        if fault_plan is not None:
            # Corrupt what the samplers *see* (profiles + golden reference);
            # the workload itself stays pristine, mirroring a dirty profiling
            # run over a healthy application. Accuracy is still judged against
            # the clean reference (``WorkloadContext.truth``).
            clean_golden = golden
            with span("context.inject_faults", workload=label):
                sieve_table, _ = inject_table_faults(sieve_table, fault_plan)
                pks_table, _ = inject_table_faults(pks_table, fault_plan)
                golden, _ = inject_measurement_faults(golden, fault_plan)
        metrics.inc("context.builds")
        metrics.observe("context.invocations", run.num_invocations)
    return WorkloadContext(
        run=run,
        golden=golden,
        sieve_table=sieve_table,
        pks_table=pks_table,
        sieve_profiling=sieve_cost,
        pks_profiling=pks_cost,
        clean_golden=clean_golden,
    )


def build_context(
    label: str,
    max_invocations: int | None = None,
    fault_plan: FaultPlan | None = None,
    spec: WorkloadSpec | None = None,
) -> WorkloadContext:
    """Build (or fetch the cached) evaluation context for ``label`` on the
    baseline architecture, Ampere (``measure_on`` measures another).

    ``fault_plan`` (see :mod:`repro.robustness.faults`) optionally injects
    deterministic corruption into the profile tables and the golden
    measurement — the knob behind the CLI's ``--inject-faults`` and the
    resilience benchmark. Plans are part of the cache key.

    ``spec`` supplies an inline :class:`~repro.workloads.spec.WorkloadSpec`
    for labels that are not in the catalog (fuzz candidates). Its label
    must match ``label``; it participates in memoization like any other
    argument because frozen dataclasses hash by value.
    """
    if spec is not None:
        require(
            spec.label == label,
            f"inline spec label {spec.label!r} does not match {label!r}",
        )
    return _cached_context(label, max_invocations, fault_plan, spec)
