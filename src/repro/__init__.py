"""Reproduction of *Sieve: Stratified GPU-Compute Workload Sampling*
(Naderan-Tahan, SeyyedAghaei, Eeckhout — ISPASS 2023).

Quickstart::

    from repro import (
        AMPERE_RTX3080, HardwareExecutor, NVBitProfiler, SievePipeline,
        generate, spec_for,
    )

    run = generate(spec_for("cactus/lmc"))
    profile, cost = NVBitProfiler().profile(run)
    sieve = SievePipeline()
    selection = sieve.select(profile)
    golden = HardwareExecutor(AMPERE_RTX3080).measure(run)
    prediction = sieve.predict(selection, golden)
    print(prediction.error_against(golden.total_cycles))

See :mod:`repro.evaluation.experiments` for drivers that regenerate every
table and figure of the paper, and the ``benchmarks/`` directory for the
runnable harness.
"""

# First, before anything loads numpy: one BLAS thread per process.
from repro import _blas  # noqa: F401
from repro.baselines import PksConfig, PksPipeline
from repro.core import SieveConfig, SievePipeline
from repro.gpu import (
    AMPERE_RTX3080,
    TURING_RTX2080TI,
    GpuArchitecture,
    HardwareExecutor,
)
from repro.profiling import NsightComputeProfiler, NVBitProfiler, ProfileTable
from repro.workloads import WorkloadSpec, all_specs, generate, spec_for

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "GpuArchitecture",
    "AMPERE_RTX3080",
    "TURING_RTX2080TI",
    "HardwareExecutor",
    "NVBitProfiler",
    "NsightComputeProfiler",
    "ProfileTable",
    "SieveConfig",
    "SievePipeline",
    "PksConfig",
    "PksPipeline",
    "WorkloadSpec",
    "spec_for",
    "all_specs",
    "generate",
]
