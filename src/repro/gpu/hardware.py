"""Hardware execution: the golden-reference "real silicon".

:class:`HardwareExecutor` plays the role of the paper's RTX 3080 / RTX
2080Ti test machines. Running a workload yields the per-invocation cycle
counts (with small, deterministic measurement noise) that both samplers'
accuracy is judged against — the paper's "golden reference, total cycle
count, collected on real hardware" (Section IV).

Like the paper, which profiles the same executions it measures, every
consumer reads one :class:`ExecutionRecord` per (run, architecture): the
noiseless cycles and DRAM bytes of every invocation, timed by a single
:func:`~repro.gpu.timing.invocation_timing` call over the run's
whole-run columns (:func:`execution_record`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.gpu.arch import GpuArchitecture
from repro.gpu.kernel import TraitColumns
from repro.gpu.timing import invocation_timing
from repro.utils.seeding import rng_for

if TYPE_CHECKING:
    from repro.workloads.generator import WorkloadRun


@dataclass(frozen=True)
class WorkloadMeasurement:
    """Measured execution of a whole workload on one architecture.

    Kernel-major whole-run columns: kernel ``k`` (``kernel_names[k]``)
    owns rows ``starts[k]:starts[k] + counts[k]`` of ``cycles`` and
    ``insn_count``, row ``starts[k] + i`` being its invocation ``i``.
    Every reader finds an invocation through :meth:`lookup`.
    """

    workload_name: str
    architecture: str
    clock_ghz: float
    kernel_names: tuple[str, ...]
    starts: np.ndarray  # int64, first row of each kernel
    cycles: np.ndarray  # int64, per invocation
    insn_count: np.ndarray  # int64, per invocation
    _positions: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        positions = {name: k for k, name in enumerate(self.kernel_names)}
        object.__setattr__(self, "_positions", positions)

    @cached_property
    def total_cycles(self) -> int:
        """Golden-reference application cycle count, summed once.

        A changed measurement is a new one (``replace``).
        """
        return int(self.cycles.sum())

    @property
    def total_instructions(self) -> int:
        return int(self.insn_count.sum())

    @property
    def wall_time_seconds(self) -> float:
        """End-to-end GPU time at the architecture's core clock."""
        return self.total_cycles / (self.clock_ghz * 1e9)

    @property
    def counts(self) -> np.ndarray:
        """Invocations measured per kernel."""
        return np.diff(self.starts, append=len(self.cycles))

    def kernel_cycles(self) -> np.ndarray:
        """Each kernel's summed cycles (int64), in ``kernel_names`` order."""
        summed = np.concatenate(([0], np.cumsum(self.cycles)))
        return summed[self.starts + self.counts] - summed[self.starts]

    def kernel_index(self, names: Iterable[str]) -> np.ndarray:
        """Each name's kernel in this measurement, -1 for one it lacks."""
        return np.fromiter((self._positions.get(name, -1) for name in names), dtype=np.int64)

    def lookup(
        self, kernel: np.ndarray, invocation_id: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Golden counters of invocations given as (kernel, invocation id).

        ``kernel`` holds :meth:`kernel_index` values. Returns the int64
        ``cycles`` and ``insn_count`` of each invocation and a ``found``
        mask: an invocation is missing when its kernel is absent (-1) or
        its id lies outside ``[0, count)``, and its counters read 0.
        Whether a found counter is usable is the reader's rule
        (:mod:`repro.evaluation.imputation`).
        """
        kernel = np.asarray(kernel, dtype=np.int64)
        ids = np.asarray(invocation_id, dtype=np.int64)
        # Kernel -1 reads an appended empty kernel, and a missing
        # invocation an appended row of zeros.
        end = len(self.cycles)
        found = (ids >= 0) & (ids < np.append(self.counts, 0)[kernel])
        rows = np.where(found, np.append(self.starts, end)[kernel] + ids, end)
        return np.append(self.cycles, 0)[rows], np.append(self.insn_count, 0)[rows], found


@dataclass(frozen=True)
class ExecutionRecord:
    """Noiseless execution of every invocation of a run on one architecture.

    Rows are kernel-major: kernel ``k`` of the run owns rows
    ``starts[k]:starts[k] + len(kernel)``, in its batch's order, and
    ``order`` lists the rows chronologically (the order a profiler emits
    them). The arrays are read-only because every consumer of the run
    shares them: the golden measurement adds noise to a copy of
    ``cycles``, and the profilers cost ``cycles`` and ``dram_bytes`` row
    by row.
    """

    starts: np.ndarray  # int64, first row of each kernel
    order: np.ndarray  # int64, rows in chronological order
    cycles: np.ndarray  # float64, modeled cycles before measurement noise
    dram_bytes: np.ndarray  # float64, DRAM traffic


def execution_record(arch: GpuArchitecture, run: WorkloadRun) -> ExecutionRecord:
    """The execution record of ``run`` on ``arch``, memoized on the run.

    Two threads racing on one run may both compute the record, never
    differently.
    """
    record = run._records.get(arch)
    if record is None:
        record = run._records.setdefault(arch, _time_invocations(arch, run))
    return record


def _time_invocations(arch: GpuArchitecture, run: WorkloadRun) -> ExecutionRecord:
    kernel_of_row = np.repeat(np.arange(len(run.kernels)), run.sizes)
    traits = TraitColumns([k.traits for k in run.kernels], kernel_of_row)
    timing = invocation_timing(arch, traits, run.batch)
    record = ExecutionRecord(
        starts=run.starts,
        order=np.argsort(run.batch.chrono_index, kind="stable"),
        cycles=timing.total_cycles,
        dram_bytes=timing.dram_bytes,
    )
    for f in fields(record):
        getattr(record, f.name).flags.writeable = False
    return record


class HardwareExecutor:
    """Execute workloads on a modeled GPU and report hardware counters.

    Measurement noise is multiplicative log-normal with the kernel's
    ``measurement_noise_cov``, seeded from (architecture, workload, kernel)
    so repeated "runs" of the same experiment are identical — mirroring the
    paper's single golden-reference collection per platform.
    """

    def __init__(self, arch: GpuArchitecture):
        self.arch = arch

    def measure(self, run: WorkloadRun) -> WorkloadMeasurement:
        """Measure every kernel invocation of ``run``."""
        names: set[str] = set()
        for kernel in run.kernels:
            name = kernel.traits.name
            if name in names:
                raise ValueError(f"duplicate kernel name {name!r} in workload")
            names.add(name)
        record = execution_record(self.arch, run)
        cycles = record.cycles.copy()
        for start, size, kernel in zip(run.starts.tolist(), run.sizes.tolist(), run.kernels):
            sigma = kernel.traits.measurement_noise_cov
            if sigma > 0:
                rng = rng_for("hardware", self.arch.name, run.name, kernel.traits.name)
                cycles[start : start + size] *= rng.lognormal(
                    mean=-0.5 * sigma**2, sigma=sigma, size=size
                )
        return WorkloadMeasurement(
            workload_name=run.name,
            architecture=self.arch.name,
            clock_ghz=self.arch.clock_ghz,
            kernel_names=tuple(kernel.traits.name for kernel in run.kernels),
            starts=run.starts.copy(),
            cycles=np.maximum(np.rint(cycles), 1.0).astype(np.int64),
            insn_count=run.batch.insn_count.astype(np.int64),
        )
