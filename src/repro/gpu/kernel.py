"""Kernel-level data structures shared by the hardware model and samplers.

Two halves live here:

* :class:`KernelTraits` — the *hidden* microarchitectural behaviour of a
  kernel (ILP, cache locality, per-architecture efficiency, ...). These are
  deliberately **not** part of the 12 microarchitecture-independent
  characteristics PKS profiles (Table II); they are what makes two kernels
  with identical profiled characteristics run at different speeds, which is
  the central failure mode of PKS the paper identifies.
* :class:`InvocationBatch` — the vectorized per-invocation descriptors of a
  kernel, or of a whole workload's kernels in kernel-major rows:
  instruction count, launch shape, and the Table II metric columns.

:class:`TraitColumns` spreads the traits of many kernels over the rows of
one batch that holds all their invocations, so the hardware model can
time a whole workload in one call.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from repro.gpu.arch import WARP_SIZE
from repro.utils.validation import require


@dataclass(frozen=True)
class KernelTraits:
    """Hidden per-kernel behaviour consumed only by the hardware model.

    ``fp_ratio``/``sfu_ratio`` partition the kernel's non-memory
    instructions into FP32 / SFU / INT32 classes. ``arch_efficiency`` maps
    an architecture *family* to a cycle multiplier below/above 1.0,
    capturing workload-dependent architecture affinity (e.g. the paper's
    lmc/lmr, which run *faster* on Turing than on Ampere, Figure 9).
    """

    name: str
    regs_per_thread: int = 32
    smem_per_cta: int = 0
    ilp: float = 2.0
    l1_hit_rate: float = 0.5
    l2_hit_rate: float = 0.4
    fp_ratio: float = 0.6
    sfu_ratio: float = 0.02
    personality: float = 1.0
    measurement_noise_cov: float = 0.01
    arch_efficiency: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        require(bool(self.name), "kernel name must be non-empty")
        require(self.regs_per_thread >= 1, "regs_per_thread must be >= 1")
        require(self.smem_per_cta >= 0, "smem_per_cta must be >= 0")
        require(self.ilp > 0, "ilp must be positive")
        require(0.0 <= self.l1_hit_rate <= 1.0, "l1_hit_rate must be in [0, 1]")
        require(0.0 <= self.l2_hit_rate <= 1.0, "l2_hit_rate must be in [0, 1]")
        require(
            0.0 <= self.fp_ratio + self.sfu_ratio <= 1.0,
            "fp_ratio + sfu_ratio must lie in [0, 1]",
        )
        require(self.personality > 0, "personality must be positive")
        require(self.measurement_noise_cov >= 0, "noise CoV must be >= 0")

    @property
    def int_ratio(self) -> float:
        """Fraction of compute instructions executed on the INT32 pipe."""
        return 1.0 - self.fp_ratio - self.sfu_ratio

    def efficiency_on(self, family: str) -> float:
        """Cycle multiplier for an architecture family (default 1.0)."""
        return self.arch_efficiency.get(family, 1.0)


#: The :class:`KernelTraits` attributes :class:`TraitColumns` exposes as
#: per-row columns: the per-kernel numbers the timing model reads.
TRAIT_COLUMNS: tuple[str, ...] = (
    "regs_per_thread",
    "smem_per_cta",
    "ilp",
    "l1_hit_rate",
    "l2_hit_rate",
    "fp_ratio",
    "sfu_ratio",
    "int_ratio",
    "personality",
)


class TraitColumns:
    """The traits of many kernels, one row per invocation.

    Row ``i`` reads the traits of ``kernels[kernel[i]]``. Each attribute
    in :data:`TRAIT_COLUMNS` and :meth:`efficiency_on` has the name and
    meaning it has on :class:`KernelTraits`, but is a column aligned
    with the rows, so the timing model accepts either and numpy
    broadcasting does the rest. Columns are gathered on access from one
    value per kernel; slicing (``columns[rows]``) slices only ``kernel``.
    """

    def __init__(self, kernels: Sequence[KernelTraits], kernel: np.ndarray):
        self.kernels = tuple(kernels)
        self.kernel = kernel
        self._per_kernel = {
            name: np.array([getattr(t, name) for t in self.kernels])
            for name in TRAIT_COLUMNS
        }

    def __getitem__(self, rows: slice) -> "TraitColumns":
        sliced = copy.copy(self)
        sliced.kernel = self.kernel[rows]
        return sliced

    def __getattr__(self, name: str) -> np.ndarray:
        per_kernel = self.__dict__.get("_per_kernel", {})
        if name not in per_kernel:
            raise AttributeError(name)
        return per_kernel[name][self.kernel]

    def efficiency_on(self, family: str) -> np.ndarray:
        """Each row's cycle multiplier for an architecture family."""
        return np.array([t.efficiency_on(family) for t in self.kernels])[self.kernel]


#: Column order of the 12 PKS execution characteristics (Table II).
PKS_METRIC_NAMES: tuple[str, ...] = (
    "coalesced_global_loads",
    "coalesced_global_stores",
    "coalesced_local_loads",
    "thread_global_loads",
    "thread_global_stores",
    "thread_local_loads",
    "thread_shared_loads",
    "thread_shared_stores",
    "thread_global_atomics",
    "instruction_count",
    "divergence_efficiency",
    "num_thread_blocks",
)

#: The :class:`InvocationBatch` column behind each of :data:`PKS_METRIC_NAMES`.
PKS_METRIC_COLUMNS: tuple[str, ...] = (
    "coalesced_global_loads",
    "coalesced_global_stores",
    "coalesced_local_loads",
    "thread_global_loads",
    "thread_global_stores",
    "thread_local_loads",
    "thread_shared_loads",
    "thread_shared_stores",
    "thread_global_atomics",
    "insn_count",
    "divergence_efficiency",
    "num_ctas",
)


@dataclass
class InvocationBatch:
    """Vectorized descriptors for all invocations of one kernel.

    Arrays are aligned: element ``i`` of every array describes the kernel's
    ``i``-th chronological invocation. ``chrono_index`` gives each
    invocation's global (whole-workload) chronological position, which is
    what "first-chronological" selection policies order by, so it strictly
    increases within a kernel. A workload's batch holds its kernels' rows
    one kernel after another; each kernel's batch is a view of its rows
    (:meth:`rows`). Batches compare by value: equal dtypes and elements in
    every column.
    """

    insn_count: np.ndarray  # int64, thread-level dynamic instructions
    cta_size: np.ndarray  # int32, threads per CTA
    num_ctas: np.ndarray  # int64, CTAs in the grid
    coalesced_global_loads: np.ndarray  # int64, transactions
    coalesced_global_stores: np.ndarray  # int64, transactions
    coalesced_local_loads: np.ndarray  # int64, transactions
    thread_global_loads: np.ndarray  # int64
    thread_global_stores: np.ndarray  # int64
    thread_local_loads: np.ndarray  # int64
    thread_shared_loads: np.ndarray  # int64
    thread_shared_stores: np.ndarray  # int64
    thread_global_atomics: np.ndarray  # int64
    divergence_efficiency: np.ndarray  # float64 in (0, 1]
    chrono_index: np.ndarray  # int64, global chronological order

    def __post_init__(self) -> None:
        n = len(self.insn_count)
        for column in self._columns():
            require(len(column) == n, "all invocation columns must align")
        require(bool(np.all(self.insn_count > 0)), "instruction counts must be > 0")
        require(bool(np.all(self.cta_size >= 1)), "CTA size must be >= 1 thread")
        require(bool(np.all(self.num_ctas >= 1)), "grids must have >= 1 CTA")
        require(
            bool(
                np.all(
                    (self.divergence_efficiency > 0)
                    & (self.divergence_efficiency <= 1.0)
                )
            ),
            "divergence efficiency must be in (0, 1]",
        )

    def _columns(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, name) for name in BATCH_COLUMNS)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InvocationBatch):
            return NotImplemented
        return all(
            a.dtype == b.dtype and np.array_equal(a, b)
            for a, b in zip(self._columns(), other._columns())
        )

    def __len__(self) -> int:
        return len(self.insn_count)

    def rows(self, rows: slice) -> "InvocationBatch":
        """The invocations in ``rows``, as a batch of views.

        Not validated again: any rows of a valid batch are a valid batch.
        """
        view = object.__new__(InvocationBatch)
        view.__dict__.update((name, getattr(self, name)[rows]) for name in BATCH_COLUMNS)
        return view

    @property
    def warps_per_cta(self) -> np.ndarray:
        """Warps per CTA at warp granularity."""
        return (self.cta_size + WARP_SIZE - 1) // WARP_SIZE

    @property
    def total_threads(self) -> np.ndarray:
        return self.cta_size.astype(np.int64) * self.num_ctas

    def pks_metric_matrix(self) -> np.ndarray:
        """Return the (n_invocations, 12) matrix of Table II characteristics.

        Column order follows :data:`PKS_METRIC_NAMES`.
        """
        return np.column_stack(
            [np.asarray(getattr(self, c), dtype=np.float64) for c in PKS_METRIC_COLUMNS]
        )


#: The column names of :class:`InvocationBatch`, in field order.
BATCH_COLUMNS: tuple[str, ...] = tuple(f.name for f in fields(InvocationBatch))
