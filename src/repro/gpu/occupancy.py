"""CUDA-style occupancy calculation.

Occupancy — how many CTAs of a kernel fit concurrently on one SM — drives
the timing model's latency-hiding term. The calculation mirrors the CUDA
occupancy calculator: the limiter is the minimum over thread, warp,
register, shared-memory and hardware CTA-slot constraints.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.gpu.arch import WARP_SIZE, GpuArchitecture
from repro.gpu.kernel import KernelTraits, TraitColumns
from repro.utils.validation import require


@dataclass(frozen=True)
class OccupancyResult:
    """Occupancy of one launch configuration on one architecture."""

    ctas_per_sm: int
    active_warps_per_sm: int
    limiter: str  # which resource bounds occupancy

    @property
    def occupancy(self) -> float:
        """Active warps as a fraction of the (caller-supplied) warp limit.

        Stored lazily by :func:`occupancy_for` via ``active_warps_per_sm``;
        callers wanting the ratio should divide by the architecture's
        ``max_warps_per_sm``.
        """
        return float(self.active_warps_per_sm)


def occupancy_for(
    arch: GpuArchitecture, traits: KernelTraits, cta_size: int
) -> OccupancyResult:
    """Compute CTAs resident per SM for one CTA size.

    Raises :class:`ValueError` if a single CTA cannot fit on an SM at all
    (too many threads, registers or shared memory), which on real hardware
    would be a launch failure.
    """
    require(cta_size >= 1, "CTA size must be >= 1")
    warps_per_cta = -(-cta_size // WARP_SIZE)

    limits = {
        "threads": arch.max_threads_per_sm // (warps_per_cta * WARP_SIZE),
        "warps": arch.max_warps_per_sm // warps_per_cta,
        "ctas": arch.max_ctas_per_sm,
    }

    regs_per_cta = traits.regs_per_thread * warps_per_cta * WARP_SIZE
    limits["registers"] = arch.registers_per_sm // max(regs_per_cta, 1)

    if traits.smem_per_cta > 0:
        limits["shared_memory"] = arch.shared_memory_per_sm // traits.smem_per_cta
    else:
        limits["shared_memory"] = arch.max_ctas_per_sm

    limiter = min(limits, key=lambda k: limits[k])
    ctas_per_sm = limits[limiter]
    if ctas_per_sm < 1:
        raise ValueError(
            f"kernel {traits.name!r} with CTA size {cta_size} cannot launch on "
            f"{arch.name}: limited by {limiter}"
        )
    return OccupancyResult(
        ctas_per_sm=int(ctas_per_sm),
        active_warps_per_sm=int(ctas_per_sm * warps_per_cta),
        limiter=limiter,
    )


def occupancy_table(
    arch: GpuArchitecture,
    traits: KernelTraits | TraitColumns,
    cta_sizes: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized occupancy over an array of CTA sizes.

    ``traits`` is one kernel's :class:`KernelTraits`, or
    :class:`TraitColumns` aligned with ``cta_sizes``. Returns
    ``(ctas_per_sm, active_warps_per_sm)`` int64 arrays aligned with
    ``cta_sizes``: :func:`occupancy_for`'s floor divisions and minimum,
    as integer array arithmetic. If a CTA cannot launch, raises
    :func:`occupancy_for`'s :class:`ValueError` for the first such
    kernel (in ``kernels`` order) and its smallest such CTA size.
    """
    cta_sizes = np.asarray(cta_sizes, dtype=np.int64)
    require(bool(np.all(cta_sizes >= 1)), "CTA size must be >= 1")
    warps_per_cta = -(-cta_sizes // WARP_SIZE)
    regs_per_cta = traits.regs_per_thread * warps_per_cta * WARP_SIZE
    smem = np.asarray(traits.smem_per_cta)
    limits = (
        arch.max_threads_per_sm // (warps_per_cta * WARP_SIZE),
        arch.max_warps_per_sm // warps_per_cta,
        arch.max_ctas_per_sm,
        arch.registers_per_sm // np.maximum(regs_per_cta, 1),
        np.where(
            smem > 0,
            arch.shared_memory_per_sm // np.maximum(smem, 1),
            arch.max_ctas_per_sm,
        ),
    )
    ctas_per_sm = functools.reduce(np.minimum, limits)
    unlaunchable = ctas_per_sm < 1
    if unlaunchable.any():
        if isinstance(traits, TraitColumns):
            first = int(traits.kernel[unlaunchable].min())
            unlaunchable &= traits.kernel == first
            traits = traits.kernels[first]
        occupancy_for(arch, traits, int(cta_sizes[unlaunchable].min()))
    return ctas_per_sm, ctas_per_sm * warps_per_cta
