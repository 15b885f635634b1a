"""Memory-hierarchy traffic model.

Converts the per-invocation memory characteristics (coalesced transaction
counts, Table II) plus the kernel's hidden cache locality into DRAM byte
traffic and a latency-exposure estimate. The model is a classic two-level
inclusive filter: L1 absorbs ``l1_hit_rate`` of the sector traffic, L2
absorbs ``l2_hit_rate`` of the L1 misses, with the effective L2 hit rate
degraded when the kernel's working set exceeds the L2 capacity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.arch import SECTOR_BYTES, GpuArchitecture
from repro.gpu.kernel import InvocationBatch, KernelTraits, TraitColumns


@dataclass(frozen=True)
class MemoryTraffic:
    """Per-invocation memory traffic (arrays aligned with the batch)."""

    l1_sector_accesses: np.ndarray  # transactions reaching L1
    l2_sector_accesses: np.ndarray  # L1 misses reaching L2
    dram_bytes: np.ndarray  # bytes reaching DRAM
    atomic_ops: np.ndarray  # global atomics (serialize at L2)


def capacity_adjusted_l2_hit(
    arch: GpuArchitecture,
    traits: KernelTraits | TraitColumns,
    footprint_bytes: np.ndarray,
) -> np.ndarray:
    """Degrade the kernel's nominal L2 hit rate by working-set pressure.

    A footprint comfortably inside L2 keeps the nominal hit rate; beyond
    capacity the hit rate decays harmonically, approaching zero for
    streaming footprints far larger than the cache.
    """
    footprint = np.maximum(np.asarray(footprint_bytes, dtype=np.float64), 1.0)
    pressure = footprint / float(arch.l2_size_bytes)
    scale = 1.0 / np.maximum(pressure, 1.0)
    return traits.l2_hit_rate * scale


def memory_traffic(
    arch: GpuArchitecture,
    traits: KernelTraits | TraitColumns,
    batch: InvocationBatch,
) -> MemoryTraffic:
    """Compute the memory traffic of every invocation in ``batch``.

    ``traits`` is the kernel's :class:`KernelTraits` or per-row
    :class:`TraitColumns`, as in :func:`~repro.gpu.timing.invocation_timing`.
    """
    global_sectors = (
        batch.coalesced_global_loads + batch.coalesced_global_stores
    ).astype(np.float64)
    local_sectors = batch.coalesced_local_loads.astype(np.float64)
    l1_accesses = global_sectors + local_sectors

    l1_misses = l1_accesses * (1.0 - traits.l1_hit_rate)

    # Unique-footprint estimate: distinct sectors touched, assuming the
    # nominal L1 hit rate reflects intra-invocation reuse.
    footprint_bytes = l1_misses * SECTOR_BYTES
    l2_hit = capacity_adjusted_l2_hit(arch, traits, footprint_bytes)
    dram_sectors = l1_misses * (1.0 - l2_hit)

    return MemoryTraffic(
        l1_sector_accesses=l1_accesses,
        l2_sector_accesses=l1_misses,
        dram_bytes=dram_sectors * SECTOR_BYTES,
        atomic_ops=batch.thread_global_atomics.astype(np.float64),
    )
