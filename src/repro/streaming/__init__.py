"""Incremental (streaming) sampling operators.

The batch pipeline assumes the full profile table is materialized before
``select()`` runs. This package factors the pipeline into operators that
consume a profile *chunk by chunk* — online per-kernel accumulators for
tier assignment, bounded reservoirs feeding the KDE split at finalize,
and selections that emit/retract representative picks as invocations
arrive — so unbounded feeds (a live profiler, the service) can be
sampled with O(kernels + reservoir) memory. The batch path in
:mod:`repro.core.stratify` is a thin driver over these operators and is
pinned byte-identical to its historical output.
"""

from repro.streaming.accumulators import KernelAccumulators, ReservoirStore
from repro.streaming.base import (
    AssembledContext,
    BufferingStream,
    MethodStream,
    StreamContext,
    StreamEvent,
    iter_table_chunks,
    note_resident_rows,
)
from repro.streaming.periodic import PeriodicStream
from repro.streaming.sieve import SieveStream
from repro.streaming.stratify import StreamingStratifier

__all__ = [
    "AssembledContext",
    "BufferingStream",
    "KernelAccumulators",
    "MethodStream",
    "PeriodicStream",
    "ReservoirStore",
    "SieveStream",
    "StreamContext",
    "StreamEvent",
    "StreamingStratifier",
    "iter_table_chunks",
    "note_resident_rows",
]
