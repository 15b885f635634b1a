"""Stratification of a profile table (Section III-B).

Each kernel's invocations are classified into tiers; Tier-1 and Tier-2
kernels form a single stratum each, Tier-3 kernels are split with KDE so
the instruction-count CoV within every stratum falls below θ. Every
stratum, by construction, contains invocations of exactly one kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import SieveConfig
from repro.observability import metrics, span
from repro.profiling.table import ProfileTable
from repro.workloads.spec import Tier


@dataclass(frozen=True)
class Stratum:
    """A group of same-kernel invocations with similar instruction count."""

    kernel_id: int
    kernel_name: str
    tier: Tier
    index: int  # ordinal among the kernel's strata
    rows: np.ndarray  # profile-table row indices, chronological order
    insn_total: int
    insn_cov: float

    @property
    def label(self) -> str:
        return f"{self.kernel_name}/s{self.index}"

    @property
    def size(self) -> int:
        return len(self.rows)


def stratify_table(table: ProfileTable, config: SieveConfig) -> list[Stratum]:
    """Sieve's stratification of a whole profile table.

    Returns strata grouped per kernel (kernels in id order, strata ordered
    by ascending instruction count within a kernel).

    The batch path is literally the streaming operator driven once, on
    the one path every stream takes: one ``observe`` of the whole table
    (grouped segment reductions into the per-kernel accumulators, the
    sorted columns folded into an unbounded reservoir store) followed by
    ``finalize``. Tier 1 comes from the accumulators' exact clamped
    min/max; with every row retained, the CoV and the KDE split replay
    the exact batch reduceat math, so the output is bit-identical to the
    historical one-shot pass (pinned by the fig3/4/6 goldens).
    Non-positive instruction counts are clamped to 1 with a per-kernel
    diagnostic, as before; :func:`repro.core.reference.stratify_table_scalar`
    remains the scalar oracle.
    """
    from repro.streaming.stratify import StreamingStratifier

    with span("sieve.stratify", workload=table.workload, kernels=table.num_kernels):
        stratifier = StreamingStratifier(table.workload, config)
        stratifier.observe(table)
        strata = stratifier.finalize().strata
    metrics.inc("sieve.stratify.strata", len(strata))
    return strata
