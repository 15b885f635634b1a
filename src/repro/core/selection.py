"""Representative kernel invocation selection (Section III-C).

Paper defaults: for Tier-1 strata the first-chronological invocation; for
Tier-2/Tier-3 strata the first-chronological invocation with the stratum's
*most dominant* CTA size (so the representative occupies the hardware the
way most of the stratum does). ``max_cta``, ``first``, ``random`` and
``centroid`` are alternative policies kept for the paper's stated ablation
("we also considered selecting the invocation with the maximum CTA size
... but we found this to be less accurate").

Policies are expressed over strata's *member columns* (instruction count
and CTA size per member, chronological order, every stratum's members
concatenated) and return each stratum's pick as a member position. One
grouped pass serves the batch path, which gathers member columns from the
profile table, and the streaming path, which holds them in the
stratifier's retained sample. The per-stratum originals survive as
:func:`repro.core.reference.select_representative_row_scalar`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.config import SELECTION_POLICIES
from repro.core.stratify import Stratum
from repro.profiling.table import ProfileTable
from repro.utils.errors import SelectionError
from repro.utils.seeding import rng_for
from repro.utils.segments import Segments, reduce_groups
from repro.utils.validation import require
from repro.workloads.spec import Tier


def representative_positions(
    policy: str,
    *,
    workload: str,
    labels: Sequence[str],
    tier1: np.ndarray,
    member_insn: np.ndarray,
    member_cta: np.ndarray,
    counts: np.ndarray,
) -> np.ndarray:
    """Each stratum's pick under ``policy``, as a position among its members.

    Stratum ``g`` owns the next ``counts[g]`` entries of ``member_insn``
    and ``member_cta`` (raw instruction counts and CTA sizes, in
    chronological order, so position 0 is its first invocation).
    ``tier1`` marks Tier-1 strata, which always take position 0;
    ``labels`` seed the ``random`` policy.
    """
    if policy not in SELECTION_POLICIES:
        raise ValueError(f"unknown selection policy {policy!r}")
    counts = np.asarray(counts, dtype=np.int64)
    require(bool(np.all(counts > 0)), "a stratum has no members", SelectionError)
    positions = np.zeros(len(counts), dtype=np.int64)
    chosen = np.flatnonzero(~np.asarray(tier1, dtype=bool))
    if policy == "first" or len(chosen) == 0:
        return positions
    if policy == "random":
        for g in chosen.tolist():
            rng = rng_for("sieve-select", workload, labels[g])
            positions[g] = rng.integers(int(counts[g]))
        return positions
    members = np.repeat(~np.asarray(tier1, dtype=bool), counts)
    counts = counts[chosen]
    starts = np.cumsum(counts) - counts
    groups = Segments(
        order=np.arange(int(counts.sum())),
        starts=starts,
        counts=counts,
        keys=np.arange(len(counts)),
    )
    cta = np.asarray(member_cta)[members]
    if policy == "dominant_cta":
        picks = _dominant_cta(groups, cta)
    elif policy == "max_cta":
        picks = groups.first_positions(cta == np.repeat(groups.maxs(cta), counts))
    else:  # centroid: nearest the stratum's mean instruction count
        insn = np.asarray(member_insn, dtype=np.float64)[members]
        spans = np.split(groups.order, starts[1:])
        (means,) = reduce_groups(insn, spans, "mean")
        distance = np.abs(insn - np.repeat(means, counts))
        picks = groups.first_positions(
            distance == np.repeat(groups.mins(distance), counts)
        )
    positions[chosen] = picks - starts
    return positions


def _dominant_cta(groups: Segments, cta: np.ndarray) -> np.ndarray:
    """Each group's first member of its modal CTA size.

    Ties go to the smaller size: sorting members by (group, size) puts a
    group's runs of one size in ascending size order, and the first run
    with the largest count wins. The sort is stable, so a run starts at
    its size's first-chronological member.
    """
    order = np.lexsort((cta, groups.segment_of_position))
    sorted_cta = cta[order]
    sorted_group = groups.segment_of_position[order]
    new_run = np.ones(len(order), dtype=bool)
    new_run[1:] = (sorted_cta[1:] != sorted_cta[:-1]) | (
        sorted_group[1:] != sorted_group[:-1]
    )
    run_starts = np.flatnonzero(new_run)
    run_counts = np.diff(np.append(run_starts, len(order)))
    runs = Segments.group_by(sorted_group[run_starts])
    modal = runs.first_positions(
        run_counts == np.repeat(runs.maxs(run_counts), runs.counts)
    )
    return order[run_starts[modal]]


def select_representative_rows(
    table: ProfileTable, strata: Sequence[Stratum], policy: str
) -> np.ndarray:
    """Every stratum's representative row under ``policy``, in one pass.

    Rows within a stratum are stored chronologically, so a stratum's
    first member is its first invocation.
    """
    counts = np.fromiter(
        (len(stratum.rows) for stratum in strata), dtype=np.int64, count=len(strata)
    )
    rows = np.concatenate([stratum.rows for stratum in strata])
    positions = representative_positions(
        policy,
        workload=table.workload,
        labels=[stratum.label for stratum in strata],
        tier1=np.array([stratum.tier is Tier.TIER1 for stratum in strata]),
        member_insn=table.insn_count[rows],
        member_cta=table.cta_size[rows],
        counts=counts,
    )
    return rows[np.cumsum(counts) - counts + positions]
