"""Incremental stratification: the operator behind ``stratify_table``.

:class:`StreamingStratifier` consumes profile chunks and, at finalize,
produces exactly the strata :func:`repro.core.stratify.stratify_table`
historically produced — the batch path now *is* one ``observe`` of the
whole table followed by ``finalize``, and the fig3/4/6 goldens pin that
byte-identical.

There is one path, however the profile arrives. Per chunk, ``observe``
does the same grouped-array work: one stable argsort of the chunk's
kernel ids, segment reductions into the per-kernel accumulators, and
one fold of the whole kernel-sorted chunk into the
:class:`~repro.streaming.accumulators.ReservoirStore` (reservoirs and
exact-pick trackers; no loop over the chunk's kernels). At finalize,
one gather reads every requested kernel's retained rows in arrival
order. Every kernel's Tier-1 test reads the accumulators' exact clamped
min/max. Kernels whose reservoir is complete (always true unbounded)
take their CoV and KDE split from the exact batch math — the same
:class:`~repro.utils.segments.Segments` reduceat reductions over the
same per-kernel-contiguous layout, which per-segment are independent of
every other segment, hence bit-identical to the one-shot pass. Kernels
whose reservoir overflowed take their CoV from the accumulators'
Welford pair and run the KDE split over the retained sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import repro.robustness.diagnostics as diagnostics
from repro.core.config import SieveConfig
from repro.core.kde import kde_strata
from repro.core.stratify import Stratum
from repro.observability import metrics
from repro.streaming.accumulators import (
    ChunkStats,
    KernelAccumulators,
    ReservoirStore,
)
from repro.utils.errors import StreamingError
from repro.utils.segments import Segments
from repro.utils.stats import coefficient_of_variation
from repro.utils.validation import require
from repro.workloads.spec import Tier


@dataclass(frozen=True)
class StratumMembers:
    """Side-channel per-stratum member columns for pick policies.

    ``insn_raw``/``cta``/``invocation_id`` align element-wise with the
    stratum's ``rows``; for an overflowed kernel they cover only the
    retained sample (``complete`` is False then).
    """

    insn_raw: np.ndarray
    cta: np.ndarray
    invocation_id: np.ndarray
    complete: bool
    slot: int
    population: int  # exact full-stream invocation count of the kernel


@dataclass(frozen=True)
class FinalizedStrata:
    """Strata plus the member columns selection policies need."""

    strata: list[Stratum]
    members: list[StratumMembers]


class StreamingStratifier:
    """Online Sieve stratification over profile chunks."""

    def __init__(
        self,
        workload: str,
        config: SieveConfig,
        reservoir_rows: int | None = None,
    ):
        self.workload = workload
        self.config = config
        self.accumulators = KernelAccumulators()
        self.reservoirs = ReservoirStore(workload, reservoir_rows)
        self.rows_seen = 0

    # ------------------------------------------------------------------ #
    # Observe

    def observe(self, chunk, rows: np.ndarray | None = None) -> list[int]:
        """Fold one profile chunk in; returns the touched accumulator slots."""
        n = len(chunk)
        if n == 0:
            return []
        if rows is None:
            global_rows = np.arange(self.rows_seen, self.rows_seen + n,
                                    dtype=np.int64)
        else:
            global_rows = np.asarray(rows, dtype=np.int64)
        segments = Segments.group_by(chunk.kernel_id)
        insn_sorted = segments.gather(chunk.insn_count)
        bad_sorted = insn_sorted <= 0
        clamped = np.where(bad_sorted, 1, insn_sorted)

        counts = segments.counts.astype(np.int64)
        means = segments.means(clamped)
        deviations = clamped.astype(np.float64) - np.repeat(means, counts)
        stats = ChunkStats(
            counts=counts,
            insn_sum=segments.sums(clamped),
            raw_sum=segments.sums(insn_sorted),
            bad=segments.sums(bad_sorted.astype(np.int64)),
            min_insn=segments.mins(clamped),
            max_insn=segments.maxs(clamped),
            mean=means,
            m2=segments.sums(deviations * deviations),
        )
        slots = self.accumulators.slots_for(chunk.kernel_names, segments.keys)
        self.accumulators.merge(slots, stats)
        self._append_chunk(
            segments, slots, global_rows[segments.order],
            segments.gather(chunk.invocation_id), insn_sorted,
            segments.gather(chunk.cta_size),
        )
        self.rows_seen += n
        return [int(s) for s in slots]

    def _append_chunk(
        self, segments, slots, rows_sorted, inv_sorted, insn_sorted, cta_sorted
    ) -> None:
        self.reservoirs.fold(
            slots, segments.counts, self.accumulators.names,
            rows_sorted, inv_sorted, insn_sorted, cta_sorted,
        )

    # ------------------------------------------------------------------ #
    # Finalize

    @property
    def resident_rows(self) -> int:
        return self.reservoirs.resident_rows()

    def finalize(self) -> FinalizedStrata:
        """All kernels' strata in batch order, with the legacy metrics."""
        return self._build(range(len(self.accumulators)), emit_metrics=True)

    def strata_for_slots(self, slots) -> FinalizedStrata:
        """A subset's current strata (no metric emission; event refresh)."""
        return self._build(slots, emit_metrics=False)

    def slot_of(self, kernel_name: str) -> int | None:
        return self.accumulators._index.get(kernel_name)

    def retained_count(self, slot: int) -> int:
        return self.reservoirs.retained_count(slot)

    def exact_pick(self, slot: int, policy: str) -> tuple[int, int] | None:
        """An eviction-proof (row, invocation_id) pick, when one exists.

        Maintained only in bounded mode: the first invocation overall
        ("first" policy and every Tier-1 stratum) and the first
        invocation per CTA size ("dominant_cta"/"max_cta") are tracked
        exactly as the stream flows, so single-stratum kernels keep
        batch-exact picks even after their reservoir overflowed.
        """
        return self.reservoirs.exact_pick(slot, policy)

    def _general_layout(self, slots) -> tuple:
        accumulators = self.accumulators
        ordered = sorted(
            (int(s) for s in slots),
            key=lambda s: (accumulators.kernel_id[s], s),
        )
        counts, (rows_cat, inv_cat, raw_cat, cta_cat) = self.reservoirs.gather(
            ordered
        )
        require(
            bool(np.all(counts > 0)),
            "stratifier finalized a kernel with no retained invocations",
            StreamingError,
        )
        starts = np.cumsum(counts) - counts
        # The gathered layout is per-kernel contiguous in kernel-id order
        # with chronological rows inside each kernel — exactly the batch
        # pass's stable argsort layout — so the reduceat reductions below
        # are bit-identical to stratify_table's historical ones (reduceat
        # segments reduce independently of one another).
        segments = Segments(
            order=np.arange(len(rows_cat), dtype=np.int64),
            starts=starts,
            counts=counts,
            keys=np.array(
                [accumulators.kernel_id[s] for s in ordered], dtype=np.int64
            ),
        )
        clamped_cat = np.where(raw_cat <= 0, 1, raw_cat)
        sums_retained = segments.sums(clamped_cat)
        # Tier 1 is an exact integer test, so the full-stream clamped
        # min/max answer it for every kernel (for a complete kernel they
        # are its retained rows' min/max). Overflowed kernels also take
        # their CoV from the accumulators instead of the retained sample.
        complete = self.reservoirs.complete(ordered)
        tier1 = accumulators.min_insn[ordered] == accumulators.max_insn[ordered]
        covs = np.where(
            complete, segments.covs(clamped_cat), accumulators.welford_covs(ordered)
        )
        return (
            ordered, starts, counts, rows_cat, inv_cat, raw_cat, clamped_cat,
            cta_cat, tier1, covs, sums_retained, complete,
        )

    def _build(self, slots, emit_metrics: bool) -> FinalizedStrata:
        accumulators = self.accumulators
        config = self.config
        (
            ordered, starts, counts, rows_cat, inv_cat, raw_cat, clamped_cat,
            cta_cat, tier1, covs, sums_retained, complete,
        ) = self._general_layout(slots)
        tier3 = ~tier1 & (covs > config.theta)

        # Scalarize the per-kernel columns once: the 2k+-iteration loop
        # below on numpy scalar indexing costs more than the reductions.
        starts_l = starts.tolist()
        ends_l = (starts + counts).tolist()
        tier1_l = tier1.tolist()
        tier3_l = tier3.tolist()
        covs_l = covs.tolist()
        sums_l = sums_retained.tolist()
        complete_l = complete.tolist()
        insn_sum_l = accumulators.insn_sum[ordered].tolist()
        bad_l = accumulators.bad[ordered].tolist()
        population_l = accumulators.count[ordered].tolist()

        if emit_metrics:
            total_bad = sum(bad_l)
            if total_bad:
                metrics.inc("sieve.stratify.clamped_insn", total_bad)
            for tier, count in (
                (Tier.TIER1, int(np.count_nonzero(tier1))),
                (Tier.TIER2, int(np.count_nonzero(~tier1 & ~tier3))),
                (Tier.TIER3, int(np.count_nonzero(tier3))),
            ):
                if count:
                    metrics.inc("sieve.stratify.kernels", count, tier=tier.name)

        strata: list[Stratum] = []
        members: list[StratumMembers] = []
        for g, slot in enumerate(ordered):
            kernel_id = accumulators.kernel_id[slot]
            kernel_name = accumulators.names[slot]
            population = population_l[g]
            lo, hi = starts_l[g], ends_l[g]
            rows = rows_cat[lo:hi]
            if emit_metrics and bad_l[g]:
                diagnostics.emit(
                    "stratify",
                    f"kernel {kernel_name!r}: clamped "
                    f"{bad_l[g]} non-positive insn counts "
                    "to 1",
                )
            if not tier3_l[g]:
                # Tier-1/2: one stratum covering the whole kernel. The
                # instruction total comes from the exact full-stream
                # accumulator (identical to the retained segment sum when
                # the reservoir is complete).
                strata.append(
                    Stratum(
                        kernel_id=kernel_id,
                        kernel_name=kernel_name,
                        tier=Tier.TIER1 if tier1_l[g] else Tier.TIER2,
                        index=0,
                        rows=rows,
                        insn_total=insn_sum_l[g],
                        insn_cov=covs_l[g],
                    )
                )
                members.append(
                    StratumMembers(
                        insn_raw=raw_cat[lo:hi],
                        cta=cta_cat[lo:hi],
                        invocation_id=inv_cat[lo:hi],
                        complete=complete_l[g],
                        slot=slot,
                        population=population,
                    )
                )
                continue
            insn = clamped_cat[lo:hi]
            groups = kde_strata(insn, config.theta)
            kernel_total = insn_sum_l[g]
            retained_total = sums_l[g]
            for index, group in enumerate(groups):
                order = np.sort(group)
                member_rows = rows[order]
                member_insn = insn[order]  # clamped view, keeps totals positive
                if complete_l[g]:
                    insn_total = int(member_insn.sum())
                else:
                    # Scale the retained stratum total up to the exact
                    # kernel total (integer floor; deterministic).
                    insn_total = int(
                        kernel_total * int(member_insn.sum()) // retained_total
                    )
                strata.append(
                    Stratum(
                        kernel_id=kernel_id,
                        kernel_name=kernel_name,
                        tier=Tier.TIER3,
                        index=index,
                        rows=member_rows,
                        insn_total=insn_total,
                        insn_cov=coefficient_of_variation(member_insn),
                    )
                )
                members.append(
                    StratumMembers(
                        insn_raw=raw_cat[lo:hi][order],
                        cta=cta_cat[lo:hi][order],
                        invocation_id=inv_cat[lo:hi][order],
                        complete=complete_l[g],
                        slot=slot,
                        population=population,
                    )
                )
        if emit_metrics:
            metrics.observe_many(
                "sieve.stratify.stratum_size", [s.size for s in strata]
            )
        return FinalizedStrata(strata=strata, members=members)
