"""Incremental stratification: the operator behind ``stratify_table``.

:class:`StreamingStratifier` consumes profile chunks and, at finalize,
produces exactly the strata :func:`repro.core.stratify.stratify_table`
historically produced — the batch path now *is* one ``observe`` of the
whole table followed by ``finalize``, and the fig3/4/6 goldens pin that
byte-identical.

Per chunk, the work is the same grouped-array shape as the batch pass:
one stable argsort of the chunk's kernel ids, segment reductions into
the per-kernel accumulators, and an append of each kernel's segment to
its reservoir. At finalize, kernels whose reservoir is complete (always
true unbounded) replay the exact batch math — the same
:class:`~repro.utils.segments.Segments` reduceat reductions over the
same per-kernel-contiguous layout, which per-segment are independent of
every other segment, hence bit-identical to the one-shot pass. Kernels
whose reservoir overflowed fall back to the full-stream accumulators for
tier assignment (exact integer min/max, Welford CoV) and run the KDE
split over the retained sample.
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
        require(config.theta > 0, "theta must be positive")
        self.workload = workload
        self.config = config
        self.accumulators = KernelAccumulators()
        self.reservoirs = ReservoirStore(workload, reservoir_rows)
        self.rows_seen = 0
        # Exact pick trackers, maintained only in bounded mode: the first
        # invocation overall and per CTA size survive eviction, so the
        # paper's default policies stay exact even when the reservoir
        # cannot hold the kernel.
        self._first: dict[int, tuple[int, int]] = {}  # slot -> (row, inv)
        self._cta: dict[int, dict[int, list[int]]] = {}  # cta -> [n, row, inv]
        # Single-shot fast path (the batch driver): when exactly one
        # unbounded observe covered the whole stream, its sorted layout
        # and segment reductions are already what finalize would rebuild
        # from the reservoirs, bit for bit. Kept only until a second
        # chunk arrives.
        self._snapshot: tuple | None = None

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
        cta_sorted = segments.gather(chunk.cta_size)
        rows_sorted = global_rows[segments.order]
        inv_sorted = segments.gather(chunk.invocation_id)

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
            max_cta=segments.maxs(cta_sorted).astype(np.int64),
        )
        slots = self.accumulators.slots_for(chunk.kernel_names, segments.keys)
        self.accumulators.merge(slots, stats)

        bounded = self.reservoirs.bounded
        if self.rows_seen == 0 and not bounded:
            # Single-shot fast path: defer the per-kernel reservoir
            # appends — if this stays the only chunk (the batch driver),
            # finalize never needs the reservoirs at all.
            self._snapshot = (
                segments, slots, stats, clamped,
                rows_sorted, inv_sorted, insn_sorted, cta_sorted,
            )
            self.rows_seen += n
            return [int(s) for s in slots]
        self._flush_deferred()
        self._snapshot = None
        self._append_chunk(
            segments, slots, rows_sorted, inv_sorted, insn_sorted, cta_sorted
        )
        self.rows_seen += n
        return [int(s) for s in slots]

    def _append_chunk(
        self, segments, slots, rows_sorted, inv_sorted, insn_sorted, cta_sorted
    ) -> None:
        bounded = self.reservoirs.bounded
        starts = segments.starts.tolist()
        ends = segments.ends.tolist()
        for g, slot in enumerate(slots):
            slot = int(slot)
            lo, hi = starts[g], ends[g]
            if bounded:
                self._track_exact_picks(
                    slot,
                    rows_sorted[lo:hi],
                    inv_sorted[lo:hi],
                    cta_sorted[lo:hi],
                )
            self.reservoirs.append(
                slot,
                self.accumulators.names[slot],
                rows_sorted[lo:hi],
                inv_sorted[lo:hi],
                insn_sorted[lo:hi],
                cta_sorted[lo:hi],
            )

    def _flush_deferred(self) -> None:
        """Materialize the deferred first chunk's reservoir appends."""
        if self._snapshot is None:
            return
        segments, slots, _, _, rows, inv, insn, cta = self._snapshot
        self._append_chunk(segments, slots, rows, inv, insn, cta)
        self._snapshot = None

    def _track_exact_picks(
        self,
        slot: int,
        rows: np.ndarray,
        invocation_id: np.ndarray,
        cta: np.ndarray,
    ) -> None:
        if slot not in self._first:
            self._first[slot] = (int(rows[0]), int(invocation_id[0]))
        table = self._cta.setdefault(slot, {})
        sizes, first, counts = np.unique(
            cta, return_index=True, return_counts=True
        )
        for size, pos, count in zip(sizes, first, counts):
            entry = table.get(int(size))
            if entry is None:
                table[int(size)] = [
                    int(count), int(rows[pos]), int(invocation_id[pos])
                ]
            else:
                entry[0] += int(count)

    # ------------------------------------------------------------------ #
    # Finalize

    @property
    def resident_rows(self) -> int:
        deferred = 0 if self._snapshot is None else len(self._snapshot[4])
        return self.reservoirs.resident_rows() + deferred

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
        if policy == "first":
            return self._first.get(slot)
        table = self._cta.get(slot)
        if not table:
            return None
        if policy == "dominant_cta":
            # Modal CTA size, ties toward the smaller size (batch order:
            # np.unique ascending + first argmax).
            best = max(sorted(table), key=lambda size: table[size][0])
            return table[best][1], table[best][2]
        if policy == "max_cta":
            entry = table[max(table)]
            return entry[1], entry[2]
        return None

    def _single_shot_layout(self, slots) -> tuple | None:
        """The saved first-chunk layout, when it still covers the request.

        Valid only while exactly one unbounded observe has happened and
        the request asks for every slot in natural order — then the
        chunk's sorted arrays ARE the per-kernel-contiguous layout the
        general path would rebuild from the reservoirs, and its
        :class:`ChunkStats` reductions were computed by the very same
        two-pass segment math, so reusing both is bit-identical.
        """
        if self._snapshot is None:
            return None
        ordered = [int(s) for s in slots]
        if ordered != list(range(len(self.accumulators))):
            return None
        segments, _, stats, clamped, rows, inv, raw, cta = self._snapshot
        counts = segments.counts.astype(np.int64)
        tier1 = stats.min_insn == stats.max_insn
        variances = stats.m2 / counts
        stds = np.sqrt(variances)
        with np.errstate(divide="ignore", invalid="ignore"):
            covs = stds / np.abs(stats.mean)
        covs = np.where(counts <= 1, 0.0, covs)
        covs = np.where((stats.mean == 0.0) & (stds == 0.0), 0.0, covs)
        complete = np.ones(len(ordered), dtype=bool)
        return (
            ordered, segments.starts, counts, rows, inv, raw, clamped, cta,
            tier1, covs, stats.insn_sum, complete,
        )

    def _general_layout(self, slots) -> tuple:
        self._flush_deferred()
        accumulators = self.accumulators
        ordered = sorted(
            (int(s) for s in slots),
            key=lambda s: (accumulators.kernel_id[s], s),
        )
        retained = [self.reservoirs.retained(s) for s in ordered]
        counts = np.array([len(r[0]) for r in retained], dtype=np.int64)
        require(
            bool(np.all(counts > 0)) or len(ordered) == 0,
            "stratifier finalized a kernel with no retained invocations",
            StreamingError,
        )
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))[: len(ordered)] \
            if len(ordered) else np.empty(0, dtype=np.int64)
        total = int(counts.sum())
        rows_cat = np.empty(total, dtype=np.int64)
        inv_cat = np.empty(total, dtype=np.int64)
        raw_cat = np.empty(total, dtype=np.int64)
        cta_cat = np.empty(total, dtype=np.int64)
        for g, (rows, inv, raw, cta) in enumerate(retained):
            lo = int(starts[g])
            hi = lo + int(counts[g])
            rows_cat[lo:hi] = rows
            inv_cat[lo:hi] = inv
            raw_cat[lo:hi] = raw
            cta_cat[lo:hi] = cta
        # The concatenated layout is per-kernel contiguous in kernel-id
        # order with chronological rows inside each kernel — exactly the
        # batch pass's stable argsort layout — so the reduceat reductions
        # below are bit-identical to stratify_table's historical ones
        # (reduceat segments reduce independently of one another).
        segments = Segments(
            order=np.arange(total, dtype=np.int64),
            starts=starts.astype(np.int64),
            counts=counts,
            keys=np.array(
                [accumulators.kernel_id[s] for s in ordered], dtype=np.int64
            ),
        )
        bad_cat = raw_cat <= 0
        clamped_cat = np.where(bad_cat, 1, raw_cat)
        tier1_retained = segments.mins(clamped_cat) == segments.maxs(clamped_cat)
        covs_retained = segments.covs(clamped_cat)
        sums_retained = segments.sums(clamped_cat)
        complete = np.array(
            [self.reservoirs.complete(s) for s in ordered], dtype=bool
        )

        tier1 = np.empty(len(ordered), dtype=bool)
        covs = np.empty(len(ordered), dtype=np.float64)
        for g, slot in enumerate(ordered):
            if complete[g]:
                tier1[g] = tier1_retained[g]
                covs[g] = covs_retained[g]
            else:
                tier1[g] = bool(
                    accumulators.min_insn[slot] == accumulators.max_insn[slot]
                )
                covs[g] = accumulators.welford_cov(slot)
        return (
            ordered, starts, counts, rows_cat, inv_cat, raw_cat, clamped_cat,
            cta_cat, tier1, covs, sums_retained, complete,
        )

    def _build(self, slots, emit_metrics: bool) -> FinalizedStrata:
        accumulators = self.accumulators
        config = self.config
        layout = self._single_shot_layout(slots)
        if layout is None:
            layout = self._general_layout(slots)
        (
            ordered, starts, counts, rows_cat, inv_cat, raw_cat, clamped_cat,
            cta_cat, tier1, covs, sums_retained, complete,
        ) = layout
        tier3 = ~tier1 & (covs > config.theta)

        # Scalarize the per-kernel columns once: the 2k+-iteration loop
        # below on numpy scalar indexing costs more than the reductions.
        starts_l = np.asarray(starts).tolist()
        ends_l = (np.asarray(starts) + counts).tolist()
        tier1_l = np.asarray(tier1).tolist()
        tier3_l = tier3.tolist()
        covs_l = np.asarray(covs, dtype=np.float64).tolist()
        sums_l = np.asarray(sums_retained).tolist()
        complete_l = np.asarray(complete).tolist()
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
            groups = kde_strata(
                insn,
                config.theta,
                grid_points=config.kde_grid_points,
                bandwidth_scale=config.kde_bandwidth_scale,
            )
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
