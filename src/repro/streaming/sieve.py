"""Sieve's incremental selection: picks that emit/retract as rows arrive.

:class:`SieveStream` wraps the :class:`StreamingStratifier` and turns
finalized (or mid-stream) strata into weighted representative picks. On
an unbounded reservoir the finalized selection is byte-identical to
:meth:`repro.core.pipeline.SievePipeline.select` on the same rows; on a
bounded reservoir, Tier-1/2 kernels keep exact picks and exact
instruction-share weights (the accumulators and the first-invocation /
per-CTA trackers survive eviction), while Tier-3 kernels are split over
the retained sample — the documented approximation.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import SieveConfig
from repro.core.pipeline import SieveSelection, build_selection
from repro.core.selection import representative_positions
from repro.core.stratify import Stratum
from repro.observability import span
from repro.streaming.base import MethodStream, StreamContext
from repro.streaming.stratify import StratumMembers, StreamingStratifier
from repro.utils.errors import StreamingError
from repro.utils.validation import require
from repro.workloads.spec import Tier


class SieveStream(MethodStream):
    """One in-progress incremental Sieve selection."""

    def __init__(self, context: StreamContext, config: SieveConfig):
        super().__init__(context)
        self.config = config
        self.stratifier = StreamingStratifier(
            context.workload, config, context.reservoir_rows
        )
        self._workload = context.workload
        self._saw_chunk = False
        # group label -> (kernel_name, row, invocation_id, weight estimate)
        self._picks: dict[str, tuple[str, int, int, float]] = {}

    @property
    def resident_rows(self) -> int:
        return self.stratifier.resident_rows

    # ------------------------------------------------------------------ #
    # Observe

    def _observe(self, chunk, rows: np.ndarray | None) -> None:
        if not self._saw_chunk and len(chunk):
            # Selection labels and the random-policy seed derive from the
            # profile's own workload name, exactly as the batch path does.
            self._workload = chunk.workload
            self._saw_chunk = True
        touched = self.stratifier.observe(chunk, rows)
        if self.context.collect_events and touched:
            self._refresh(sorted(set(touched)))

    def _refresh(self, slots: list[int]) -> None:
        finalized = self.stratifier.strata_for_slots(slots)
        grand_total = float(self.stratifier.accumulators.clamped_total())
        new_picks: dict[str, tuple[str, int, int, float]] = {}
        picks = self._pick_rows(finalized.strata, finalized.members)
        for stratum, (row, invocation_id) in zip(finalized.strata, picks):
            weight = (
                stratum.insn_total / grand_total if grand_total > 0 else 0.0
            )
            new_picks[stratum.label] = (
                stratum.kernel_name, row, invocation_id, weight
            )
        kernels = {self.stratifier.accumulators.names[s] for s in slots}
        self._apply_picks(kernels, new_picks)

    def _apply_picks(
        self,
        kernels: set[str],
        new_picks: dict[str, tuple[str, int, int, float]],
    ) -> None:
        """Diff new picks against the published ones; record the events."""
        vanished = sorted(
            group
            for group, (kernel, *_rest) in self._picks.items()
            if kernel in kernels and group not in new_picks
        )
        for group in vanished:
            kernel, row, invocation_id, weight = self._picks.pop(group)
            self._record(
                "retract",
                group=group,
                kernel_name=kernel,
                row=row,
                invocation_id=invocation_id,
                weight=weight,
            )
        for group in sorted(new_picks):
            kernel, row, invocation_id, weight = new_picks[group]
            old = self._picks.get(group)
            if old is not None and (old[1], old[2]) != (row, invocation_id):
                self._record(
                    "retract",
                    group=group,
                    kernel_name=old[0],
                    row=old[1],
                    invocation_id=old[2],
                    weight=old[3],
                )
                old = None
            if old is None:
                self._record(
                    "emit",
                    group=group,
                    kernel_name=kernel,
                    row=row,
                    invocation_id=invocation_id,
                    weight=weight,
                )
            self._picks[group] = new_picks[group]

    # ------------------------------------------------------------------ #
    # Picks

    def _pick_rows(
        self, strata: list[Stratum], members: list[StratumMembers]
    ) -> list[tuple[int, int]]:
        """(row, invocation_id) per stratum under the config policy."""
        policy = self.config.selection_policy
        picks: list[tuple[int, int] | None] = []
        for stratum, member in zip(strata, members):
            exact = None
            if not member.complete and stratum.tier is not Tier.TIER3:
                # Eviction-proof trackers: exact "first invocation" /
                # per-CTA-size picks even though early rows left the
                # reservoir. Tier-1 strata always select first-chronological.
                key = (
                    "first"
                    if stratum.tier is Tier.TIER1 or policy == "first"
                    else policy
                )
                exact = self.stratifier.exact_pick(member.slot, key)
            picks.append(exact)
        pending = [g for g, pick in enumerate(picks) if pick is None]
        if pending:
            positions = representative_positions(
                policy,
                workload=self._workload,
                labels=[strata[g].label for g in pending],
                tier1=np.array([strata[g].tier is Tier.TIER1 for g in pending]),
                member_insn=np.concatenate([members[g].insn_raw for g in pending]),
                member_cta=np.concatenate([members[g].cta for g in pending]),
                counts=[len(members[g].cta) for g in pending],
            )
            for g, position in zip(pending, positions.tolist()):
                picks[g] = (
                    int(strata[g].rows[position]),
                    int(members[g].invocation_id[position]),
                )
        return picks

    def _group_size(self, stratum: Stratum, member: StratumMembers) -> int:
        if member.complete:
            return stratum.size
        if stratum.tier is not Tier.TIER3:
            return member.population  # exact full-stream count
        retained = self.stratifier.retained_count(member.slot)
        return max(1, member.population * stratum.size // max(1, retained))

    # ------------------------------------------------------------------ #
    # Finalize

    def _finalize(self) -> SieveSelection:
        require(
            self.rows_seen > 0, "stream observed no invocations", StreamingError
        )
        finalized = self.stratifier.finalize()
        strata, members = finalized.strata, finalized.members
        with span("sieve.selection", workload=self._workload, strata=len(strata)):
            selection = build_selection(
                self._workload,
                strata,
                self._pick_rows(strata, members),
                [self._group_size(s, m) for s, m in zip(strata, members)],
                total_instructions=self.stratifier.accumulators.total_instructions(),
                num_invocations=self.rows_seen,
                policy=self.config.selection_policy,
            )
        if self.context.collect_events:
            self._apply_picks(
                set(self.stratifier.accumulators.names),
                {
                    rep.group: (rep.kernel_name, rep.row, rep.invocation_id, rep.weight)
                    for rep in selection.representatives
                },
            )
        return selection
