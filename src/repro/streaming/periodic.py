"""Incremental periodic (systematic) sampling.

Membership in a periodic sample is a pure function of the global row
index — ``row % period == 0`` — so the stream needs O(picks) state and
no reservoir: each qualifying row is emitted the moment it arrives and
is never retracted.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.periodic import PeriodicSampler
from repro.core.types import Representative, SampleSelection
from repro.streaming.base import MethodStream, StreamContext
from repro.utils.errors import StreamingError
from repro.utils.validation import require


class PeriodicStream(MethodStream):
    """One in-progress incremental periodic selection."""

    def __init__(self, context: StreamContext, config: PeriodicSampler):
        super().__init__(context)
        self.period = config.period
        self._workload = context.workload
        self._saw_chunk = False
        self._raw_sum = 0
        # group index -> (kernel_name, kernel_id, row, invocation_id)
        self._picks: dict[int, tuple[str, int, int, int]] = {}

    def _observe(self, chunk, rows: np.ndarray | None) -> None:
        n = len(chunk)
        if n == 0:
            return
        if not self._saw_chunk:
            self._workload = chunk.workload
            self._saw_chunk = True
        if rows is None:
            global_rows = np.arange(self.rows_seen, self.rows_seen + n,
                                    dtype=np.int64)
        else:
            global_rows = rows
        self._raw_sum += int(chunk.insn_count.sum())
        hits = np.flatnonzero((global_rows >= 0) & (global_rows % self.period == 0))
        for i in hits:
            i = int(i)
            row = int(global_rows[i])
            group = row // self.period
            pick = (
                chunk.kernel_name_of_row(i),
                int(chunk.kernel_id[i]),
                row,
                int(chunk.invocation_id[i]),
            )
            self._picks[group] = pick
            if self.context.collect_events:
                self._record(
                    "emit",
                    group=f"period{group}",
                    kernel_name=pick[0],
                    row=row,
                    invocation_id=pick[3],
                    weight=0.0,  # 1/len(picks) only known at finalize
                )

    def _finalize(self) -> SampleSelection:
        require(
            self.rows_seen > 0, "stream observed no invocations", StreamingError
        )
        require(
            bool(self._picks),
            f"no observed row is on the grid of period {self.period} "
            f"(rows 0, {self.period}, ...); the periodic sample is empty",
            StreamingError,
        )
        picks = sorted(self._picks.items())
        weight = 1.0 / len(picks)
        representatives = tuple(
            Representative(
                kernel_name=name,
                kernel_id=kernel_id,
                invocation_id=invocation_id,
                row=row,
                weight=weight,
                group=f"period{group}",
                group_size=min(self.period, self.rows_seen),
            )
            for group, (name, kernel_id, row, invocation_id) in picks
        )
        return SampleSelection(
            workload=self._workload,
            method="periodic",
            representatives=representatives,
            total_instructions=self._raw_sum,
            num_invocations=self.rows_seen,
        )
