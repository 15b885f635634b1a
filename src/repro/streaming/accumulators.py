"""Online per-kernel statistics and bounded retained samples.

:class:`KernelAccumulators` holds the O(kernels) half of the streaming
stratifier: exact integer count/sum/min/max per kernel plus a Welford
(Chan parallel-merge) mean/M2 pair for the incremental coefficient of
variation. Integer fields are exact over the whole stream regardless of
chunking (the clamped min/max answer every kernel's Tier-1 test at
finalize); the Welford CoV is exact up to float rounding and is only
consulted for kernels whose reservoir overflowed — kernels retained in
full have their CoV recomputed at finalize with the same two-pass
segment reductions the batch path uses, which is what keeps the batch
driver byte-identical.

:class:`ReservoirStore` holds the O(reservoir) half: per-kernel retained
invocations, folded in one grouped pass per kernel-sorted chunk. Unbounded
(``capacity=None``) it keeps everything — the batch driver's mode — as one
entry per chunk. Bounded it runs Algorithm R per kernel in one
(column, slot, cell) table: rows that arrive while a reservoir fills go in
with one scatter, each overflowing kernel draws one variate per
post-capacity arrival from its own generator (seeded from the workload
and kernel name, in arrival order), and one maximum over arrival indices
settles which write each cell keeps. The retained sample is therefore a
pure function of the per-kernel arrival sequence, invariant to chunk
sizes and chunk interleavings. Eviction-proof trackers (each kernel's
first invocation, and its first invocation and count per CTA size) are
updated by one grouped (slot, CTA size) pass. Finalize reads every
retained row in one gather. The per-kernel fold this replaced is kept in
:mod:`repro.core.reference` as the oracle of
``tests/streaming/test_fold_reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.observability import metrics
from repro.utils.errors import StreamingError
from repro.utils.seeding import rng_for
from repro.utils.validation import require

_INT64_MAX = np.iinfo(np.int64).max
_INT64_MIN = np.iinfo(np.int64).min


@dataclass
class ChunkStats:
    """Per-kernel segment reductions of one chunk, ready to merge."""

    counts: np.ndarray  # int64
    insn_sum: np.ndarray  # int64, clamped instruction counts
    raw_sum: np.ndarray  # int64, unclamped instruction counts
    bad: np.ndarray  # int64, non-positive counts clamped to 1
    min_insn: np.ndarray  # int64, clamped
    max_insn: np.ndarray  # int64, clamped
    mean: np.ndarray  # float64, clamped
    m2: np.ndarray  # float64, clamped sum of squared deviations


class KernelAccumulators:
    """Growable per-kernel accumulator table, merged vectorized per chunk.

    Kernels are keyed by name in first-seen order; ``kernel_id`` records
    the profile-table id the kernel first appeared under, which defines
    the canonical (batch-compatible) finalize order.
    """

    def __init__(self) -> None:
        self._index: dict[str, int] = {}
        self.names: list[str] = []
        self.kernel_id: list[int] = []
        n = 0
        self.count = np.zeros(n, dtype=np.int64)
        self.insn_sum = np.zeros(n, dtype=np.int64)
        self.raw_sum = np.zeros(n, dtype=np.int64)
        self.bad = np.zeros(n, dtype=np.int64)
        self.min_insn = np.zeros(n, dtype=np.int64)
        self.max_insn = np.zeros(n, dtype=np.int64)
        self.mean = np.zeros(n, dtype=np.float64)
        self.m2 = np.zeros(n, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.names)

    def _grow_to(self, n: int) -> None:
        old = len(self.count)
        if n <= old:
            return
        size = max(n, old * 2, 16)

        def grown(arr: np.ndarray, fill: object) -> np.ndarray:
            out = np.full(size, fill, dtype=arr.dtype)
            out[:old] = arr
            return out

        self.count = grown(self.count, 0)
        self.insn_sum = grown(self.insn_sum, 0)
        self.raw_sum = grown(self.raw_sum, 0)
        self.bad = grown(self.bad, 0)
        self.min_insn = grown(self.min_insn, _INT64_MAX)
        self.max_insn = grown(self.max_insn, _INT64_MIN)
        self.mean = grown(self.mean, 0.0)
        self.m2 = grown(self.m2, 0.0)

    def slots_for(
        self, kernel_names: tuple[str, ...], chunk_kernel_ids: np.ndarray
    ) -> np.ndarray:
        """Accumulator slots for the chunk's present kernels, registering
        kernels seen for the first time (recording their chunk id).

        Slots are keyed by name, and a chunk's reductions merge one per
        slot, so a chunk may not name one kernel under two ids.
        """
        slots = np.empty(len(chunk_kernel_ids), dtype=np.int64)
        for i, kid in enumerate(chunk_kernel_ids):
            name = kernel_names[int(kid)]
            slot = self._index.get(name)
            if slot is None:
                slot = len(self.names)
                self._index[name] = slot
                self.names.append(name)
                self.kernel_id.append(int(kid))
                self._grow_to(slot + 1)
            slots[i] = slot
        require(
            len(set(slots.tolist())) == len(slots),
            "a chunk names one kernel under two ids",
            StreamingError,
        )
        return slots

    def merge(self, slots: np.ndarray, stats: ChunkStats) -> None:
        """Fold one chunk's per-kernel reductions in (Chan merge for M2)."""
        n_a = self.count[slots].astype(np.float64)
        n_b = stats.counts.astype(np.float64)
        n = n_a + n_b
        delta = stats.mean - self.mean[slots]
        self.mean[slots] += delta * n_b / n
        self.m2[slots] += stats.m2 + delta * delta * n_a * n_b / n
        self.count[slots] += stats.counts
        self.insn_sum[slots] += stats.insn_sum
        self.raw_sum[slots] += stats.raw_sum
        self.bad[slots] += stats.bad
        self.min_insn[slots] = np.minimum(self.min_insn[slots], stats.min_insn)
        self.max_insn[slots] = np.maximum(self.max_insn[slots], stats.max_insn)

    def welford_covs(self, slots) -> np.ndarray:
        """Each slot's population CoV from the running mean/M2 (online).

        Matches :func:`repro.utils.stats.coefficient_of_variation`
        semantics on degenerate inputs: <= 1 observation or an all-zero
        kernel reduce to 0.
        """
        count = self.count[slots]
        mean = self.mean[slots]
        with np.errstate(divide="ignore", invalid="ignore"):
            std = np.sqrt(self.m2[slots] / count)
            covs = np.where(
                mean == 0.0,
                np.where(std == 0.0, 0.0, np.inf),
                std / np.abs(mean),
            )
        return np.where(count <= 1, 0.0, covs)

    def total_instructions(self) -> int:
        """Exact raw instruction total over everything observed."""
        return int(self.raw_sum[: len(self.names)].sum())

    def clamped_total(self) -> int:
        """Exact clamped instruction total (the stratum-weight denominator)."""
        return int(self.insn_sum[: len(self.names)].sum())


class ReservoirStore:
    """Per-kernel retained samples (everything, or an Algorithm-R sketch).

    Kernels are slots, and per-slot state is a column: ``seen`` counts
    the invocations observed and ``replaced`` the post-capacity arrivals
    Algorithm R kept. A chunk is folded in whole (:meth:`fold`).

    Bounded, the retained rows live in one (column, slot, cell) table of
    row, invocation id, raw instruction count, CTA size and arrival
    index. It is allocated on the first chunk and widened, up to
    ``capacity`` cells, as the fullest reservoir grows. Beside it sit the
    eviction-proof pick trackers: each slot's first invocation
    (``first``) and, per (slot, CTA size), the count and first
    invocation (``cta_entries``). Unbounded, the store keeps each
    chunk's sorted columns once, and everything is retained.
    """

    def __init__(self, workload: str, capacity: int | None = None):
        self.workload = workload
        self.capacity = capacity
        self.seen = np.zeros(0, dtype=np.int64)
        self.replaced = np.zeros(0, dtype=np.int64)
        self.first = np.zeros((2, 0), dtype=np.int64)  # (row, invocation id)
        # (key, count, row, invocation id) sorted by key = slot * 2**32 +
        # (size - INT32_MIN): each slot's sizes ascend within its range.
        self.cta_entries = np.zeros((4, 0), dtype=np.int64)
        self._table: np.ndarray | None = None
        self._log: list[tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]] = []
        self._rngs: dict[int, np.random.Generator] = {}

    @property
    def bounded(self) -> bool:
        return self.capacity is not None

    def fold(
        self,
        slots,
        counts,
        kernel_names,
        rows: np.ndarray,
        invocation_id: np.ndarray,
        insn_raw: np.ndarray,
        cta: np.ndarray,
    ) -> None:
        """Fold one kernel-sorted chunk in.

        Group ``g`` is the next ``counts[g]`` rows of the columns: the
        next arrivals, in order, of the kernel at ``slots[g]``, which
        ``kernel_names[slot]`` names (its generator's seed). A chunk
        holds each slot at most once.
        """
        slots = np.asarray(slots, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        if len(slots) == 0:
            return
        self._grow(int(slots.max()) + 1)
        seen = self.seen[slots]
        columns = (rows, invocation_id, insn_raw, cta)
        if not self.bounded:
            self.seen[slots] = seen + counts
            self._log.append((slots, counts, columns))
            return
        cap = self.capacity
        self._reserve(min(cap, int((seen + counts).max())))
        self.seen[slots] = seen + counts
        starts = np.cumsum(counts) - counts
        slot_of_row = np.repeat(slots, counts)
        arrival = np.arange(len(rows)) + np.repeat(seen - starts, counts)
        self._track(slots, starts, seen == 0, slot_of_row, rows, invocation_id, cta)

        # Each row's cell: its arrival index while the reservoir fills,
        # then Algorithm R's uniform draw on [0, arrival], kept when it
        # falls below capacity. Each overflowing kernel draws its
        # post-capacity arrivals in one call on its own generator, so
        # the draws are those of the kernel's arrival sequence alone,
        # whatever the chunking or the other kernels' traffic.
        cell = arrival.copy()
        late = arrival >= cap
        spill = np.clip(seen + counts - cap, 0, counts)
        over = np.flatnonzero(spill)
        if len(over):
            highs = np.split(arrival[late] + 1, np.cumsum(spill[over])[:-1])
            cell[late] = np.concatenate([
                self._generator(slot, kernel_names).integers(0, high)
                for slot, high in zip(slots[over].tolist(), highs)
            ])
            kept = slot_of_row[late & (cell < cap)]
            if len(kept):
                self.replaced += np.bincount(kept, minlength=len(self.replaced))
                metrics.inc("streaming.evictions", len(kept))

        # Later arrivals overwrite earlier ones landing on the same cell.
        # A cell's arrivals only grow, so its last write is its largest:
        # one unbuffered maximum settles every cell (fancy assignment
        # leaves the order among repeated cells unspecified), and only
        # the winning writes fill the other columns.
        writes = np.flatnonzero(cell < cap)
        table = self._table.reshape(len(_COLUMNS), -1)
        target = slot_of_row[writes] * self._table.shape[2] + cell[writes]
        np.maximum.at(table[_ARRIVAL], target, arrival[writes])
        won = table[_ARRIVAL, target] == arrival[writes]
        target, source = target[won], writes[won]
        for column, values in enumerate(columns):
            table[column, target] = values[source]

    def _grow(self, slots: int) -> None:
        """Room for ``slots`` slots in the per-slot columns."""
        old = len(self.seen)
        if slots <= old:
            return
        size = max(slots, old * 2, 16)
        self.seen = _padded(self.seen, size)
        self.replaced = _padded(self.replaced, size)
        self.first = _padded(self.first, size)

    def _reserve(self, width: int) -> None:
        """A table with every slot and at least ``width`` cells.

        A new table is zeros, whose pages the system maps on first
        write, and only the old table's filled cells are copied: the
        store's touched memory stays its retained rows.
        """
        old = self._table
        slots, have = (0, 0) if old is None else old.shape[1:]
        if slots == len(self.seen) and width <= have:
            return
        if width > have:
            width = min(self.capacity, max(width, have * 2))
        else:
            width = have
        table = np.zeros((len(_COLUMNS), len(self.seen), width), dtype=np.int64)
        if old is not None:
            filled = np.arange(have) < self.seen[:slots, None]
            np.copyto(table[:, :slots, :have], old, where=filled)
        self._table = table

    def _generator(self, slot: int, kernel_names) -> np.random.Generator:
        rng = self._rngs.get(slot)
        if rng is None:
            rng = self._rngs[slot] = rng_for(
                "streaming-reservoir", self.workload, kernel_names[slot]
            )
        return rng

    def _track(
        self, slots, starts, fresh, slot_of_row, rows, invocation_id, cta
    ) -> None:
        """Fold a chunk into the exact-pick trackers.

        A slot seen for the first time records its first row. Each
        (slot, CTA size) present adds its rows to its count, and records
        its first row when it is new.
        """
        self.first[:, slots[fresh]] = rows[starts[fresh]], invocation_id[starts[fresh]]
        size = np.asarray(cta, dtype=np.int64) - _INT32_MIN
        require(
            bool(size.min() >= 0 and size.max() < 2**32),
            "CTA sizes must fit int32",
            StreamingError,
        )
        keys, first, votes = np.unique(
            slot_of_row * 2**32 + size, return_index=True, return_counts=True
        )
        entries = self.cta_entries
        at = np.searchsorted(entries[0], keys)
        known = at < entries.shape[1]
        known[known] = entries[0, at[known]] == keys[known]
        entries[1, at[known]] += votes[known]
        new = ~known
        if np.any(new):
            first = first[new]
            self.cta_entries = np.insert(
                entries,
                at[new],
                (keys[new], votes[new], rows[first], invocation_id[first]),
                axis=1,
            )

    def exact_pick(self, slot: int, policy: str) -> tuple[int, int] | None:
        """The trackers' (row, invocation id) pick for ``policy``, if any."""
        if not self.bounded or slot >= len(self.seen) or not self.seen[slot]:
            return None
        if policy == "first":
            return int(self.first[0, slot]), int(self.first[1, slot])
        lo, hi = np.searchsorted(self.cta_entries[0], [slot << 32, (slot + 1) << 32])
        _, votes, rows, invocations = self.cta_entries[:, lo:hi]
        if policy == "dominant_cta":
            # Modal CTA size, ties toward the smaller size (batch order:
            # np.unique ascending + first argmax).
            pick = int(np.argmax(votes))
        elif policy == "max_cta":
            pick = len(votes) - 1
        else:
            return None
        return int(rows[pick]), int(invocations[pick])

    def _retained(self, seen):
        """Retained rows of slots that saw ``seen`` invocations."""
        return seen if self.capacity is None else np.minimum(seen, self.capacity)

    def gather(self, slots) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """Retained invocations of ``slots``, slot after slot.

        Returns each slot's retained count and the (rows, invocation
        ids, raw insn, cta) int64 columns, each slot's rows in arrival
        order: one gather from the chunk log or the table.
        """
        slots = np.asarray(slots, dtype=np.int64)
        counts = self._retained(self.seen[slots])
        if len(slots) == 0:
            return counts, tuple(np.zeros((_ARRIVAL, 0), dtype=np.int64))
        if not self.bounded:
            # Each (chunk, kernel) run of the log is one slot's next
            # rows. A stable sort of the runs by requested position keeps
            # each slot's runs in chunk order, which is their arrival
            # order; one repeat expands the runs into row indices.
            position = np.full(len(self.seen), -1)
            position[slots] = np.arange(len(slots))
            run_counts = np.concatenate([c for _, c, _ in self._log])
            run_starts = np.cumsum(run_counts) - run_counts
            run_position = position[np.concatenate([s for s, _, _ in self._log])]
            wanted = np.flatnonzero(run_position >= 0)
            runs = wanted[np.argsort(run_position[wanted], kind="stable")]
            sizes = run_counts[runs]
            shift = run_starts[runs] - (np.cumsum(sizes) - sizes)
            order = np.arange(int(sizes.sum())) + np.repeat(shift, sizes)
            return counts, tuple(
                np.concatenate([chunk[column] for *_, chunk in self._log])[order]
                .astype(np.int64, copy=False)
                for column in range(_ARRIVAL)
            )
        width = self._table.shape[2]
        starts = np.cumsum(counts) - counts
        cell = np.arange(int(counts.sum())) - np.repeat(starts, counts)
        full = np.flatnonzero(self.seen[slots] > self.capacity)
        if len(full):
            # Replacement leaves an overflowed reservoir's cells (all
            # ``width == capacity`` of them) out of arrival order; its
            # arrivals are distinct, so any sort orders them.
            order = np.argsort(self._table[_ARRIVAL, slots[full]], axis=1)
            cell[(starts[full, None] + np.arange(width)).ravel()] = order.ravel()
        flat = np.repeat(slots * width, counts) + cell
        return counts, tuple(self._table[:_ARRIVAL].reshape(_ARRIVAL, -1)[:, flat])

    def complete(self, slots):
        """True where every observed invocation of the slot is retained."""
        if self.capacity is None:
            return np.ones(np.shape(slots), dtype=bool)
        return self.seen[slots] <= self.capacity

    def retained_count(self, slot: int) -> int:
        return int(self._retained(self.seen[slot])) if slot < len(self.seen) else 0

    def resident_rows(self) -> int:
        """Rows currently retained across all kernels."""
        return int(self._retained(self.seen).sum())


#: The bounded table's columns, in order; the data columns precede the
#: arrival index.
_COLUMNS = ("row", "invocation_id", "insn_raw", "cta", "arrival")
_ARRIVAL = _COLUMNS.index("arrival")
_INT32_MIN = -(2**31)


def _padded(values: np.ndarray, size: int) -> np.ndarray:
    """``values`` with its last axis zero-padded to ``size``."""
    out = np.zeros(values.shape[:-1] + (size,), dtype=values.dtype)
    out[..., : values.shape[-1]] = values
    return out
