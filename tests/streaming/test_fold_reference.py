"""Oracle tests: the grouped chunk fold equals the per-kernel fold.

``StreamingStratifier`` folds a whole kernel-sorted chunk into the
:class:`~repro.streaming.accumulators.ReservoirStore` at once: one table
per column for the bounded reservoirs, one call per overflowing kernel
for its Algorithm-R draws, one maximum for the last writer per cell and
one (slot, CTA size) pass for the exact-pick trackers. The per-kernel
fold it replaced survives in :mod:`repro.core.reference`
(:class:`~repro.core.reference.ReferenceStreamingStratifier`). Both see
the same generated chunks; after every chunk the retained rows, the
per-slot counts, the trackers and the eviction counter must match, and
the finalized selections (and event ledgers) must match by pickle. A
deterministic case does the same for catalog tables fed whole, as the
batch driver feeds them, and in chunks.
"""

from __future__ import annotations

import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import SELECTION_POLICIES, SieveConfig
from repro.core.reference import ReferenceStreamingStratifier
from repro.core.stratify import stratify_table
from repro.evaluation.context import build_context
from repro.observability import metrics
from repro.profiling.table import ProfileTable
from repro.streaming.base import StreamContext
from repro.streaming.sieve import SieveStream
from repro.utils.errors import StreamingError
from repro.workloads.spec import Tier

INT32_MIN, INT32_MAX = -(2**31), 2**31 - 1
CTA_SIZES = (INT32_MIN, -1, 0, 1, 32, 128, 1024, INT32_MAX)


@st.composite
def feeds(draw):
    """Interleaved kernels cut into chunks, with optional explicit rows."""
    kernels = draw(st.integers(1, 5))
    n = draw(st.integers(1, 160))
    kernel_id = np.array(draw(st.lists(st.integers(0, kernels - 1), min_size=n, max_size=n)))
    insn = np.array(draw(st.lists(
        st.one_of(st.integers(-3, 0), st.integers(1, 40), st.integers(10_000, 12_000)),
        min_size=n, max_size=n,
    )), dtype=np.int64)
    cta = np.array(draw(st.lists(st.sampled_from(CTA_SIZES), min_size=n, max_size=n)),
                   dtype=np.int32)
    invocation_id = np.zeros(n, dtype=np.int64)
    for k in range(kernels):
        mine = kernel_id == k
        invocation_id[mine] = np.arange(int(mine.sum()))
    sizes = draw(st.lists(st.integers(1, 70), min_size=1, max_size=8))
    bounds, start = [], 0
    while start < n:
        stop = min(n, start + sizes[len(bounds) % len(sizes)])
        bounds.append((start, stop))
        start = stop
    rows = None
    if draw(st.booleans()):
        # Provenance rows out of stream order: any distinct values.
        rows = np.array(draw(st.permutations(range(n)))) * 3 + 7
    table = ProfileTable(
        workload="fold-oracle",
        kernel_names=tuple(f"fold_k{k}" for k in range(kernels)),
        kernel_id=kernel_id.astype(np.int32),
        invocation_id=invocation_id,
        insn_count=insn,
        cta_size=cta,
        num_ctas=np.ones(n, dtype=np.int64),
    )
    return table, bounds, rows


def trackers(store) -> tuple[dict, dict]:
    """The grouped store's trackers in the oracle's dict form."""
    if not store.bounded:
        return {}, {}
    first = {
        slot: (int(store.first[0, slot]), int(store.first[1, slot]))
        for slot in np.flatnonzero(store.seen).tolist()
    }
    cta: dict[int, dict[int, list[int]]] = {}
    for key, count, row, invocation in store.cta_entries.T.tolist():
        slot, size = divmod(key, 2**32)
        cta.setdefault(slot, {})[size + INT32_MIN] = [count, row, invocation]
    return first, cta


def assert_state_matches(got, want) -> None:
    store, oracle = got.reservoirs, want.reservoirs
    assert got.resident_rows == want.resident_rows
    for slot in range(len(got.accumulators)):
        reservoir = oracle._reservoirs[slot]
        assert (
            int(store.seen[slot]), store.retained_count(slot), int(store.replaced[slot])
        ) == (reservoir.seen, reservoir.filled, reservoir.replaced)
        assert bool(store.complete(slot)) == oracle.complete(slot)
        for column, expected in zip(store.gather([slot])[1], oracle.retained(slot)):
            assert column.dtype == np.int64
            np.testing.assert_array_equal(column, expected)
    assert trackers(store) == (want._first, want._cta)
    for slot in range(len(got.accumulators)):
        for policy in ("first", "dominant_cta", "max_cta", "centroid"):
            assert got.exact_pick(slot, policy) == want.exact_pick(slot, policy)


def digest(value) -> str:
    return hashlib.sha256(pickle.dumps(value)).hexdigest()


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    feed=feeds(),
    capacity=st.one_of(st.none(), st.integers(1, 40)),
    policy=st.sampled_from(SELECTION_POLICIES),
    collect_events=st.booleans(),
)
def test_grouped_fold_matches_per_kernel_fold(feed, capacity, policy, collect_events):
    table, bounds, rows = feed
    config = SieveConfig(selection_policy=policy)
    context = StreamContext(
        workload=table.workload, reservoir_rows=capacity, collect_events=collect_events
    )
    stream, oracle = SieveStream(context, config), SieveStream(context, config)
    oracle.stratifier = ReferenceStreamingStratifier(table.workload, config, capacity)
    registry = metrics.get_registry()
    evictions = {"stream": 0.0, "oracle": 0.0}
    for start, stop in bounds:
        chunk = table.slice_rows(start, stop)
        chunk_rows = None if rows is None else rows[start:stop]
        for name, side in (("stream", stream), ("oracle", oracle)):
            before = registry.counter("streaming.evictions")
            side.observe(chunk, rows=chunk_rows)
            evictions[name] += registry.counter("streaming.evictions") - before
        assert evictions["stream"] == evictions["oracle"]
        assert_state_matches(stream.stratifier, oracle.stratifier)
    assert digest(stream.finalize()) == digest(oracle.finalize())
    assert digest(stream.events) == digest(oracle.events)


@pytest.mark.parametrize("label", ["cactus/gru", "cactus/lmc", "mlperf/bert"])
def test_whole_tables_match_the_per_kernel_fold(label):
    """Catalog tables at cap 20,000, whose Tier-3 kernels take KDE
    splits, fed as one whole-table chunk (the batch driver's feed) and
    in 4,096-row chunks, unbounded and with a 4,096-row reservoir."""
    table = build_context(label, 20_000).sieve_table
    config = SieveConfig()
    for chunk_rows in (len(table), 4096):
        for capacity in (None, 4096):
            context = StreamContext(workload=table.workload, reservoir_rows=capacity)
            stream, oracle = SieveStream(context, config), SieveStream(context, config)
            oracle.stratifier = ReferenceStreamingStratifier(table.workload, config, capacity)
            for start in range(0, len(table), chunk_rows):
                chunk = table.slice_rows(start, start + chunk_rows)
                stream.observe(chunk)
                oracle.observe(chunk)
                assert_state_matches(stream.stratifier, oracle.stratifier)
            selection = stream.finalize()
            assert any(stratum.tier is Tier.TIER3 for stratum in selection.strata)
            assert digest(selection) == digest(oracle.finalize())


def test_a_chunk_naming_one_kernel_twice_fails_typed():
    """Slots are keyed by name and each chunk merges one group per slot:
    two ids under one name would count one of them, so the batch path
    and the streams refuse them."""
    n = 40
    table = ProfileTable(
        workload="fold-oracle",
        kernel_names=("fold_k0", "fold_k0"),
        kernel_id=(np.arange(n) % 2).astype(np.int32),
        invocation_id=np.arange(n, dtype=np.int64) // 2,
        insn_count=np.full(n, 100, dtype=np.int64),
        cta_size=np.full(n, 128, dtype=np.int32),
        num_ctas=np.ones(n, dtype=np.int64),
    )
    for capacity in (None, 8):
        stream = SieveStream(
            StreamContext(workload=table.workload, reservoir_rows=capacity), SieveConfig()
        )
        with pytest.raises(StreamingError, match="one kernel under two ids"):
            for start in (0, 20):
                stream.observe(table.slice_rows(start, start + 20))
    with pytest.raises(StreamingError, match="one kernel under two ids"):
        stratify_table(table, SieveConfig())


def test_cta_sizes_outside_int32_fail_typed():
    """The trackers pack (slot, CTA size) into one int64 key, so a
    bounded stream refuses a size that every parser would have refused."""
    table = ProfileTable(
        workload="fold-oracle",
        kernel_names=("fold_k0",),
        kernel_id=np.zeros(3, dtype=np.int32),
        invocation_id=np.arange(3, dtype=np.int64),
        insn_count=np.full(3, 100, dtype=np.int64),
        cta_size=np.array([128, INT32_MAX + 1, 128], dtype=np.int64),
        num_ctas=np.ones(3, dtype=np.int64),
    )
    stream = SieveStream(StreamContext(workload=table.workload, reservoir_rows=2), SieveConfig())
    with pytest.raises(StreamingError, match="CTA sizes must fit int32"):
        stream.observe(table)
