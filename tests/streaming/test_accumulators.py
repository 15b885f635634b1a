"""Accumulator and reservoir unit tests: merge math and split invariance."""

from __future__ import annotations

import numpy as np
import pytest

from repro.streaming.accumulators import ChunkStats, KernelAccumulators, ReservoirStore
from repro.streaming.base import StreamContext
from repro.utils.errors import StreamingError
from repro.utils.segments import Segments
from repro.utils.stats import coefficient_of_variation


def _stats_for(values: np.ndarray) -> ChunkStats:
    """One-kernel ChunkStats over ``values`` (already positive)."""
    values = np.asarray(values, dtype=np.int64)
    mean = float(values.mean())
    deviations = values.astype(np.float64) - mean
    return ChunkStats(
        counts=np.array([len(values)], dtype=np.int64),
        insn_sum=np.array([values.sum()], dtype=np.int64),
        raw_sum=np.array([values.sum()], dtype=np.int64),
        bad=np.zeros(1, dtype=np.int64),
        min_insn=np.array([values.min()], dtype=np.int64),
        max_insn=np.array([values.max()], dtype=np.int64),
        mean=np.array([mean]),
        m2=np.array([float((deviations * deviations).sum())]),
    )


def _register(acc: KernelAccumulators, name: str = "k") -> int:
    [slot] = acc.slots_for((name,), np.array([0], dtype=np.int64))
    return int(slot)


@pytest.mark.parametrize("splits", [1, 2, 3, 7, 50])
def test_welford_merge_matches_direct_statistics(splits):
    rng = np.random.default_rng(7)
    values = rng.integers(1, 10_000, 500).astype(np.int64)
    acc = KernelAccumulators()
    slot = _register(acc)
    for piece in np.array_split(values, splits):
        if len(piece) == 0:
            continue
        acc.merge(np.array([slot]), _stats_for(piece))
    assert int(acc.count[slot]) == len(values)
    assert int(acc.insn_sum[slot]) == int(values.sum())
    assert int(acc.min_insn[slot]) == int(values.min())
    assert int(acc.max_insn[slot]) == int(values.max())
    np.testing.assert_allclose(acc.mean[slot], values.mean(), rtol=1e-12)
    direct_cov = coefficient_of_variation(values)
    np.testing.assert_allclose(acc.welford_covs([slot])[0], direct_cov, rtol=1e-9)


def test_welford_merge_from_zero_state_and_single_value():
    acc = KernelAccumulators()
    slot = _register(acc)
    acc.merge(np.array([slot]), _stats_for(np.array([42])))
    assert acc.welford_covs([slot])[0] == 0.0
    assert int(acc.count[slot]) == 1


def test_accumulators_grow_past_initial_capacity():
    acc = KernelAccumulators()
    names = tuple(f"k{i:04d}" for i in range(300))
    slots = acc.slots_for(names, np.arange(300, dtype=np.int64))
    assert len(acc) == 300
    assert [acc.names[int(s)] for s in slots] == list(names)
    # Re-registering returns the same slots (stable identity).
    again = acc.slots_for(names, np.arange(300, dtype=np.int64))
    assert np.array_equal(np.asarray(slots), np.asarray(again))


def fold_one(store: ReservoirStore, slot: int, name: str, rows, inv, insn, cta):
    """Fold one kernel's chunk segment in (arrival order)."""
    store.fold([slot], [len(rows)], {slot: name}, rows, inv, insn, cta)


def _feed(store: ReservoirStore, slot: int, rows, inv, insn, cta, splits: int):
    bounds = np.linspace(0, len(rows), splits + 1).astype(int)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi > lo:
            fold_one(store, slot, "k", rows[lo:hi], inv[lo:hi], insn[lo:hi], cta[lo:hi])


@pytest.mark.parametrize("splits", [1, 2, 5, 17])
def test_bounded_reservoir_is_chunk_split_invariant(splits):
    """Algorithm R draws one rng value per post-capacity arrival in arrival
    order, so the retained sample is a function of the arrival sequence
    alone — never of how the sequence was cut into chunks. This pins the
    vectorized ``rng.integers(0, arrivals + 1)`` element order."""
    n, capacity = 1000, 64
    rows = np.arange(n, dtype=np.int64)
    inv = np.arange(n, dtype=np.int64)
    insn = np.arange(1, n + 1, dtype=np.int64)
    cta = np.full(n, 128, dtype=np.int64)

    whole = ReservoirStore("wl", capacity)
    fold_one(whole, 0, "k", rows, inv, insn, cta)
    split = ReservoirStore("wl", capacity)
    _feed(split, 0, rows, inv, insn, cta, splits)

    for a, b in zip(whole.gather([0])[1], split.gather([0])[1]):
        np.testing.assert_array_equal(a, b)
    assert whole.retained_count(0) == capacity
    assert not whole.complete(0)


def test_bounded_reservoir_retains_chronological_order():
    n, capacity = 500, 32
    rng_rows = np.arange(n, dtype=np.int64)
    store = ReservoirStore("wl", capacity)
    fold_one(store, 0, "k", rng_rows, rng_rows, rng_rows + 1, rng_rows % 7)
    rows, inv, insn, cta = store.gather([0])[1]
    assert len(rows) == capacity
    assert np.all(np.diff(rows) > 0), "retained sample must stay chronological"
    np.testing.assert_array_equal(rows, inv)
    np.testing.assert_array_equal(insn, rows + 1)
    np.testing.assert_array_equal(cta, rows % 7)


@pytest.mark.parametrize("capacity", [0, -5])
def test_a_reservoir_below_one_row_is_a_streaming_error(capacity):
    with pytest.raises(StreamingError, match="reservoir_rows must be at least 1"):
        StreamContext(workload="wl", reservoir_rows=capacity)


def test_unbounded_reservoir_keeps_everything_and_is_complete():
    store = ReservoirStore("wl", None)
    for lo in range(0, 100, 10):
        rows = np.arange(lo, lo + 10, dtype=np.int64)
        fold_one(store, 0, "k", rows, rows, rows + 1, rows % 3)
    rows, inv, insn, cta = store.gather([0])[1]
    np.testing.assert_array_equal(rows, np.arange(100))
    assert store.complete(0)
    assert not store.bounded
    assert store.resident_rows() == 100


def test_bounded_reservoir_under_capacity_is_complete_and_exact():
    store = ReservoirStore("wl", 64)
    rows = np.arange(40, dtype=np.int64)
    fold_one(store, 0, "k", rows, rows, rows + 1, rows % 3)
    assert store.complete(0)
    got_rows, _, _, _ = store.gather([0])[1]
    np.testing.assert_array_equal(got_rows, rows)


def test_reservoirs_are_independent_across_kernels():
    """Each kernel draws from its own named rng stream: feeding kernel B
    must not perturb kernel A's retained sample."""
    n, capacity = 400, 16
    rows = np.arange(n, dtype=np.int64)
    solo = ReservoirStore("wl", capacity)
    fold_one(solo, 0, "a", rows, rows, rows + 1, rows % 5)

    mixed = ReservoirStore("wl", capacity)
    fold_one(mixed, 0, "a", rows[:200], rows[:200], rows[:200] + 1, rows[:200] % 5)
    fold_one(mixed, 1, "b", rows, rows, rows + 2, rows % 3)
    fold_one(mixed, 0, "a", rows[200:], rows[200:], rows[200:] + 1, rows[200:] % 5)

    for a, b in zip(solo.gather([0])[1], mixed.gather([0])[1]):
        np.testing.assert_array_equal(a, b)
