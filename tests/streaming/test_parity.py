"""Property tests: streaming finalize == batch select, for every method.

The streaming surface's contract is that with an unbounded reservoir the
finalized :class:`~repro.core.types.SampleSelection` is *pickle-byte-
identical* to the batch ``select`` — across catalog workloads, chunk
sizes (including degenerate 1-row chunks) and chunk *orderings* (chunks
may interleave kernels arbitrarily as long as each kernel's invocations
arrive chronologically). This holds for the true incremental operators
(sieve, periodic) and for the buffering fallback (pks, random) alike.
"""

from __future__ import annotations

import pickle

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import SieveConfig
from repro.evaluation.context import build_context
from repro.methods import get_method
from repro.streaming.base import StreamContext

POOL = ("cactus/gru", "cactus/lmc", "mlperf/bert")
METHODS = ("sieve", "periodic", "pks", "random")

_contexts: dict = {}


def context_for(workload: str, cap: int):
    key = (workload, cap)
    if key not in _contexts:
        _contexts[key] = build_context(workload, max_invocations=cap)
    return _contexts[key]


def stream_selection(method_name, context, config, chunks, rows=None):
    method = get_method(method_name)
    stream = method.begin_stream(
        StreamContext(workload=method.profile_table(context).workload, batch=context),
        config,
    )
    for i, chunk in enumerate(chunks):
        stream.observe(chunk, rows=None if rows is None else rows[i])
    return stream.finalize()


def cut_chunks(table, sizes):
    """Sequential chunks whose sizes cycle through ``sizes``."""
    chunks, start, i = [], 0, 0
    while start < len(table):
        size = sizes[i % len(sizes)]
        chunks.append(table.slice_rows(start, min(start + size, len(table))))
        start += size
        i += 1
    return chunks


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    method_name=st.sampled_from(METHODS),
    workload=st.sampled_from(POOL),
    cap=st.sampled_from((600, 1100)),
    sizes=st.lists(st.integers(1, 700), min_size=1, max_size=4),
    theta=st.sampled_from((0.3, 0.4)),
)
def test_streaming_equals_batch_across_chunk_sizes(
    method_name, workload, cap, sizes, theta
):
    context = context_for(workload, cap)
    method = get_method(method_name)
    config = SieveConfig(theta=theta) if method_name == "sieve" else None
    table = method.profile_table(context)
    batch = method.select(context, method.resolve_config(config))
    streamed = stream_selection(
        method_name, context, config, cut_chunks(table, sizes)
    )
    assert pickle.dumps(streamed) == pickle.dumps(batch)


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    method_name=st.sampled_from(("sieve", "periodic")),
    workload=st.sampled_from(POOL),
    seed=st.integers(0, 2**16),
)
def test_streaming_is_chunk_order_invariant(method_name, workload, seed):
    """Chunks carrying explicit global rows may arrive in any order that
    preserves each kernel's internal chronology; the incremental
    operators must still finalize to the batch selection."""
    context = context_for(workload, 900)
    method = get_method(method_name)
    config = method.resolve_config(None)
    table = method.profile_table(context)
    batch = method.select(context, config)

    # Partition rows by kernel-id bucket, then feed buckets in a seeded
    # order. Rows inside a bucket stay ascending, so every kernel's
    # invocations arrive chronologically.
    rng = np.random.default_rng(seed)
    buckets = [
        np.flatnonzero(np.asarray(table.kernel_id) % 3 == r) for r in range(3)
    ]
    order = rng.permutation(3)
    chunks, rows = [], []
    for b in order:
        picked = buckets[b]
        if len(picked) == 0:
            continue
        chunks.append(
            type(table)(
                workload=table.workload,
                kernel_names=table.kernel_names,
                kernel_id=np.asarray(table.kernel_id)[picked],
                invocation_id=np.asarray(table.invocation_id)[picked],
                insn_count=np.asarray(table.insn_count)[picked],
                cta_size=np.asarray(table.cta_size)[picked],
                num_ctas=np.asarray(table.num_ctas)[picked],
            )
        )
        rows.append(picked.astype(np.int64))
    streamed = stream_selection(method_name, context, config, chunks, rows)
    assert pickle.dumps(streamed) == pickle.dumps(batch)


def test_buffering_fallback_reports_honest_footprint():
    """Methods without a true stream buffer everything — and say so."""
    context = context_for("cactus/gru", 600)
    method = get_method("random")
    assert not method.streams_incrementally
    stream = method.begin_stream(
        StreamContext(workload=context.sieve_table.workload, batch=context)
    )
    for chunk in cut_chunks(context.sieve_table, (200,)):
        stream.observe(chunk)
    assert stream.resident_rows == len(context.sieve_table)


def test_true_streams_advertise_incrementality():
    for name in ("sieve", "periodic"):
        assert get_method(name).streams_incrementally
