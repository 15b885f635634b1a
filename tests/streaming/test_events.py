"""Emit/retract event-ledger semantics for the incremental operators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.periodic import PeriodicSampler
from repro.core.config import SieveConfig
from repro.evaluation.context import build_context
from repro.methods import get_method
from repro.streaming.base import StreamContext, iter_table_chunks
from repro.utils.errors import StreamingError


@pytest.fixture(scope="module")
def table():
    return build_context("cactus/lmc", max_invocations=2000).sieve_table


def replay(events) -> dict[str, tuple[int, int]]:
    """Apply the ledger in sequence order: group -> live (row, inv)."""
    live: dict[str, tuple[int, int]] = {}
    for event in events:
        if event.kind == "emit":
            live[event.group] = (event.row, event.invocation_id)
        else:
            assert event.kind == "retract"
            assert event.group in live, "retract of a group never emitted"
            del live[event.group]
    return live


def test_sieve_ledger_replays_to_the_final_selection(table):
    stream = get_method("sieve").begin_stream(
        StreamContext(workload=table.workload, collect_events=True),
        SieveConfig(),
    )
    events = []
    for chunk in iter_table_chunks(table, 257):
        events.extend(stream.observe(chunk))
    selection = stream.finalize()
    events = list(stream.events)  # includes finalize's reconciliation
    assert [e.seq for e in events] == list(range(len(events)))
    live = replay(events)
    want = {
        rep.group: (rep.row, rep.invocation_id)
        for rep in selection.representatives
    }
    assert live == want


def test_sieve_emits_eagerly_and_retracts_on_changes(table):
    stream = get_method("sieve").begin_stream(
        StreamContext(workload=table.workload, collect_events=True),
        SieveConfig(),
    )
    first_chunk_events = stream.observe(table.slice_rows(0, 400))
    assert first_chunk_events, "first chunk must surface provisional picks"
    assert all(e.kind == "emit" for e in first_chunk_events[:1])
    for chunk in iter_table_chunks(table.slice_rows(400, len(table)), 400):
        stream.observe(chunk, rows=None)
    stream.finalize()
    kinds = {e.kind for e in stream.events}
    assert kinds <= {"emit", "retract"}
    # Provisional picks moved as more of the stream arrived.
    assert any(e.kind == "retract" for e in stream.events)


def test_sieve_events_off_by_default(table):
    stream = get_method("sieve").begin_stream(
        StreamContext(workload=table.workload), SieveConfig()
    )
    for chunk in iter_table_chunks(table, 500):
        assert stream.observe(chunk) == []
    stream.finalize()
    assert stream.events == []


def test_periodic_only_emits_and_replays_to_its_selection(table):
    """A periodic pick is final the moment its row arrives: no retracts."""
    stream = get_method("periodic").begin_stream(
        StreamContext(workload=table.workload, collect_events=True),
        PeriodicSampler(period=50),
    )
    for chunk in iter_table_chunks(table, 7):
        stream.observe(chunk)
    selection = stream.finalize()
    assert {e.kind for e in stream.events} == {"emit"}
    live = replay(stream.events)
    want = {
        rep.group: (rep.row, rep.invocation_id)
        for rep in selection.representatives
    }
    assert live == want


def test_periodic_rows_off_the_grid_are_a_streaming_error():
    table = build_context("cactus/gru", max_invocations=30).sieve_table
    stream = get_method("periodic").begin_stream(
        StreamContext(workload=table.workload, collect_events=True),
        PeriodicSampler(period=10_000),
    )
    assert stream.observe(table, rows=np.arange(1, len(table) + 1)) == []
    with pytest.raises(StreamingError, match="period 10000"):
        stream.finalize()


def test_event_weights_are_estimates_rows_seen_monotone(table):
    stream = get_method("sieve").begin_stream(
        StreamContext(workload=table.workload, collect_events=True),
        SieveConfig(),
    )
    for chunk in iter_table_chunks(table, 300):
        stream.observe(chunk)
    stream.finalize()
    positions = [e.rows_seen for e in stream.events]
    assert positions == sorted(positions)
    emitted = [e for e in stream.events if e.kind == "emit"]
    assert all(0.0 <= e.weight <= 1.0 for e in emitted)
    assert all(np.isfinite(e.weight) for e in emitted)
