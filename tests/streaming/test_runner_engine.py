"""Streaming evaluation plumbing: runner parity and metrics."""

from __future__ import annotations

import pickle

import pytest

from repro.evaluation.runner import evaluate_method, evaluate_method_streaming
from repro.observability import metrics
from repro.observability.export import parse_prometheus, prometheus_text


@pytest.mark.parametrize("method_name", ["sieve", "periodic", "pks"])
def test_streamed_evaluation_equals_batch(small_context, method_name):
    batch = evaluate_method(method_name, small_context)
    streamed = evaluate_method_streaming(
        method_name, small_context, chunk_rows=193
    )
    assert pickle.dumps(streamed) == pickle.dumps(batch)


def test_streamed_evaluation_tracks_high_water_gauge(small_context):
    registry = metrics.get_registry()
    registry.reset()
    evaluate_method_streaming("sieve", small_context, chunk_rows=256)
    gauges = registry.gauges
    assert "streaming.high_water_rows" in gauges
    assert 0 < gauges["streaming.high_water_rows"] <= len(
        small_context.sieve_table
    )
    counters = registry.counters
    assert counters.get("streaming.rows", 0) >= len(small_context.sieve_table)


def test_bounded_reservoir_run_completes_with_smaller_footprint(small_context):
    registry = metrics.get_registry()
    registry.reset()
    result = evaluate_method_streaming(
        "sieve", small_context, chunk_rows=128, reservoir_rows=40
    )
    assert result.selection.num_representatives > 0
    high_water = registry.gauges["streaming.high_water_rows"]
    assert high_water < len(small_context.sieve_table)


def test_streaming_gauges_reach_prometheus_exposition(small_context):
    """The service's /v1/metrics renders the same registry snapshot; a
    streamed run must surface its gauge and row counter there with the
    standard name mapping (dots -> underscores, counters get _total)."""
    registry = metrics.get_registry()
    registry.reset()
    evaluate_method_streaming("sieve", small_context, chunk_rows=512)
    text = prometheus_text(registry.snapshot())
    families = parse_prometheus(text)
    assert families["streaming_high_water_rows"]["type"] == "gauge"
    assert families["streaming_rows_total"]["type"] == "counter"
    [(_, _, high_water)] = families["streaming_high_water_rows"]["samples"]
    assert high_water > 0
