"""Manifest assembly, JSON round-trip and self-time accounting."""

import time

import pytest

from repro import _blas
from repro.evaluation.engine import EngineConfig, EvaluationEngine
from repro.observability import manifest as obs_manifest
from repro.observability import metrics, spans, state
from repro.observability.manifest import (
    RunManifest,
    aggregate_stages,
    collect_manifest,
)
from repro.observability.spans import span
from repro.perfstore.store import PerfStore


@pytest.fixture(autouse=True)
def _clean_telemetry():
    spans.reset()
    metrics.get_registry().reset()
    yield
    spans.reset()
    metrics.get_registry().reset()
    state.set_enabled(None)


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_aggregate_stages_self_time_sums_to_total():
    with span("root"):
        with span("child"):
            _busy(0.005)
        with span("child"):
            _busy(0.005)
        _busy(0.002)
    stages = {s.name: s for s in aggregate_stages(spans.records())}
    root, child = stages["root"], stages["child"]
    assert child.count == 2
    assert root.wall_s >= child.wall_s
    # Self times partition the root's wall exactly.
    assert root.self_s + child.self_s == pytest.approx(root.wall_s, rel=1e-9)


def test_self_time_ignores_cross_process_children():
    with span("pool") as pool_span:
        _busy(0.002)
        worker = (
            spans.SpanRecord(
                name="w.task", wall_s=5.0, cpu_s=5.0,
                span_id=0, parent_id=-1, depth=0,
            ),
        )
        spans.adopt(worker, parent_id=pool_span.span_id)
    stages = {s.name: s for s in aggregate_stages(spans.records())}
    # The worker's 5s overlap the pool span; subtracting them would make
    # the pool's self time negative nonsense.
    assert stages["pool"].self_s == pytest.approx(stages["pool"].wall_s)
    assert stages["w.task"].self_s == 5.0


def test_collect_manifest_and_round_trip():
    mark = spans.mark()
    events_mark = obs_manifest.events_mark()
    metrics.inc("test.counter", 3, kind="x")
    obs_manifest.record_event("test.event", detail="boom")
    with span("stage.a", workload="w"):
        _busy(0.002)
    manifest = collect_manifest(
        "test-command",
        config={"cap": 100},
        workloads=[{"workload": "w", "sieve_error": 0.01}],
        aggregates={"avg": 0.01},
        diagnostics=[{"severity": "warning", "source": "s", "message": "m"}],
        since=mark,
        events_since=events_mark,
        created="2026-01-01T00:00:00+00:00",
    )
    assert manifest.schema == obs_manifest.MANIFEST_SCHEMA
    assert manifest.package_version
    assert manifest.source_fingerprint
    assert manifest.stage("stage.a").count == 1
    assert manifest.total_wall_s == pytest.approx(
        manifest.stage("stage.a").wall_s
    )
    assert manifest.events == ({"kind": "test.event", "detail": "boom"},)
    assert manifest.metrics["counters"] == {"test.counter{kind=x}": 3.0}

    restored = RunManifest.from_json(manifest.to_json())
    assert restored == manifest  # lossless round-trip


def test_engine_block_records_the_blas_thread_budget(tmp_path):
    engine = EvaluationEngine(EngineConfig(jobs=2, use_cache=False))
    manifest = collect_manifest("fig3", config={"cap": 100}, engine=engine)
    assert manifest.cache["jobs"] == 2
    assert manifest.cache["blas_threads"] == _blas.THREADS
    assert set(manifest.cache["blas_threads"]) == set(_blas.VARIABLES)
    assert manifest.cache["numpy_before_repro"] is _blas.NUMPY_FIRST
    assert RunManifest.from_json(manifest.to_json()) == manifest

    # The budget is run context, not experiment shape: a run with and
    # one without the engine block land under one config fingerprint.
    store = PerfStore(tmp_path / "store")
    bare = collect_manifest("fig3", config={"cap": 100})
    assert bare.cache is None
    receipts = [store.ingest(m, figure="fig3", version="v1") for m in (manifest, bare)]
    assert receipts[0].fingerprint == receipts[1].fingerprint


def test_save_load_file_round_trip(tmp_path):
    with span("s"):
        pass
    manifest = collect_manifest("cmd")
    path = manifest.save(tmp_path / "sub" / "m.json")
    assert RunManifest.load(path) == manifest


def test_event_list_is_bounded_and_marks_survive_eviction(monkeypatch):
    monkeypatch.setattr(obs_manifest, "MAX_EVENTS", 3)
    obs_manifest.reset_events()
    obs_manifest.record_event("e", n=0)
    mark = obs_manifest.events_mark()
    for n in range(1, 6):
        obs_manifest.record_event("e", n=n)
    # Events 0-2 were dropped FIFO, the mark's first one among them: the
    # mark clamps to the oldest retained event.
    assert [event["n"] for event in obs_manifest.events(since=mark)] == [3, 4, 5]
    later = obs_manifest.events_mark()
    obs_manifest.extend_events([{"kind": "e", "n": 6}])
    assert [event["n"] for event in obs_manifest.events(since=later)] == [6]
    assert [event["n"] for event in obs_manifest.events(since=later - 1)] == [5, 6]
    assert [event["n"] for event in obs_manifest.events()] == [4, 5, 6]


def test_events_recorded_even_when_disabled():
    state.set_enabled(False)
    mark = obs_manifest.events_mark()
    obs_manifest.record_event("pool.failure", exception="OSError('x')")
    events = obs_manifest.events(since=mark)
    assert events == ({"kind": "pool.failure", "exception": "OSError('x')"},)
