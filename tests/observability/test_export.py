"""Exporter contracts: JSONL round-trips, Chrome traces, Prometheus text,
and the jobs=1 vs jobs=4 structural byte-identity guarantee."""

import json
import pickle

import pytest

from repro.core.config import SieveConfig
from repro.evaluation.engine import EngineConfig, EvaluationEngine, EvaluationTask
from repro.methods import MethodRequest
from repro.observability import metrics as obs_metrics
from repro.observability import spans, state
from repro.observability.export import (
    JsonlStreamSink,
    canonical_events,
    chrome_trace,
    export_jsonl,
    prometheus_text,
    read_jsonl_spans,
    record_to_dict,
    records_from_dicts,
)
from repro.observability.spans import span


@pytest.fixture(autouse=True)
def _clean_telemetry():
    spans.reset()
    spans.clear_sinks()
    obs_metrics.get_registry().reset()
    yield
    spans.reset()
    spans.clear_sinks()
    obs_metrics.get_registry().reset()
    state.set_enabled(None)


def sample_records():
    with spans.capture_spans() as caught:
        with span("engine.task", workload="w/a"):
            with span("sieve.predict", workload="w/a"):
                pass
        with span("engine.task", workload="w/b"):
            with span("sieve.predict", workload="w/b"):
                pass
    return tuple(caught)


# --------------------------------------------------------------------- #
# JSONL


def test_record_dict_round_trip():
    records = sample_records()
    rebuilt = records_from_dicts(record_to_dict(r) for r in records)
    assert rebuilt == records
    assert pickle.dumps(rebuilt) == pickle.dumps(records)


def test_stream_sink_appends_parseable_lines(tmp_path):
    path = tmp_path / "stream.jsonl"
    sink = JsonlStreamSink(path)
    spans.add_sink(sink)
    records = sample_records()
    spans.remove_sink(sink)
    sink.close()
    assert sink.emitted == len(records)
    assert read_jsonl_spans(path) == records


def test_stream_sink_skips_adopted_duplicates_in_append(tmp_path):
    """Adopted worker records stream once (from adopt), not twice."""
    with spans.capture_spans() as caught:
        with span("engine.task", workload="w/a"):
            pass
    shipped = tuple(caught)
    spans.reset()
    path = tmp_path / "stream.jsonl"
    with JsonlStreamSink(path) as sink:
        spans.add_sink(sink)
        adopted = spans.adopt(shipped, parent_id=-1)
        spans.remove_sink(sink)
    streamed = read_jsonl_spans(path)
    assert streamed == adopted
    assert all(record.proc == "worker" for record in streamed)


def test_disabled_observability_never_touches_sinks(tmp_path):
    """SIEVE_OBS=off keeps the shared no-op span: zero sink I/O."""
    path = tmp_path / "stream.jsonl"
    sink = JsonlStreamSink(path)
    spans.add_sink(sink)
    state.set_enabled(False)
    with span("invisible", k=1):
        with span("nested"):
            pass
    state.set_enabled(True)
    spans.remove_sink(sink)
    sink.close()
    assert sink.emitted == 0
    assert path.read_text() == ""
    assert spans.records() == ()


def test_canonical_events_nesting_and_seq():
    events = canonical_events(sample_records())
    paths = [event["path"] for event in events]
    assert paths == sorted(paths)
    assert "engine.task[w/a]/sieve.predict[w/a]" in paths
    # Identical paths are disambiguated by a 1-based sequence number.
    task_events = [e for e in events if e["name"] == "engine.task"]
    assert {e["path"] for e in task_events} == {
        "engine.task[w/a]",
        "engine.task[w/b]",
    }
    assert all(e["seq"] == 1 for e in task_events)


def test_canonical_paths_elide_engine_infra():
    with spans.capture_spans() as caught:
        with span("engine.run"):
            with span("engine.pool"):
                with span("engine.task", workload="w/a"):
                    with span("sieve.predict", workload="w/a"):
                        pass
    events = canonical_events(caught)
    paths = {event["path"] for event in events}
    # The pool span vanishes; paths restart at the last engine.task.
    assert "engine.task[w/a]" in paths
    assert "engine.task[w/a]/sieve.predict[w/a]" in paths
    assert not any("engine.pool" in path for path in paths)


def test_structural_export_drops_timing_fields():
    lines = export_jsonl(sample_records(), structural=True).splitlines()
    for line in lines:
        event = json.loads(line)
        for banned in ("wall_s", "cpu_s", "start_s", "span_id", "parent_id", "proc"):
            assert banned not in event


# --------------------------------------------------------------------- #
# Chrome trace


def test_chrome_trace_is_json_and_nesting_round_trips():
    records = sample_records()
    trace = json.loads(json.dumps(chrome_trace(records)))
    events = trace["traceEvents"]
    durations = [e for e in events if e["ph"] == "X"]
    assert len(durations) == len(records)
    by_name = {e["name"]: e for e in durations if e["args"].get("workload") == "w/a"}
    parent, child = by_name["engine.task"], by_name["sieve.predict"]
    # The child's interval nests inside its parent's on the same track.
    assert (parent["pid"], parent["tid"]) == (child["pid"], child["tid"])
    assert parent["ts"] <= child["ts"]
    assert child["ts"] + child["dur"] <= parent["ts"] + parent["dur"] + 1e-6
    assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in durations)


def test_chrome_trace_places_worker_batches_on_own_threads():
    records = sample_records()
    spans.reset()
    adopted = spans.adopt(records[:2], parent_id=-1)
    adopted += spans.adopt(records[2:], parent_id=-1)
    trace = chrome_trace(adopted)
    durations = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert {e["pid"] for e in durations} == {1}
    assert {e["tid"] for e in durations} == {1, 2}  # one thread per batch
    thread_names = [
        e for e in trace["traceEvents"]
        if e["ph"] == "M" and e["name"] == "thread_name"
    ]
    assert len(thread_names) == 2


# --------------------------------------------------------------------- #
# Prometheus


def test_prometheus_text_matches_registry_snapshot():
    registry = obs_metrics.get_registry()
    registry.inc("export.calls", kind="chrome")
    registry.inc("export.calls", kind="chrome")
    registry.set_gauge("export.ratio", 0.5)
    registry.observe("export.sizes", 3.0)  # default buckets: 1, 4, 16, ...
    registry.observe("export.sizes", 7.0)
    text = prometheus_text(registry.snapshot())
    lines = text.splitlines()
    assert 'export_calls_total{kind="chrome"} 2' in lines
    assert "export_ratio 0.5" in lines
    assert 'export_sizes_bucket{le="1"} 0' in lines
    assert 'export_sizes_bucket{le="4"} 1' in lines
    assert 'export_sizes_bucket{le="16"} 2' in lines
    assert 'export_sizes_bucket{le="+Inf"} 2' in lines
    assert "export_sizes_sum 10" in lines
    assert "export_sizes_count 2" in lines
    # Every family gets exactly one TYPE line.
    assert lines.count("# TYPE export_calls_total counter") == 1
    assert lines.count("# TYPE export_ratio gauge") == 1
    assert lines.count("# TYPE export_sizes histogram") == 1


def test_prometheus_sanitizes_names_and_escapes_labels():
    snapshot = {
        "counters": {'weird.name-x{label=a"b\\c}': 3},
        "gauges": {},
        "histograms": {},
    }
    text = prometheus_text(snapshot)
    assert "weird_name_x_total" in text
    assert r"a\"b\\c" in text


def test_parse_prometheus_round_trips_exporter_output():
    from repro.observability.export import parse_prometheus

    registry = obs_metrics.get_registry()
    registry.inc("roundtrip.calls", kind="a")
    registry.set_gauge("roundtrip.ratio", 0.25)
    registry.observe("roundtrip.sizes", 3.0)
    families = parse_prometheus(prometheus_text(registry.snapshot()))
    assert families["roundtrip_calls_total"]["type"] == "counter"
    assert ("roundtrip_calls_total", {"kind": "a"}, 1.0) in families[
        "roundtrip_calls_total"
    ]["samples"]
    assert families["roundtrip_ratio"]["samples"] == [
        ("roundtrip_ratio", {}, 0.25)
    ]
    histogram = families["roundtrip_sizes"]
    sample_names = {name for name, _, _ in histogram["samples"]}
    assert {"roundtrip_sizes_sum", "roundtrip_sizes_count"} <= sample_names
    inf_buckets = [
        value
        for name, labels, value in histogram["samples"]
        if name == "roundtrip_sizes_bucket" and labels.get("le") == "+Inf"
    ]
    assert inf_buckets == [1.0]


@pytest.mark.parametrize(
    "text, match",
    [
        ("orphan 1\n", "no TYPE line"),
        ("# TYPE a counter\na_total notanumber\n", "bad sample value"),
        ("# TYPE a counter\na_total{x=1} 5\n", "malformed labels"),
        ("# TYPE a wibble\n", "unknown metric type"),
        ("# TYPE a counter\n# TYPE a gauge\n", "duplicate TYPE"),
        ("# TYPE h histogram\nh_sum 1\nh_count 1\n", "missing h_bucket"),
    ],
)
def test_parse_prometheus_rejects_malformed_text(text, match):
    from repro.observability.export import parse_prometheus

    with pytest.raises(ValueError, match=match):
        parse_prometheus(text)


# --------------------------------------------------------------------- #
# Determinism under --jobs


def engine_spans(jobs: int, tmp_path):
    # Workers always build contexts from scratch; drop the main-process
    # memoization so the serial run records the same build spans.
    from repro.evaluation.context import _cached_context

    _cached_context.cache_clear()
    spans.reset()
    engine = EvaluationEngine(
        EngineConfig(jobs=jobs, use_cache=False, cache_dir=tmp_path / f"j{jobs}")
    )
    tasks = [
        EvaluationTask(
            label=label,
            max_invocations=500,
            methods=(MethodRequest("sieve", SieveConfig(theta=0.4)), "pks"),
        )
        for label in ("cactus/gru", "cactus/gst", "cactus/lmc")
    ]
    engine.run(tasks)
    return spans.records()


def test_structural_export_identical_serial_vs_parallel(tmp_path):
    """jobs=1 and jobs=4 produce byte-identical structural exports.

    The cache must stay off: a cache hit skips the evaluate spans
    entirely, which is a genuine structural difference.
    """
    serial = export_jsonl(engine_spans(1, tmp_path), structural=True)
    parallel = export_jsonl(engine_spans(4, tmp_path), structural=True)
    assert serial == parallel
    assert serial  # non-empty: the engine actually produced spans
