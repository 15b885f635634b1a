"""Registry semantics and the jobs=4 == serial determinism contract."""

import pytest

from repro.core.config import SieveConfig
from repro.evaluation.context import _cached_context
from repro.evaluation.engine import EngineConfig, EvaluationEngine, EvaluationTask
from repro.methods import MethodRequest
from repro.observability import metrics, spans, state
from repro.observability.metrics import Histogram, MetricsRegistry, metric_key


@pytest.fixture(autouse=True)
def _clean_registry():
    metrics.get_registry().reset()
    spans.reset()
    yield
    metrics.get_registry().reset()
    spans.reset()
    state.set_enabled(None)


def test_metric_key_sorts_labels():
    assert metric_key("m", {"b": 2, "a": 1}) == "m{a=1,b=2}"
    assert metric_key("m", {}) == "m"


def test_counters_gauges_histograms():
    registry = MetricsRegistry()
    registry.inc("hits")
    registry.inc("hits", 2.0)
    registry.inc("miss", reason="stale")
    registry.set_gauge("jobs", 4)
    registry.observe("sizes", 3)
    registry.observe("sizes", 300)
    assert registry.counter("hits") == 3.0
    assert registry.counter("miss", reason="stale") == 1.0
    assert registry.counter("miss", reason="absent") == 0.0
    assert registry.gauges == {"jobs": 4.0}
    histogram = registry.histogram("sizes")
    assert histogram.count == 2
    assert histogram.total == 303
    assert histogram.min == 3
    assert histogram.max == 300
    assert histogram.mean == pytest.approx(151.5)


def test_histogram_merge_and_round_trip():
    a = Histogram()
    b = Histogram()
    for value in (1, 5, 17):
        a.observe(value)
    for value in (2, 1000):
        b.observe(value)
    a.merge(b)
    assert a.count == 5
    assert a.total == 1025
    assert a.min == 1
    assert a.max == 1000
    restored = Histogram.from_dict(a.to_dict())
    assert restored.to_dict() == a.to_dict()


def test_histogram_merge_rejects_mismatched_bounds():
    with pytest.raises(ValueError):
        Histogram(bounds=(1.0, 2.0)).merge(Histogram())


def test_merge_is_snapshot_additive():
    a = MetricsRegistry()
    b = MetricsRegistry()
    a.inc("n", 1)
    b.inc("n", 2)
    b.set_gauge("g", 7)
    b.observe("h", 4)
    a.merge(b.snapshot())
    assert a.counter("n") == 3.0
    assert a.gauges["g"] == 7.0
    assert a.histogram("h").count == 1


def test_module_helpers_respect_disabled():
    state.set_enabled(False)
    metrics.inc("off.counter")
    metrics.set_gauge("off.gauge", 1)
    metrics.observe("off.hist", 1)
    snapshot = metrics.get_registry().snapshot()
    assert snapshot == {"counters": {}, "gauges": {}, "histograms": {}}


def test_snapshot_is_sorted_and_jsonable():
    import json

    registry = MetricsRegistry()
    registry.inc("z")
    registry.inc("a")
    registry.observe("h", 2)
    snapshot = registry.snapshot()
    assert list(snapshot["counters"]) == ["a", "z"]
    json.dumps(snapshot)  # must not raise


def test_parallel_merge_equals_serial(tmp_path):
    """jobs=4 merged worker metrics == the serial run's snapshot."""
    labels = ["cactus/gru", "cactus/gst", "cactus/lmc", "cactus/dcg"]
    tasks = [
        EvaluationTask(
            label=label,
            max_invocations=600,
            methods=(MethodRequest("sieve", SieveConfig(theta=0.4)), "pks"),
        )
        for label in labels
    ]

    def run(jobs):
        metrics.get_registry().reset()
        spans.reset()
        # The lru-cached context would absorb the pipeline work of later
        # runs (and forked workers inherit a warm cache), hiding the very
        # metrics this test compares.
        _cached_context.cache_clear()
        engine = EvaluationEngine(EngineConfig(jobs=jobs, use_cache=False))
        engine.run(tasks)
        return metrics.get_registry().snapshot()

    serial = run(1)
    parallel = run(4)

    def pipeline_only(snapshot):
        return {
            kind: {
                k: v for k, v in payload.items() if not k.startswith("engine.")
            }
            for kind, payload in snapshot.items()
        }

    assert pipeline_only(parallel) == pipeline_only(serial)
    # Sanity: the comparison is not vacuous.
    assert any(k.startswith("sieve.") for k in serial["counters"])
    assert serial["histograms"]
