"""Zero-dependency tracing, metrics and run manifests (DESIGN.md §9).

Three primitives, one artifact:

* :func:`span` — ``with span("stage", **attrs):`` measures wall/CPU time
  and nesting of one pipeline stage (:mod:`repro.observability.spans`);
* :class:`MetricsRegistry` — process-wide counters/gauges/histograms
  with deterministic aggregation (:mod:`repro.observability.metrics`);
* :class:`RunManifest` — a single JSON artifact per run: config, package
  fingerprint, cache statistics, per-stage timings, per-workload
  accuracy, events and diagnostics
  (:mod:`repro.observability.manifest`), rendered by
  :mod:`repro.observability.report` and gated by
  :func:`repro.perfstore.gate.gate_manifests`.

``SIEVE_OBS=off`` turns the whole layer into a no-op.
"""

from repro.observability.manifest import (
    MANIFEST_SCHEMA,
    RunManifest,
    StageStat,
    aggregate_stages,
    collect_manifest,
    record_event,
)
from repro.observability.metrics import MetricsRegistry, get_registry
from repro.observability.spans import SpanRecord, capture_spans, span
from repro.observability.state import enabled, set_enabled

__all__ = [
    "MANIFEST_SCHEMA",
    "MetricsRegistry",
    "RunManifest",
    "SpanRecord",
    "StageStat",
    "aggregate_stages",
    "capture_spans",
    "collect_manifest",
    "enabled",
    "get_registry",
    "record_event",
    "set_enabled",
    "span",
]
