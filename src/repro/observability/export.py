"""Telemetry exporters: span/metric streams in standard formats.

Three consumers, three formats:

* **JSONL** — one JSON object per span. :class:`JsonlStreamSink` streams
  records to disk as they finish (register with
  :func:`repro.observability.spans.add_sink`; worker-shipped spans are
  appended at engine merge time, in task input order).
  :func:`export_jsonl` renders a finished record set *canonically*:
  events are keyed by a stable span path and sorted by ``(path, seq)``,
  so two runs with identical structure export byte-identical text. The
  ``structural`` mode drops every nondeterministic field (wall/CPU
  times, ids, process tags) — the ``--jobs 1`` vs ``--jobs 4``
  byte-identity test in ``tests/observability/test_export.py`` builds on
  it.
* **Chrome/Perfetto trace events** — :func:`chrome_trace` lays nested
  spans out as ``ph:"X"`` complete events on per-process tracks (main
  process on one pid, each worker task batch on its own thread of a
  "workers" pid), ready for ``chrome://tracing`` or https://ui.perfetto.dev.
* **Prometheus textfile exposition** — :func:`prometheus_text` renders a
  :class:`~repro.observability.metrics.MetricsRegistry` snapshot
  (counters, gauges, histograms with cumulative ``le`` buckets) for the
  node-exporter textfile collector.

Canonical span paths
--------------------

A span's path is the ``/``-joined chain of ancestor names, each
qualified by its ``workload`` attribute (``engine.task[cactus/gru]/
sieve.predict[cactus/gru]``). Two infra spans are elided so one-lane and
fanned-out runs canonicalize identically: ``engine.pool`` /
``engine.attempt`` segments are dropped, and paths are truncated to
start at their last ``engine.task`` segment (a worker's batch is
rootless after the per-task reset; a one-lane run nests the same spans
under ``engine.run``). ``seq`` numbers repeated paths in record order,
which both the one-lane and the merged parallel stream produce in task
input order.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import IO, Iterable, Mapping

from repro.observability.spans import SpanRecord

__all__ = [
    "JsonlStreamSink",
    "canonical_events",
    "chrome_trace",
    "export_jsonl",
    "parse_prometheus",
    "prometheus_text",
    "read_jsonl_spans",
    "record_to_dict",
    "records_from_dicts",
    "write_chrome_trace",
    "write_prometheus",
]

#: Engine fan-out plumbing, elided from canonical paths (a one-lane run
#: has no fan-out span and no attempt spans).
_INFRA_SEGMENTS = frozenset({"engine.pool", "engine.attempt"})

#: Fields that differ run-to-run (or between jobs=1 and jobs=N) and are
#: therefore excluded from structural exports.
_TIMED_FIELDS = ("wall_s", "cpu_s", "start_s", "proc", "span_id", "parent_id")


# ------------------------------------------------------------------ JSONL


def record_to_dict(record: SpanRecord) -> dict:
    """One span record as a JSON-ready dict (raw, stream form)."""
    return {
        "name": record.name,
        "wall_s": record.wall_s,
        "cpu_s": record.cpu_s,
        "span_id": record.span_id,
        "parent_id": record.parent_id,
        "depth": record.depth,
        "error": record.error,
        "proc": record.proc,
        "attrs": dict(record.attrs),
        "start_s": record.start_s,
    }


def records_from_dicts(dicts: Iterable[Mapping]) -> tuple[SpanRecord, ...]:
    """Rebuild span records from their dict form (JSONL line, manifest)."""
    return tuple(
        SpanRecord(
            name=data["name"],
            wall_s=float(data.get("wall_s", 0.0)),
            cpu_s=float(data.get("cpu_s", 0.0)),
            span_id=int(data.get("span_id", -1)),
            parent_id=int(data.get("parent_id", -1)),
            depth=int(data.get("depth", 0)),
            error=data.get("error"),
            proc=data.get("proc", "main"),
            attrs=dict(data.get("attrs", {})),
            start_s=float(data.get("start_s", 0.0)),
        )
        for data in dicts
    )


def read_jsonl_spans(path: str | Path) -> tuple[SpanRecord, ...]:
    """Round-trip a JSONL span stream back into records."""
    return records_from_dicts(
        json.loads(line)
        for line in Path(path).read_text().splitlines()
        if line.strip()
    )


class JsonlStreamSink:
    """Live sink appending one JSON line per finished span.

    Lines are written (and flushed) incrementally, so a crashed run
    leaves a readable prefix. The stream is in completion order — use
    :func:`export_jsonl` on the read-back records for the canonical,
    order-independent form.
    """

    def __init__(self, target: str | Path | IO[str]):
        if hasattr(target, "write"):
            self._handle: IO[str] = target  # type: ignore[assignment]
            self._owns = False
        else:
            self._handle = open(target, "w", encoding="utf-8")
            self._owns = True
        self.emitted = 0

    def emit(self, record: SpanRecord) -> None:
        self._handle.write(json.dumps(record_to_dict(record), sort_keys=True) + "\n")
        self._handle.flush()
        self.emitted += 1

    def close(self) -> None:
        if self._owns:
            self._handle.close()

    def __enter__(self) -> "JsonlStreamSink":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


def _segment(record: SpanRecord) -> str:
    workload = record.attrs.get("workload")
    return f"{record.name}[{workload}]" if workload is not None else record.name


def canonical_events(
    records: Iterable[SpanRecord], *, structural: bool = False
) -> list[dict]:
    """Spans as path-keyed events, stably sorted by ``(path, seq)``.

    See the module docstring for the path canonicalization rules.
    ``structural=True`` drops timing/id/process fields, leaving only
    run-invariant structure.
    """
    records = tuple(records)
    by_id = {record.span_id: record for record in records}

    def path_of(record: SpanRecord) -> str:
        chain: list[SpanRecord] = []
        cursor: SpanRecord | None = record
        seen: set[int] = set()
        while cursor is not None and cursor.span_id not in seen:
            seen.add(cursor.span_id)
            chain.append(cursor)
            cursor = by_id.get(cursor.parent_id)
        chain.reverse()  # root .. leaf
        names = [r.name for r in chain]
        # Start at the last engine.task ancestor when there is one: a
        # one-lane run nests tasks under engine.run, a worker's batch
        # is rootless — both truncate to the same task-relative path.
        for index in range(len(chain) - 1, -1, -1):
            if names[index] == "engine.task":
                chain = chain[index:]
                break
        return "/".join(
            _segment(r) for r in chain if r.name not in _INFRA_SEGMENTS
        )

    events = []
    seq: dict[str, int] = {}
    for record in records:
        if record.name in _INFRA_SEGMENTS:
            continue
        path = path_of(record)
        seq[path] = seq.get(path, 0) + 1
        event = {
            "path": path,
            "seq": seq[path],
            "name": record.name,
            "depth": path.count("/"),
            "error": record.error,
            "attrs": dict(record.attrs),
        }
        if not structural:
            for field_name in _TIMED_FIELDS:
                event[field_name] = getattr(record, field_name)
        events.append(event)
    events.sort(key=lambda e: (e["path"], e["seq"]))
    return events


def export_jsonl(
    records: Iterable[SpanRecord], *, structural: bool = False
) -> str:
    """Canonical JSONL text for a finished record set."""
    return "".join(
        json.dumps(event, sort_keys=True) + "\n"
        for event in canonical_events(records, structural=structural)
    )


# ----------------------------------------------------------- Chrome trace


def chrome_trace(records: Iterable[SpanRecord]) -> dict:
    """Spans as a Chrome trace-event JSON object (``ph:"X"`` events).

    Track layout: the main process is pid 0 / tid 0; worker-shipped
    spans land on pid 1 with one thread per adopted task batch (a batch
    root is a worker span whose parent is not itself a worker span).
    Timestamps are normalized per track — ``start_s`` stamps share a
    clock origin only within one OS process.
    """
    records = tuple(records)
    by_id = {record.span_id: record for record in records}

    def batch_root(record: SpanRecord) -> int:
        cursor = record
        seen: set[int] = set()
        while cursor.span_id not in seen:
            seen.add(cursor.span_id)
            parent = by_id.get(cursor.parent_id)
            if parent is None or parent.proc != "worker":
                return cursor.span_id
            cursor = parent
        return cursor.span_id

    batches: dict[int, int] = {}  # batch root span id -> tid
    tracks: dict[tuple[int, int], float] = {}  # (pid, tid) -> clock origin
    placed: list[tuple[SpanRecord, int, int]] = []
    for record in records:
        if record.proc == "worker":
            root = batch_root(record)
            tid = batches.setdefault(root, len(batches) + 1)
            pid = 1
        else:
            pid, tid = 0, 0
        key = (pid, tid)
        tracks[key] = min(tracks.get(key, math.inf), record.start_s)
        placed.append((record, pid, tid))

    trace_events: list[dict] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": 0,
            "tid": 0,
            "args": {"name": "sieve-repro"},
        }
    ]
    if batches:
        trace_events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": 1,
                "tid": 0,
                "args": {"name": "workers"},
            }
        )
        for root, tid in sorted(batches.items(), key=lambda item: item[1]):
            label = by_id[root].attrs.get("workload", f"batch {tid}")
            trace_events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": 1,
                    "tid": tid,
                    "args": {"name": f"task {label}"},
                }
            )
    for record, pid, tid in placed:
        origin = tracks[(pid, tid)]
        event = {
            "ph": "X",
            "name": record.name,
            "cat": record.proc,
            "pid": pid,
            "tid": tid,
            "ts": (record.start_s - origin) * 1e6,  # microseconds
            "dur": record.wall_s * 1e6,
            "args": dict(record.attrs),
        }
        if record.error:
            event["args"]["error"] = record.error
        trace_events.append(event)
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str | Path, records: Iterable[SpanRecord]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace(records), indent=1) + "\n")
    return path


# ------------------------------------------------------------- Prometheus

_NAME_SANITIZER = re.compile(r"[^a-zA-Z0-9_:]")


def _metric_name(raw: str) -> str:
    name = _NAME_SANITIZER.sub("_", raw)
    if name and name[0].isdigit():
        name = "_" + name
    return name


def _parse_key(key: str) -> tuple[str, dict[str, str]]:
    """Split a registry key (``name{a=b,c=d}``) into name + labels."""
    if key.endswith("}") and "{" in key:
        name, _, inner = key.partition("{")
        labels = {}
        for part in inner[:-1].split(","):
            label, _, value = part.partition("=")
            labels[label] = value
        return name, labels
    return key, {}


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _label_suffix(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{_metric_name(k)}="{_escape_label(str(labels[k]))}"'
        for k in sorted(labels)
    )
    return f"{{{inner}}}"


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def prometheus_text(snapshot: Mapping) -> str:
    """A registry snapshot in Prometheus textfile exposition format.

    ``snapshot`` is the output of
    :meth:`~repro.observability.metrics.MetricsRegistry.snapshot`.
    Metric families are emitted in sorted order with one ``# TYPE`` line
    each; histograms expand into cumulative ``_bucket{le=...}`` series
    plus ``_sum``/``_count``.
    """
    families: dict[str, list[str]] = {}

    def family(raw_name: str, kind: str, suffix: str = "") -> list[str]:
        name = _metric_name(raw_name) + suffix
        if name not in families:
            families[name] = [f"# TYPE {name} {kind}"]
        return families[name]

    for key, value in snapshot.get("counters", {}).items():
        raw, labels = _parse_key(key)
        lines = family(raw, "counter", "_total")
        lines.append(
            f"{_metric_name(raw)}_total{_label_suffix(labels)} {_format_value(value)}"
        )
    for key, value in snapshot.get("gauges", {}).items():
        raw, labels = _parse_key(key)
        lines = family(raw, "gauge")
        lines.append(
            f"{_metric_name(raw)}{_label_suffix(labels)} {_format_value(value)}"
        )
    for key, payload in snapshot.get("histograms", {}).items():
        raw, labels = _parse_key(key)
        name = _metric_name(raw)
        lines = family(raw, "histogram")
        cumulative = 0
        for bound, count in zip(payload["bounds"], payload["counts"]):
            cumulative += count
            bucket_labels = dict(labels)
            bucket_labels["le"] = _format_value(float(bound))
            lines.append(
                f"{name}_bucket{_label_suffix(bucket_labels)} {cumulative}"
            )
        bucket_labels = dict(labels)
        bucket_labels["le"] = "+Inf"
        lines.append(
            f"{name}_bucket{_label_suffix(bucket_labels)} {payload['count']}"
        )
        lines.append(
            f"{name}_sum{_label_suffix(labels)} {_format_value(payload['total'])}"
        )
        lines.append(f"{name}_count{_label_suffix(labels)} {payload['count']}")
    return "".join(
        "\n".join(families[name]) + "\n" for name in sorted(families)
    )


#: One Prometheus sample line: name, optional {labels}, value.
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)$"
)
_LABEL_PAIR = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text: str) -> dict[str, dict]:
    """Validate and parse Prometheus exposition text back into samples.

    The strict inverse check for :func:`prometheus_text`: every
    non-comment line must be a well-formed sample whose family was
    declared by a preceding ``# TYPE`` line, values must parse as floats
    (``+Inf``/``-Inf``/``NaN`` included), and histogram families must
    carry ``_sum``/``_count`` series. Returns ``{family: {"type": kind,
    "samples": [(name, labels, value), ...]}}``; raises
    :class:`ValueError` on any malformation — the service smoke job
    uses this to assert ``/v1/metrics`` stays standards-valid.
    """
    families: dict[str, dict] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: malformed TYPE line {line!r}")
            _, _, name, kind = parts
            if kind not in ("counter", "gauge", "histogram", "summary", "untyped"):
                raise ValueError(f"line {lineno}: unknown metric type {kind!r}")
            if name in families:
                raise ValueError(f"line {lineno}: duplicate TYPE for {name!r}")
            families[name] = {"type": kind, "samples": []}
            continue
        if line.startswith("#"):
            continue  # HELP/comment lines are legal, uninterpreted
        match = _SAMPLE_LINE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        name = match.group("name")
        labels: dict[str, str] = {}
        raw_labels = match.group("labels")
        if raw_labels:
            matched_span = "".join(
                f'{k}="{v}",' for k, v in _LABEL_PAIR.findall(raw_labels)
            ).rstrip(",")
            if matched_span != raw_labels.rstrip(","):
                raise ValueError(f"line {lineno}: malformed labels {raw_labels!r}")
            labels = {k: v for k, v in _LABEL_PAIR.findall(raw_labels)}
        raw_value = match.group("value")
        try:
            value = float(raw_value.replace("+Inf", "inf").replace("-Inf", "-inf"))
        except ValueError as exc:
            raise ValueError(
                f"line {lineno}: bad sample value {raw_value!r}"
            ) from exc
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in families:
                family = name[: -len(suffix)]
                break
        if family not in families:
            raise ValueError(f"line {lineno}: sample {name!r} has no TYPE line")
        families[family]["samples"].append((name, labels, value))
    for name, payload in families.items():
        if payload["type"] != "histogram":
            continue
        sample_names = {sample[0] for sample in payload["samples"]}
        for required in (f"{name}_sum", f"{name}_count", f"{name}_bucket"):
            if required not in sample_names:
                raise ValueError(f"histogram {name!r} is missing {required}")
    return families


def write_prometheus(path: str | Path, snapshot: Mapping) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(prometheus_text(snapshot))
    return path
