"""Run manifests: one JSON artifact describing one pipeline run.

A :class:`RunManifest` captures everything needed to ask "did this PR
make the pipeline slower or less accurate?": the command and its config,
the package version and source fingerprint (so a manifest is traceable
to exact code), cache hit/miss statistics, per-stage timing statistics
aggregated from :mod:`repro.observability.spans`, per-workload accuracy
rows, the metrics registry snapshot, structured events (e.g. a task that
failed) and any degraded-path diagnostics.

Manifests round-trip through JSON losslessly (``to_json``/``from_json``);
:func:`repro.perfstore.gate.gate_manifests` compares sets of them, and
the committed ``benchmarks/perfstore/`` snapshot stores them (without
their attribution) as the regression baselines.

Stage accounting: ``wall_s`` is inclusive; ``self_s`` subtracts the wall
time of *same-process* direct children, so the self times of all stages
sum to the instrumented total even with worker-shipped spans grafted in.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from repro.observability import metrics, spans
from repro.observability.export import record_to_dict as _span_dict

#: Bump when the manifest layout changes incompatibly.
MANIFEST_SCHEMA = 1


@lru_cache(maxsize=1)
def package_fingerprint() -> str:
    """Content hash of the installed ``repro`` package source."""
    import repro
    from repro.utils.hashing import tree_fingerprint

    return tree_fingerprint(Path(repro.__file__).resolve().parent)


def package_version() -> str:
    import repro

    return repro.__version__


# ------------------------------------------------------------------ events

_events: list[dict] = []


def record_event(kind: str, **fields) -> dict:
    """Record a structured, manifest-bound event (always on: events are
    rare and load-bearing — a task failure must reach the manifest even
    when tracing is disabled)."""
    event = {"kind": kind, **fields}
    _events.append(event)
    return event


def events(since: int = 0) -> tuple[dict, ...]:
    return tuple(_events[since:])


def events_mark() -> int:
    return len(_events)


def reset_events() -> None:
    _events.clear()


def extend_events(shipped: Iterable[Mapping]) -> None:
    """Merge events shipped from a worker process (engine fan-out merge)."""
    _events.extend(dict(event) for event in shipped)


# ------------------------------------------------------------------ stages


@dataclass(frozen=True)
class StageStat:
    """Aggregate timing of every span sharing one name."""

    name: str
    count: int
    wall_s: float  # inclusive
    self_s: float  # wall minus same-process direct children
    cpu_s: float
    errors: int = 0

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping) -> "StageStat":
        return cls(
            name=payload["name"],
            count=int(payload["count"]),
            wall_s=float(payload["wall_s"]),
            self_s=float(payload["self_s"]),
            cpu_s=float(payload["cpu_s"]),
            errors=int(payload.get("errors", 0)),
        )


def aggregate_stages(records: Iterable[spans.SpanRecord]) -> tuple[StageStat, ...]:
    """Group span records by name, computing inclusive and self time."""
    records = tuple(records)
    child_wall: dict[tuple[int, str], float] = {}
    for record in records:
        key = (record.parent_id, record.proc)
        child_wall[key] = child_wall.get(key, 0.0) + record.wall_s

    grouped: dict[str, list[float]] = {}
    for record in records:
        children = child_wall.get((record.span_id, record.proc), 0.0)
        self_s = max(0.0, record.wall_s - children)
        entry = grouped.setdefault(record.name, [0, 0.0, 0.0, 0.0, 0])
        entry[0] += 1
        entry[1] += record.wall_s
        entry[2] += self_s
        entry[3] += record.cpu_s
        entry[4] += 1 if record.error else 0
    return tuple(
        StageStat(
            name=name,
            count=entry[0],
            wall_s=entry[1],
            self_s=entry[2],
            cpu_s=entry[3],
            errors=entry[4],
        )
        for name, entry in sorted(grouped.items())
    )


# ---------------------------------------------------------------- manifest


@dataclass(frozen=True)
class RunManifest:
    """The JSON artifact for one run. See the module docstring."""

    command: str
    schema: int = MANIFEST_SCHEMA
    created: str = ""  # ISO-8601, set by the CLI; empty in tests
    package_version: str = ""
    source_fingerprint: str = ""
    config: dict = field(default_factory=dict)
    total_wall_s: float = 0.0
    total_cpu_s: float = 0.0
    stages: tuple[StageStat, ...] = ()
    workloads: tuple[dict, ...] = ()
    aggregates: dict = field(default_factory=dict)
    cache: dict | None = None
    metrics: dict = field(default_factory=dict)
    events: tuple[dict, ...] = ()
    diagnostics: tuple[dict, ...] = ()
    #: Raw span records (dict form) when the run asked for an exportable
    #: trace; empty by default — bench baselines stay lean.
    spans: tuple[dict, ...] = ()
    #: Per-workload prediction-error attributions
    #: (:meth:`repro.observability.attribution.ErrorAttribution.to_dict`).
    attribution: tuple[dict, ...] = ()

    def stage(self, name: str) -> StageStat | None:
        for stage in self.stages:
            if stage.name == name:
                return stage
        return None

    def stage_self_total(self) -> float:
        """Sum of per-stage self times (≈ instrumented wall time)."""
        return sum(stage.self_s for stage in self.stages)

    # ------------------------------------------------------- serialization

    def to_dict(self) -> dict:
        payload = asdict(self)
        payload["stages"] = [stage.to_dict() for stage in self.stages]
        payload["workloads"] = [dict(row) for row in self.workloads]
        payload["events"] = [dict(event) for event in self.events]
        payload["diagnostics"] = [dict(d) for d in self.diagnostics]
        payload["spans"] = [dict(record) for record in self.spans]
        payload["attribution"] = [dict(entry) for entry in self.attribution]
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, payload: Mapping) -> "RunManifest":
        return cls(
            command=payload["command"],
            schema=int(payload.get("schema", MANIFEST_SCHEMA)),
            created=payload.get("created", ""),
            package_version=payload.get("package_version", ""),
            source_fingerprint=payload.get("source_fingerprint", ""),
            config=dict(payload.get("config", {})),
            total_wall_s=float(payload.get("total_wall_s", 0.0)),
            total_cpu_s=float(payload.get("total_cpu_s", 0.0)),
            stages=tuple(
                StageStat.from_dict(stage) for stage in payload.get("stages", [])
            ),
            workloads=tuple(dict(row) for row in payload.get("workloads", [])),
            aggregates=dict(payload.get("aggregates", {})),
            cache=dict(payload["cache"]) if payload.get("cache") else None,
            metrics=dict(payload.get("metrics", {})),
            events=tuple(dict(event) for event in payload.get("events", [])),
            diagnostics=tuple(dict(d) for d in payload.get("diagnostics", [])),
            spans=tuple(dict(record) for record in payload.get("spans", [])),
            attribution=tuple(
                dict(entry) for entry in payload.get("attribution", [])
            ),
        )

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json())
        return path

    @classmethod
    def load(cls, path: str | Path) -> "RunManifest":
        return cls.from_json(Path(path).read_text())


def collect_manifest(
    command: str,
    *,
    config: Mapping | None = None,
    engine=None,  # duck-typed EvaluationEngine (avoids a layering cycle)
    workloads: Sequence[Mapping] = (),
    aggregates: Mapping | None = None,
    diagnostics: Sequence[Mapping] = (),
    since: int = 0,
    events_since: int = 0,
    total_wall_s: float | None = None,
    total_cpu_s: float | None = None,
    created: str = "",
    include_spans: bool = False,
    attribution: Sequence[Mapping] = (),
) -> RunManifest:
    """Assemble a manifest from the telemetry recorded since ``since``.

    ``total_wall_s`` defaults to the summed wall time of the root spans
    in the window (for the CLI that is the single span wrapping the
    command handler). ``include_spans=True`` embeds the window's raw
    span records so exporters (``trace export``) can rebuild a timeline
    from the saved manifest; ``attribution`` carries per-workload
    error-attribution dicts
    (:meth:`repro.observability.attribution.ErrorAttribution.to_dict`).
    """
    window = spans.records(since=since)
    if total_wall_s is None:
        total_wall_s = sum(r.wall_s for r in window if r.depth == 0 and r.proc == "main")
    if total_cpu_s is None:
        total_cpu_s = sum(r.cpu_s for r in window if r.depth == 0 and r.proc == "main")
    cache = None
    if engine is not None:
        stats = engine.cache_stats
        cache = {
            "jobs": engine.config.jobs,
            "enabled": stats is not None,
            "hits": stats.hits if stats else 0,
            "misses": stats.misses if stats else 0,
            "writes": stats.writes if stats else 0,
            "invalid": stats.invalid if stats else 0,
        }
        if engine.cache is not None:
            cache["directory"] = str(engine.cache.directory)
    return RunManifest(
        command=command,
        created=created,
        package_version=package_version(),
        source_fingerprint=package_fingerprint(),
        config=dict(config or {}),
        total_wall_s=total_wall_s,
        total_cpu_s=total_cpu_s,
        stages=aggregate_stages(window),
        workloads=tuple(dict(row) for row in workloads),
        aggregates=dict(aggregates or {}),
        cache=cache,
        metrics=metrics.get_registry().snapshot(),
        events=events(since=events_since),
        diagnostics=tuple(dict(d) for d in diagnostics),
        spans=tuple(
            _span_dict(record) for record in window
        )
        if include_spans
        else (),
        attribution=tuple(dict(entry) for entry in attribution),
    )
