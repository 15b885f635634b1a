"""Shared helpers for the benchmark harness.

Benches regenerate the paper's tables and figures at full Table I scale
and print the rows/series the paper reports. Output goes through ``emit``,
whose writer is swapped by ``conftest.py`` to bypass pytest's capture so
``pytest benchmarks/ --benchmark-only`` shows the regenerated data
alongside the timings.

The comparison benches (fig3/fig4/fig6/fig8) share one
:class:`~repro.evaluation.engine.EvaluationEngine`, configured from the
environment:

* ``SIEVE_BENCH_JOBS`` — worker processes (default 1 = serial);
* ``SIEVE_BENCH_CACHE_DIR`` — result cache location (default: a fresh
  per-run temp dir, so fig4/fig6 reuse fig3's results within one run
  without ever reading stale state from a previous one);
* ``SIEVE_BENCH_NO_CACHE=1`` — disable the cache entirely (every bench
  then recomputes from scratch, the pre-engine behaviour);
* ``SIEVE_BENCH_MANIFEST_DIR`` — when set, comparison benches write a
  ``BENCH_<figure>.json`` run manifest there (per-stage timings +
  accuracy rows + error attributions), plus a ``TRACE_<figure>.json``
  Chrome trace and an ``ATTRIBUTION_<figure>.json`` dump; the CI
  ``bench-regression`` job gates three runs per figure with
  ``sieve-repro report --against`` the committed
  ``benchmarks/perfstore/`` snapshot and uploads the traces and
  attributions as artifacts.
"""

from __future__ import annotations

import atexit
import os
import tempfile
import time
from pathlib import Path
from typing import Callable

from repro.evaluation.engine import EngineConfig, EvaluationEngine
from repro.evaluation.reporting import experiment_row_dict
from repro.observability import manifest as obs_manifest
from repro.observability import spans as obs_spans

#: None = full Table I scale (the default used for reported results).
#: ``SIEVE_BENCH_CAP`` overrides for quick smoke runs.
_cap_env = os.environ.get("SIEVE_BENCH_CAP", "")
SCALE_CAP: int | None = int(_cap_env) if _cap_env else None

JOBS = int(os.environ.get("SIEVE_BENCH_JOBS", "1"))
NO_CACHE = os.environ.get("SIEVE_BENCH_NO_CACHE", "") not in ("", "0")

_writer: Callable[[str], None] = print
_engine: EvaluationEngine | None = None


def shared_engine() -> EvaluationEngine:
    """The evaluation engine every comparison bench routes through.

    Closed via ``atexit`` (idempotent) so the worker processes it forks
    never outlive the pytest process.
    """
    global _engine
    if _engine is None:
        configured = os.environ.get("SIEVE_BENCH_CACHE_DIR")
        cache_dir = (
            Path(configured)
            if configured
            else Path(tempfile.mkdtemp(prefix="sieve-bench-cache-"))
        )
        _engine = EvaluationEngine(
            EngineConfig(jobs=JOBS, use_cache=not NO_CACHE, cache_dir=cache_dir)
        )
        atexit.register(_engine.close)
    return _engine


def set_writer(writer: Callable[[str], None]) -> None:
    """Install the output writer (used by conftest to bypass capture)."""
    global _writer
    _writer = writer


def emit(text: str) -> None:
    """Print harness output through the installed writer."""
    _writer(text)


def banner(title: str) -> None:
    emit("")
    emit("=" * 78)
    emit(title)
    emit("=" * 78)


def engine_summary() -> str:
    """One-line cache/jobs report for bench footers."""
    engine = shared_engine()
    stats = engine.cache_stats
    cache = stats.summary() if stats is not None else "disabled"
    return f"engine: jobs={engine.config.jobs}, cache {cache}"


def manifest_mark() -> tuple[int, int, float, float]:
    """Snapshot telemetry cursors before a bench's measured work."""
    return (
        obs_spans.mark(),
        obs_manifest.events_mark(),
        time.perf_counter(),
        time.process_time(),
    )


def write_bench_manifest(
    figure: str,
    rows,
    aggregates: dict,
    mark: tuple[int, int, float, float],
) -> Path | None:
    """Write ``BENCH_<figure>.json`` to ``SIEVE_BENCH_MANIFEST_DIR``.

    No-op (returns None) when the env var is unset, so plain bench runs
    stay artifact-free. ``rows`` are ExperimentRows; the manifest window
    is everything recorded since ``mark`` (see :func:`manifest_mark`).
    Alongside the manifest, the bench's span window is exported as a
    ``TRACE_<figure>.json`` Chrome trace and its per-kernel error
    attributions as ``ATTRIBUTION_<figure>.json``.
    """
    directory = os.environ.get("SIEVE_BENCH_MANIFEST_DIR")
    if not directory:
        return None
    import json

    from repro.evaluation.experiments import collect_attributions
    from repro.observability.export import write_chrome_trace

    since, events_since, wall_start, cpu_start = mark
    attribution = collect_attributions(rows)
    manifest = obs_manifest.collect_manifest(
        f"bench {figure}",
        config={"cap": SCALE_CAP, "jobs": JOBS},
        engine=shared_engine(),
        workloads=[experiment_row_dict(row) for row in rows],
        aggregates={key: float(value) for key, value in aggregates.items()},
        since=since,
        events_since=events_since,
        total_wall_s=time.perf_counter() - wall_start,
        total_cpu_s=time.process_time() - cpu_start,
        attribution=attribution,
    )
    path = manifest.save(Path(directory) / f"BENCH_{figure}.json")
    emit(f"manifest: {path}")
    # Record the run into the performance version store when
    # SIEVE_PERFSTORE_DIR is set (each repeat becomes one sample for the
    # statistical regression gate; failures degrade to diagnostics).
    from repro.perfstore.store import maybe_record

    maybe_record(manifest, figure=figure)
    window = obs_spans.records()[since:]
    if window:
        trace_path = write_chrome_trace(Path(directory) / f"TRACE_{figure}.json", window)
        emit(f"trace: {trace_path}")
    if attribution:
        attr_path = Path(directory) / f"ATTRIBUTION_{figure}.json"
        attr_path.write_text(json.dumps(attribution, indent=2, sort_keys=True) + "\n")
        emit(f"attribution: {attr_path}")
    return path
