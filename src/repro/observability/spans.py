"""Structured tracing: ``span("stage", **attrs)`` context managers.

A span measures one pipeline stage: wall time (``time.perf_counter``),
CPU time (``time.process_time``) and nesting (parent/depth), plus
arbitrary JSON-able attributes. Finished spans land in a process-global,
bounded record list that :mod:`repro.observability.manifest` aggregates
into per-stage statistics.

Design constraints, in order:

* **Zero overhead when off.** With ``SIEVE_OBS=off`` (or
  :func:`repro.observability.state.set_enabled` ``(False)``) ``span()``
  returns one shared null context manager — no allocation, no clock
  reads. The no-op-overhead test in
  ``tests/observability/test_spans.py`` pins this.
* **Exception safe.** A span closes (and records the exception type in
  its ``error`` field) even when its body raises; the stack always
  unwinds, so one failing stage cannot corrupt the trace of the next.
* **Picklable records.** Worker processes ship their span records back
  to the parent through the evaluation engine's worker pipes;
  :func:`adopt` grafts them under the parent's fan-out span with fresh
  ids and a ``proc`` tag so self-time accounting stays per-process.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Iterable

from repro.observability import state

#: Upper bound on retained span records; older records are dropped FIFO
#: (with a count kept) so week-long sessions cannot grow without bound.
MAX_RECORDS = 500_000


@dataclass(frozen=True)
class SpanRecord:
    """One finished span. ``wall_s``/``cpu_s`` are durations, not stamps.

    ``start_s`` is the span's ``perf_counter`` reading at entry — an
    arbitrary-origin, *per-process* stamp. Exporters that lay spans on a
    timeline (:mod:`repro.observability.export`) normalize it per track;
    deterministic (structural) exports exclude it entirely.
    """

    name: str
    wall_s: float
    cpu_s: float
    span_id: int
    parent_id: int  # -1 for a root span
    depth: int
    error: str | None = None  # exception type name if the body raised
    proc: str = "main"  # "main", or "worker" for worker-shipped spans
    attrs: dict = field(default_factory=dict)
    start_s: float = 0.0  # per-process perf_counter stamp at __enter__


class _NullSpan:
    """Shared do-nothing context manager for disabled observability."""

    __slots__ = ()

    span_id = -1

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()

#: A forked child gets a fresh lock: engine workers fork while supervisor
#: threads open spans, and a copy taken mid-span would block its reset.
_lock = threading.Lock()
os.register_at_fork(after_in_child=_lock._at_fork_reinit)
_records: list[SpanRecord] = []
_dropped = 0
_next_id = 0
_tls = threading.local()

#: Live sinks notified of every *in-process* finished span (adopted
#: worker records are skipped — their originating process already
#: streamed them). See :class:`repro.observability.export.JsonlStreamSink`.
_sinks: list = []


def add_sink(sink) -> None:
    """Register a live sink; it must expose ``emit(record: SpanRecord)``."""
    _sinks.append(sink)


def remove_sink(sink) -> None:
    try:
        _sinks.remove(sink)
    except ValueError:
        pass


def clear_sinks() -> None:
    """Drop every registered sink (workers after fork, tests)."""
    _sinks.clear()


def _stack() -> list[int]:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    return stack


def _allocate_id() -> int:
    global _next_id
    with _lock:
        span_id = _next_id
        _next_id += 1
    return span_id


def _append(record: SpanRecord) -> None:
    global _dropped
    with _lock:
        _records.append(record)
        if len(_records) > MAX_RECORDS:
            overflow = len(_records) - MAX_RECORDS
            del _records[:overflow]
            _dropped += overflow
    if _sinks and record.proc == "main":
        for sink in _sinks:
            sink.emit(record)


class _Span:
    """A live span; created by :func:`span`, recorded on ``__exit__``."""

    __slots__ = ("name", "attrs", "span_id", "parent_id", "depth", "_wall0", "_cpu0")

    def __init__(self, name: str, attrs: dict):
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_Span":
        stack = _stack()
        self.span_id = _allocate_id()
        self.parent_id = stack[-1] if stack else -1
        self.depth = len(stack)
        stack.append(self.span_id)
        self._cpu0 = time.process_time()
        self._wall0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        wall = time.perf_counter() - self._wall0
        cpu = time.process_time() - self._cpu0
        stack = _stack()
        # Unwind to (and past) this span even if an inner span leaked.
        while stack and stack[-1] != self.span_id:
            stack.pop()
        if stack:
            stack.pop()
        _append(
            SpanRecord(
                name=self.name,
                wall_s=wall,
                cpu_s=cpu,
                span_id=self.span_id,
                parent_id=self.parent_id,
                depth=self.depth,
                error=None if exc_type is None else exc_type.__name__,
                attrs=self.attrs,
                start_s=self._wall0,
            )
        )
        return False  # never swallow the body's exception


def span(name: str, **attrs) -> _Span | _NullSpan:
    """Open a span named ``name``; use as a context manager.

    >>> from repro.observability import spans
    >>> mark = spans.mark()
    >>> with spans.span("doctest.outer"):
    ...     with spans.span("doctest.inner", k=1):
    ...         pass
    >>> [r.name for r in spans.records(since=mark)]
    ['doctest.inner', 'doctest.outer']
    """
    if not state.enabled():
        return _NULL_SPAN
    return _Span(name, attrs)


def open_spans() -> tuple[int, ...]:
    """Ids of this thread's open spans, outermost first."""
    return tuple(_stack())


def nest_under(open_ids: tuple[int, ...]) -> None:
    """Open this thread's next spans under another thread's
    :func:`open_spans`; a new thread's spans would otherwise be roots."""
    _tls.stack = list(open_ids)


def mark() -> int:
    """A position in the record list; pass to ``records(since=...)``.

    Marks taken before records were dropped under :data:`MAX_RECORDS`
    pressure degrade gracefully (they clamp to the oldest retained
    record).
    """
    with _lock:
        return len(_records) + _dropped


def records(since: int = 0) -> tuple[SpanRecord, ...]:
    """Finished spans (completion order), optionally from a mark on."""
    with _lock:
        start = max(0, since - _dropped)
        return tuple(_records[start:])


def dropped() -> int:
    """Records evicted so far under the :data:`MAX_RECORDS` bound."""
    return _dropped


def reset() -> None:
    """Drop all records and live-stack state (tests, workers)."""
    global _dropped, _next_id
    with _lock:
        _records.clear()
        _dropped = 0
        _next_id = 0
    _tls.stack = []


def adopt(
    shipped: Iterable[SpanRecord], parent_id: int = -1, proc: str = "worker"
) -> tuple[SpanRecord, ...]:
    """Graft records shipped from another process into this one.

    Ids are reassigned from this process's counter (preserving the
    internal parent/child links of the batch); roots of the shipped batch
    are re-parented under ``parent_id``; every record is tagged ``proc``
    so self-time accounting never subtracts cross-process children.
    """
    shipped = tuple(shipped)
    id_map = {record.span_id: _allocate_id() for record in shipped}
    adopted = []
    for record in shipped:
        adopted.append(
            replace(
                record,
                span_id=id_map[record.span_id],
                parent_id=id_map.get(record.parent_id, parent_id),
                proc=proc,
            )
        )
    for record in adopted:
        _append(record)
    # _append only streams in-process ("main") records; adopted batches
    # are streamed here instead, in adoption order — the engine adopts in
    # task input order, so the stream stays deterministic under --jobs.
    if _sinks:
        for record in adopted:
            for sink in _sinks:
                sink.emit(record)
    return tuple(adopted)


def capture_spans() -> "_SpanCapture":
    """Context manager collecting the spans finished inside it (tests).

    >>> with capture_spans() as caught:
    ...     with span("doctest.captured"):
    ...         pass
    >>> [r.name for r in caught]
    ['doctest.captured']
    """
    return _SpanCapture()


class _SpanCapture:
    __slots__ = ("_mark", "_caught")

    def __enter__(self) -> list[SpanRecord]:
        self._mark = mark()
        self._caught: list[SpanRecord] = []
        return self._caught

    def __exit__(self, *exc) -> bool:
        self._caught.extend(records(since=self._mark))
        return False
