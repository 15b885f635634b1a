"""Diagnostics channel for graceful-degradation warnings.

When a pipeline stage survives bad input by taking a documented fallback
(kernel-mean imputation, uniform weights, clamped counters) it must say
so — silently degraded predictions are worse than crashes. Stages call
:func:`emit`; every record lands in a bounded in-memory channel that
callers can inspect (:func:`records`), subscribe to (:func:`subscribe` —
the CLI installs a stderr printer), or capture in a scope
(:func:`capture_diagnostics` — what tests use).

The channel is process-global and append-ordered; it is *not* a logging
framework. It exists so that "the run completed" and "the run completed
but 14 representatives were imputed" are distinguishable programmatically.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

#: Diagnostic severities, mildest first.
SEVERITIES = ("info", "warning", "error")

#: Upper bound on retained records; older records are evicted FIFO.
MAX_RECORDS = 10_000


@dataclass(frozen=True)
class Diagnostic:
    """One degraded-path event emitted by a pipeline stage."""

    severity: str  # one of SEVERITIES
    source: str  # e.g. "sieve.predict", "csv.read", "stratify"
    message: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.source}: {self.message}"


_records: deque[Diagnostic] = deque(maxlen=MAX_RECORDS)
_sinks: list[Callable[[Diagnostic], None]] = []


def emit(source: str, message: str, severity: str = "warning") -> Diagnostic:
    """Record a diagnostic and forward it to all subscribed sinks."""
    if severity not in SEVERITIES:
        raise ValueError(f"unknown severity {severity!r}")
    record = Diagnostic(severity=severity, source=source, message=message)
    _records.append(record)
    for sink in list(_sinks):
        sink(record)
    return record


def records() -> tuple[Diagnostic, ...]:
    """All retained diagnostics, oldest first."""
    return tuple(_records)


def clear() -> None:
    """Drop all retained diagnostics (sinks stay subscribed)."""
    _records.clear()


def clear_sinks() -> None:
    """Drop every subscribed sink (workers after fork)."""
    _sinks.clear()


def subscribe(sink: Callable[[Diagnostic], None]) -> Callable[[], None]:
    """Add a sink called on every future emit; returns an unsubscriber."""
    _sinks.append(sink)

    def unsubscribe() -> None:
        if sink in _sinks:
            _sinks.remove(sink)

    return unsubscribe


@contextmanager
def capture_diagnostics() -> Iterator[list[Diagnostic]]:
    """Collect diagnostics emitted inside the ``with`` block.

    >>> with capture_diagnostics() as caught:
    ...     _ = emit("doctest", "fallback taken")
    >>> [c.source for c in caught]
    ['doctest']
    """
    caught: list[Diagnostic] = []
    unsubscribe = subscribe(caught.append)
    try:
        yield caught
    finally:
        unsubscribe()
