"""The incremental sampling surface: contexts, events, stream base class.

A :class:`MethodStream` is one in-progress incremental selection:
``observe(chunk)`` folds a profile chunk in (returning any emit/retract
events it triggered), ``finalize()`` closes the stream and returns the
method's usual :class:`~repro.core.types.SampleSelection`. Methods that
have no true incremental implementation get :class:`BufferingStream`,
which buffers every chunk and delegates to ``select`` at finalize — the
honest fallback, with an honestly O(rows) resident footprint that the
``streaming.high_water_rows`` gauge makes visible.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.observability import metrics
from repro.profiling.table import ProfileTable, concat_profile_tables
from repro.utils.errors import StreamingError
from repro.utils.validation import require

if TYPE_CHECKING:
    from repro.core.types import SampleSelection
    from repro.methods.base import SamplingMethod


@dataclass(frozen=True)
class StreamEvent:
    """One emit or retract of a representative pick, mid-stream.

    ``weight`` is the pick's weight *estimate at the time the event
    fired* — weights drift as more of the stream arrives, and only the
    finalized selection's weights are authoritative. ``rows_seen`` is the
    stream position (rows observed so far) when the event fired.
    """

    seq: int
    kind: str  # "emit" | "retract"
    group: str
    kernel_name: str
    row: int
    invocation_id: int
    weight: float
    rows_seen: int


@dataclass(frozen=True)
class StreamContext:
    """What a method stream knows about the world.

    ``batch`` optionally carries the full
    :class:`~repro.evaluation.context.WorkloadContext` when the stream is
    driven over an already-materialized workload (the evaluation path);
    feed-driven streams leave it ``None`` and buffering fallbacks then
    assemble a context from the chunks themselves.
    """

    workload: str
    batch: object | None = None
    #: Rows a bounded stream keeps per kernel (``None``: every row). Every
    #: method's stream is given one through this context, so it is checked
    #: here, before any row is folded.
    reservoir_rows: int | None = None
    #: Emit/retract StreamEvents as picks change mid-stream (costs a
    #: per-chunk refresh of the touched kernels' picks).
    collect_events: bool = False

    def __post_init__(self) -> None:
        require(
            self.reservoir_rows is None or self.reservoir_rows >= 1,
            f"reservoir_rows must be at least 1, got {self.reservoir_rows}",
            StreamingError,
        )


def note_resident_rows(rows: int) -> None:
    """Record the stream's resident row count and raise the high-water gauge."""
    metrics.set_gauge("streaming.resident_rows", rows)
    registry = metrics.get_registry()
    if rows > registry.gauges.get("streaming.high_water_rows", 0.0):
        metrics.set_gauge("streaming.high_water_rows", rows)


def iter_table_chunks(
    table: ProfileTable, chunk_rows: int
) -> Iterator[ProfileTable]:
    """Slice ``table`` into chronological chunks of ``chunk_rows`` rows."""
    require(chunk_rows >= 1, "chunk_rows must be >= 1", StreamingError)
    for start in range(0, len(table), chunk_rows):
        yield table.slice_rows(start, min(start + chunk_rows, len(table)))


class MethodStream(ABC):
    """One in-progress incremental selection for one method."""

    def __init__(self, context: StreamContext):
        self.context = context
        self.events: list[StreamEvent] = []
        self.rows_seen = 0
        self._finalized = False

    # ------------------------------------------------------------------ #
    # Public surface

    def observe(
        self, chunk: ProfileTable, rows: np.ndarray | None = None
    ) -> list[StreamEvent]:
        """Fold one profile chunk in; returns the events it triggered.

        ``rows`` optionally names each invocation's global row index in
        the stream (for out-of-order delivery); by default rows are
        numbered sequentially in arrival order. Within one kernel, rows
        must arrive in chronological order — the contract every pick
        policy's "first invocation" semantics rest on.
        """
        require(
            not self._finalized, "observe() after finalize()", StreamingError
        )
        if rows is not None:
            rows = np.asarray(rows, dtype=np.int64)
            require(
                len(rows) == len(chunk),
                "explicit row indices must align with the chunk",
                StreamingError,
            )
        before = len(self.events)
        metrics.inc("streaming.chunks")
        metrics.inc("streaming.rows", len(chunk))
        self._observe(chunk, rows)
        self.rows_seen += len(chunk)
        note_resident_rows(self.resident_rows)
        return self.events[before:]

    def finalize(self) -> SampleSelection:
        """Close the stream and return the method's selection."""
        require(not self._finalized, "finalize() twice", StreamingError)
        self._finalized = True
        return self._finalize()

    @property
    def resident_rows(self) -> int:
        """Rows currently held in memory by this stream."""
        return 0

    # ------------------------------------------------------------------ #
    # Subclass surface

    @abstractmethod
    def _observe(self, chunk: ProfileTable, rows: np.ndarray | None) -> None:
        """Fold one chunk into the stream's state."""

    @abstractmethod
    def _finalize(self) -> SampleSelection:
        """Build the final selection."""

    def _record(
        self,
        kind: str,
        *,
        group: str,
        kernel_name: str,
        row: int,
        invocation_id: int,
        weight: float,
    ) -> StreamEvent:
        event = StreamEvent(
            seq=len(self.events),
            kind=kind,
            group=group,
            kernel_name=kernel_name,
            row=int(row),
            invocation_id=int(invocation_id),
            weight=float(weight),
            rows_seen=self.rows_seen,
        )
        self.events.append(event)
        metrics.inc(f"streaming.{kind}s")
        return event


class AssembledContext:
    """Duck-typed workload context that holds only a profile table.

    Stands in for :class:`~repro.evaluation.context.WorkloadContext`
    when a method's ``select`` runs on a table alone: a buffering
    fallback over a feed-driven stream, or an uploaded profile the
    service selects from (:func:`repro.service.protocol.select_inline`).
    Only the profile tables exist; anything else a method asks for (the
    golden measurement included) raises a typed :class:`StreamingError`.
    """

    def __init__(self, label: str, table: ProfileTable):
        self.label = label
        self._table = table

    @property
    def sieve_table(self) -> ProfileTable:
        if self._table.metrics is None:
            return self._table
        return self._table.without_metrics()

    @property
    def pks_table(self) -> ProfileTable:
        require(
            self._table.metrics is not None,
            "the profile carries no metric columns; PKS-style methods need "
            "the 12-metric profile",
            StreamingError,
        )
        return self._table

    def __getattr__(self, name: str):
        raise StreamingError(
            f"a table-only context cannot supply {name!r}; "
            "this method needs a full workload context",
            workload=self.label,
        )


class BufferingStream(MethodStream):
    """Fallback stream: buffer every chunk, delegate to ``select``.

    This is the default ``begin_stream`` implementation — correct for
    every method, incremental for none. Its resident footprint is the
    whole stream, which ``streaming.high_water_rows`` reports honestly.
    """

    def __init__(
        self,
        method: SamplingMethod,
        context: StreamContext,
        config: object | None,
    ):
        super().__init__(context)
        self.method = method
        self.config = config
        self._chunks: list[ProfileTable] = []

    @property
    def resident_rows(self) -> int:
        return sum(len(chunk) for chunk in self._chunks)

    def _observe(self, chunk: ProfileTable, rows: np.ndarray | None) -> None:
        require(
            rows is None or bool(np.all(np.diff(rows) > 0)),
            "buffering fallback requires in-order chunks",
            StreamingError,
        )
        self._chunks.append(chunk)

    def _finalize(self) -> SampleSelection:
        require(self._chunks, "stream observed no rows", StreamingError)
        if self.context.batch is not None:
            context = self.context.batch
        else:
            context = AssembledContext(
                self.context.workload, concat_profile_tables(self._chunks)
            )
        return self.method.select(context, self.config)
