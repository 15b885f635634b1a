"""Typed exception hierarchy for the reproduction.

Every invariant failure inside the library raises a :class:`SieveError`
subclass so callers can catch failures per pipeline stage (profile
ingestion vs selection vs prediction vs engine scheduling) without
string matching. The hierarchy deliberately subclasses
:class:`ValueError`: historical call sites (and tests) that catch
``ValueError`` keep working unchanged.

Beyond a message, every :class:`SieveError` carries structured
``context`` fields — machine-readable key/value pairs naming *what* the
error is about (a workload label, a cache key, an attempt count) — so
supervisors like the fuzz campaign and the resilient engine can log,
aggregate and quarantine failures without parsing strings::

    raise EngineError("task exceeded deadline", label="fuzz/s1-i00042",
                      deadline_s=30.0, attempt=2)
"""

from __future__ import annotations


class SieveError(ValueError):
    """Base class for all errors raised by the reproduction library.

    ``context`` holds structured fields describing the failure site;
    ``None``-valued fields are dropped so call sites can pass optional
    context unconditionally. The rendered message appends the context as
    a stable, sorted ``[key=value, ...]`` suffix.
    """

    def __init__(self, message: str, **context: object):
        self.message = message
        self.context = {k: v for k, v in context.items() if v is not None}
        rendered = message
        if self.context:
            fields = ", ".join(
                f"{key}={value!r}" for key, value in sorted(self.context.items())
            )
            rendered = f"{message} [{fields}]"
        super().__init__(rendered)


class ProfileError(SieveError):
    """Malformed or unreadable profiler output (CSV files, tables).

    Carries the offending file path and 1-based row number when known so
    users can locate the corruption in multi-million-row profiles.
    """

    def __init__(
        self,
        message: str,
        *,
        path: str | None = None,
        row: int | None = None,
    ):
        self.path = path
        self.row = row
        # Location renders as a prefix (historical format, pinned by
        # tests); it is *also* carried as structured context.
        prefix = ""
        if path is not None:
            prefix = f"{path}:"
            if row is not None:
                prefix += f"row {row}:"
            prefix += " "
        elif row is not None:
            prefix = f"row {row}: "
        super(SieveError, self).__init__(prefix + message)
        self.message = message
        self.context = {
            k: v for k, v in {"path": path, "row": row}.items() if v is not None
        }


class SelectionError(SieveError):
    """Representative selection failed (empty table, degenerate strata)."""


class PredictionError(SieveError):
    """Performance prediction failed (no usable measurements at all)."""


class FaultInjectionError(SieveError):
    """A fault-injection request was malformed (unknown mode, bad rate)."""


class EngineError(SieveError):
    """The parallel evaluation engine was misused (bad jobs count,
    unknown method name in a task, unusable cache directory)."""


class TaskTimeoutError(EngineError):
    """An isolated task attempt exceeded its wall-clock deadline.

    Context: ``label``, ``deadline_s``, ``attempt``.
    """


class TaskCrashError(EngineError):
    """An isolated task's worker process died without reporting a result
    (segfault, ``os._exit``, OOM kill). Context: ``label``, ``exitcode``,
    ``attempt``."""


class QuarantinedTaskError(EngineError):
    """A task was skipped because its cache key is quarantined after
    repeated failures. Context: ``label``, ``key``, ``reason``."""


class MethodRegistryError(SieveError):
    """The sampling-method registry was misused (duplicate registration,
    malformed method class, bad entry point)."""


class UnknownMethodError(MethodRegistryError, EngineError):
    """A sampling method name does not resolve in the registry.

    Raised by :func:`repro.methods.get_method` and by
    :meth:`repro.evaluation.engine.EvaluationTask.cache_key` — a task must
    fail loudly here rather than mint a cache key for a method that can
    never run. Subclasses :class:`EngineError` so engine-level callers
    that catch the engine's typed error keep working.
    """


class MethodConfigError(MethodRegistryError):
    """A method was handed a config of the wrong type for its schema."""


class ServiceError(SieveError):
    """The sampling service was misused or failed internally.

    Base class for everything :mod:`repro.service` raises; carries the
    HTTP status the server should answer with so the error-mapping layer
    stays a single table-free ``except`` clause."""

    #: HTTP status the server maps this error onto.
    http_status: int = 500


class BadRequestError(ServiceError):
    """A service request was malformed (bad JSON, unknown field, a
    method/config combination that cannot be built). Always a client
    error: maps to HTTP 400."""

    http_status = 400


class ServiceUnavailableError(ServiceError):
    """The service cannot take the request right now (shutting down,
    task quarantined after repeated failures). Maps to HTTP 503."""

    http_status = 503


class StreamingError(SieveError):
    """The incremental sampling surface was misused (a feed that cannot
    satisfy the method's requirements, observe after finalize, a
    buffering fallback asked for context it was never given)."""


class FuzzError(SieveError):
    """The fuzzing campaign was misconfigured or hit an invariant failure
    (bad budget, mutation producing an unconstructible spec)."""


class CheckpointError(FuzzError):
    """A campaign checkpoint is unreadable or belongs to a different
    campaign configuration. Context: ``path``, plus the mismatching
    fields when known."""


class PerfStoreError(SieveError):
    """The performance version store was misused or is corrupt (unknown
    version, unreadable object, index/schema mismatch, a revision that
    resolves to nothing). Context: ``store`` plus the offending key."""


class PromotionError(FuzzError):
    """Promoting fuzz findings into the adversarial catalog failed
    (unreadable findings, a label collision that cannot be uniquified,
    an entry whose pinned error no longer reproduces)."""
