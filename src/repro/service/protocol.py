"""The serving contract: request parsing and canonical result encoding.

Two invariants anchor this module, both pinned by tests:

* **Byte-stable responses.** A served selection/prediction must be
  *byte-identical* to a direct
  :func:`~repro.evaluation.runner.evaluate_method` call.
  :func:`selection_to_dict` / :func:`result_to_dict` are the canonical
  JSON projections, and :func:`pickle_digest` fingerprints the exact
  pickled object the engine produced, so a client (or a test) can verify
  the served bytes against a local evaluation without shipping pickles
  over the wire.
* **Typed failures.** Every malformed request raises
  :class:`~repro.utils.errors.BadRequestError` (or another
  :class:`~repro.utils.errors.SieveError` subtype) *before* any engine
  work happens; :func:`error_payload` renders any of them — including
  the structured ``context`` fields — into the JSON error body, and
  :func:`status_for` picks the HTTP status.

Requests either reference a catalog workload by label (full registry
path through the engine: select *and* predict) or carry an inline
profile table, which supports selection only (prediction needs a golden
reference measurement that an uploaded profile does not carry). Inline
CSV text is read from the request string by the one profile parser,
:class:`~repro.profiling.csv_io.ProfileTableReader`, so its errors name
``profile_csv`` and the line in the body; inline JSON rows are checked
here and assembled by the same column builder.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import math
import pickle
import types
import typing
from dataclasses import dataclass

import numpy as np

from repro.evaluation.runner import MethodResult
from repro.methods import MethodRequest, get_method
from repro.profiling.csv_io import (
    build_profile_table,
    check_int_fields,
    json_int,
    read_profile_csv,
)
from repro.profiling.table import ProfileTable
from repro.robustness.faults import parse_fault_plan
from repro.utils.errors import BadRequestError, SieveError
from repro.workloads.catalog import spec_for

#: Routes the server exposes; kept here so server, client and loadgen
#: agree on one spelling.
SELECT_ROUTE = "/v1/select"
PREDICT_ROUTE = "/v1/predict"
METHODS_ROUTE = "/v1/methods"
HEALTHZ_ROUTE = "/v1/healthz"
METRICS_ROUTE = "/v1/metrics"

#: Body fields accepted by POST /v1/select and /v1/predict. Anything
#: else is rejected loudly — silent typo tolerance ("chaos" vs "faults")
#: would corrupt experiments.
_REQUEST_FIELDS = frozenset(
    {
        "workload",
        "method",
        "config",
        "cap",
        "faults",
        "fault_seed",
        "profile_csv",
        "profile_rows",
    }
)

#: Methods whose selection needs only the profile table itself, making
#: them servable for inline (uploaded) profiles. PKS variants need the
#: golden reference for their k search, so label-referenced requests are
#: the only path to them.
INLINE_METHODS = ("periodic", "random", "sieve")


@dataclass(frozen=True)
class EvaluationRequest:
    """One parsed, validated ``/v1/select`` or ``/v1/predict`` request."""

    kind: str  # "select" | "predict"
    method: str
    workload: str | None  # catalog label; None for inline profiles
    cap: int | None
    config: object | None
    fault_plan: object | None  # FaultPlan | None
    table: ProfileTable | None = None  # inline profile, select-only

    @property
    def inline(self) -> bool:
        return self.table is not None

    def method_request(self) -> MethodRequest:
        return MethodRequest(method=self.method, config=self.config)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise BadRequestError(message)


def _reject_unknown(payload: dict, fields: typing.AbstractSet[str], where: str) -> None:
    """A 400 listing every key of ``payload`` that is not in ``fields``; its
    ``field`` context is the first of them in sorted order."""
    unknown = sorted(set(payload) - fields)
    if unknown:
        raise BadRequestError(
            f"unknown {where} field(s): {', '.join(unknown)}", field=unknown[0]
        )


def _is_int(value: object) -> bool:
    """A JSON integer; ``true``/``false`` decode to ``bool``, an ``int``."""
    return isinstance(value, int) and not isinstance(value, bool)


def config_from_dict(method_name: str, payload: object | None) -> object | None:
    """Build a method's typed config dataclass from a JSON object.

    ``None``/``{}`` mean method defaults. Unknown fields and type errors
    raise :class:`~repro.utils.errors.BadRequestError`; nested dataclass
    fields, which a config registered through
    :func:`~repro.methods.register_method` may have, recurse.
    """
    method = get_method(method_name)
    if payload is None or payload == {}:
        return None
    _require(
        isinstance(payload, dict),
        f"config must be a JSON object, got {type(payload).__name__}",
    )
    schema = method.config_schema
    if schema is None:
        raise BadRequestError(
            f"method {method_name!r} takes no config", method=method_name
        )
    return _build_dataclass(schema, payload, f"config for {method_name!r}")


def _build_dataclass(schema: type, payload: dict, where: str) -> object:
    hints = typing.get_type_hints(schema)
    fields = {f.name for f in dataclasses.fields(schema)}
    _reject_unknown(payload, fields, where)
    kwargs = {
        name: _typed_value(hints[name], value, where, name)
        for name, value in payload.items()
    }
    try:
        return schema(**kwargs)
    except SieveError:
        raise
    except (TypeError, ValueError) as exc:
        raise BadRequestError(f"invalid {where}: {exc}") from exc


#: How a config field's type reads in an error; anything else is a
#: nested config, which arrives as a JSON object.
_EXPECTED = {int: "an integer", float: "a finite number", str: "a string", type(None): "null"}


def _typed_value(annotation: object, value: object, where: str, name: str) -> object:
    """``value`` if it is what the field annotated ``annotation`` takes.

    A number never arrives as a JSON ``true``/``false``; an ``int`` field
    takes integers only, and a ``float`` field finite numbers only, since
    an infinity cannot be hashed into a cache key and a float that is no
    integer cannot size an array in a worker. ``null`` is accepted only
    for ``X | None``; a nested config dataclass arrives as an object.
    """
    options = (annotation,)
    if typing.get_origin(annotation) in (typing.Union, types.UnionType):
        options = typing.get_args(annotation)
    for option in options:
        if dataclasses.is_dataclass(option):
            if isinstance(value, dict):
                return _build_dataclass(option, value, f"{where}.{name}")
        elif option is float:
            if (isinstance(value, float) or _is_int(value)) and _finite(value):
                return value
        elif option is int:
            if _is_int(value):
                return value
        elif isinstance(option, type) and isinstance(value, option):
            return value
    expected = " or ".join(_EXPECTED.get(option, "an object") for option in options)
    raise BadRequestError(
        f"invalid {where}: {name} must be {expected}, got {_json_text(value)}", field=name
    )


def _finite(value: int | float) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond any float
        return False


def _json_text(value: object) -> str:
    """How ``value`` read in the request body, shortened for a message."""
    if isinstance(value, (list, dict)):
        return "an array" if isinstance(value, list) else "an object"
    text = json.dumps(value)
    return text if len(text) <= 40 else f"{text[:37]}..."


def table_from_rows(rows: object, workload: str) -> ProfileTable:
    """Build a Sieve-visible profile table from inline JSON rows.

    Each row is an object with ``kernel_name``, ``insn_count`` and
    optionally ``invocation_id`` (default: the kernel's next index),
    ``cta_size`` (128) and ``num_ctas`` (1).
    """
    _require(isinstance(rows, list) and len(rows) > 0, "profile_rows must be a non-empty list")
    parsed = []
    per_kernel_count: dict[str, int] = {}
    for i, row in enumerate(rows):
        _require(isinstance(row, dict), f"profile_rows[{i}] must be an object")
        try:
            name = str(row["kernel_name"])
            count = json_int(row["insn_count"], "insn_count")
        except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
            raise BadRequestError(
                f"profile_rows[{i}] needs kernel_name and integer insn_count: {exc}"
            ) from exc
        default_invocation = per_kernel_count.get(name, 0)
        per_kernel_count[name] = default_invocation + 1
        try:
            fields = (
                json_int(row.get("invocation_id", default_invocation), "invocation_id"),
                count,
                json_int(row.get("cta_size", 128), "cta_size"),
                json_int(row.get("num_ctas", 1), "num_ctas"),
            )
            check_int_fields(*fields)
        except (TypeError, ValueError, OverflowError) as exc:
            raise BadRequestError(f"profile_rows[{i}] has a bad integer field: {exc}") from exc
        parsed.append((name, *fields, ()))
    return build_profile_table(parsed, workload, [], {})


def table_from_csv(text: str) -> ProfileTable:
    """Parse inline CSV text with the profile reader; errors name ``profile_csv``."""
    _require(isinstance(text, str) and text.strip() != "", "profile_csv must be non-empty text")
    handle = io.StringIO(text, newline="")
    handle.name = "profile_csv"
    return read_profile_csv(handle)


def _require_total_fits(table: ProfileTable, source: str) -> None:
    """Reject a table whose instruction total falls outside int64.

    Each count fits (the reader checks rows), but their int64 sum
    would wrap and be served as ``total_instructions``. The exact total
    adds the counts' high and low 32-bit halves separately, sums that
    cannot overflow for any table a request can carry.
    """
    counts = table.insn_count
    total = (int(np.sum(counts >> 32)) << 32) + int(np.sum(counts & 0xFFFFFFFF))
    if not -(2**63) <= total < 2**63:
        raise BadRequestError(
            f"{source}: the total insn_count {total} is out of range for int64",
            field="insn_count",
        )


def parse_request(kind: str, payload: object) -> EvaluationRequest:
    """Validate a decoded JSON body into an :class:`EvaluationRequest`.

    Raises :class:`~repro.utils.errors.BadRequestError` (or the typed
    registry/fault errors, all 400-mapped) on any malformed field; a
    request that parses is guaranteed to resolve its method, config and
    workload/profile, so the dispatcher never mints a task that cannot
    run.
    """
    _require(kind in ("select", "predict"), f"unknown request kind {kind!r}")
    _require(isinstance(payload, dict), "request body must be a JSON object")
    _reject_unknown(payload, _REQUEST_FIELDS, "request")

    method = payload.get("method", "sieve")
    _require(isinstance(method, str) and method != "", "method must be a non-empty string")
    get_method(method)  # raises typed UnknownMethodError (400-mapped)
    config = config_from_dict(method, payload.get("config"))

    cap = payload.get("cap")
    if cap is not None:
        _require(_is_int(cap) and cap >= 1, "cap must be a positive integer")

    fault_plan = None
    seed = payload.get("fault_seed", 0)
    _require(_is_int(seed), "fault_seed must be an integer")
    faults = payload.get("faults")
    if faults is not None:
        _require(isinstance(faults, str), "faults must be a MODE:RATE[,...] string")
        fault_plan = parse_fault_plan(faults, seed=seed)

    label = payload.get("workload")
    inline_csv = payload.get("profile_csv")
    inline_rows = payload.get("profile_rows")
    sources = sum(x is not None for x in (label, inline_csv, inline_rows))
    _require(
        sources == 1,
        "exactly one of workload, profile_csv or profile_rows is required",
    )

    if label is not None:
        _require(isinstance(label, str), "workload must be a string label")
        try:
            spec = spec_for(label)
        except (SieveError, KeyError) as exc:
            raise BadRequestError(
                f"unknown workload {label!r}: {exc}", workload=label
            ) from exc
        if cap is not None and cap < spec.num_kernels:
            raise BadRequestError(
                f"cap {cap} is below one invocation per kernel: "
                f"{label} has {spec.num_kernels} kernels",
                field="cap",
                workload=label,
                num_kernels=spec.num_kernels,
            )
        return EvaluationRequest(
            kind=kind,
            method=method,
            workload=label,
            cap=cap,
            config=config,
            fault_plan=fault_plan,
        )

    # Inline profile: selection only, and only for methods that need
    # nothing beyond the table.
    _require(
        kind == "select",
        "prediction requires a catalog workload (an inline profile carries "
        "no golden reference measurement)",
    )
    _require(
        method in INLINE_METHODS,
        f"inline profiles support methods {', '.join(INLINE_METHODS)}; "
        f"{method!r} needs a full evaluation context",
    )
    _require(fault_plan is None, "faults apply to catalog workloads only")
    _require(cap is None, "cap applies to catalog workloads only")
    if inline_csv is not None:
        table = table_from_csv(inline_csv)
    else:
        table = table_from_rows(inline_rows, workload="inline")
    _require_total_fits(table, "profile_csv" if inline_csv is not None else "profile_rows")
    return EvaluationRequest(
        kind=kind,
        method=method,
        workload=None,
        cap=None,
        config=config,
        fault_plan=None,
        table=table,
    )


def select_inline(request: EvaluationRequest):
    """Run a table-only selection for an inline-profile request.

    The request's method selects through the registry, as for a catalog
    workload, on a context that holds only the uploaded table
    (:class:`~repro.streaming.base.AssembledContext`).
    """
    # Imported here: the server only parses requests and its workers
    # select, so the server process need not load the streaming package.
    from repro.streaming.base import AssembledContext

    method = get_method(request.method)
    context = AssembledContext(request.table.workload, request.table)
    return method.select(context, method.resolve_config(request.config))


# ---------------------------------------------------------- serialization


def pickle_digest(obj: object) -> str:
    """SHA-256 of the canonical pickle of ``obj``.

    The engine's determinism contract makes pickled results
    byte-identical across jobs=1/N and cache-warm runs, so this digest
    is a faithful fingerprint of the *exact* object a direct evaluation
    produces.
    """
    return hashlib.sha256(
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    ).hexdigest()


def selection_to_dict(selection) -> dict:
    """Canonical JSON projection of a :class:`SampleSelection`."""
    return {
        "workload": selection.workload,
        "method": selection.method,
        "num_invocations": int(selection.num_invocations),
        "total_instructions": int(selection.total_instructions),
        "num_representatives": int(selection.num_representatives),
        "representatives": [
            {
                "kernel_name": rep.kernel_name,
                "kernel_id": int(rep.kernel_id),
                "invocation_id": int(rep.invocation_id),
                "row": int(rep.row),
                "weight": float(rep.weight),
                "group": rep.group,
                "group_size": int(rep.group_size),
            }
            for rep in selection.representatives
        ],
    }


def result_to_dict(result: MethodResult) -> dict:
    """Canonical JSON projection of a full :class:`MethodResult`."""
    return {
        "workload": result.workload,
        "method": result.method,
        "error": float(result.error),
        "speedup": float(result.speedup),
        "num_representatives": int(result.num_representatives),
        "cycle_cov": float(result.cycle_cov),
        "predicted_cycles": float(result.predicted_cycles),
        "measured_cycles": int(result.measured_cycles),
        "attribution": (
            result.attribution.to_dict() if result.attribution is not None else None
        ),
    }


def response_body(request: EvaluationRequest, result) -> dict:
    """The ``result`` + digest half of a successful response.

    ``result`` is the task's :class:`MethodResult`, or for an inline
    request the selection itself (a table task's only result).
    """
    if request.kind == "select":
        selection = result if request.inline else result.selection
        return {
            "result": selection_to_dict(selection),
            "pickle_sha256": pickle_digest(selection),
        }
    return {
        "result": result_to_dict(result),
        "pickle_sha256": pickle_digest(result),
    }


# ---------------------------------------------------------- error mapping


def status_for(exc: BaseException) -> int:
    """The HTTP status a failed request maps onto.

    :class:`~repro.utils.errors.ServiceError` carries its own status;
    every other :class:`~repro.utils.errors.SieveError` raised while
    *parsing* is a client error (the server only calls this before
    engine dispatch — engine-side failures arrive as
    :class:`~repro.evaluation.engine.TaskOutcome`, not exceptions).
    """
    status = getattr(exc, "http_status", None)
    if isinstance(status, int):
        return status
    if isinstance(exc, SieveError):
        return 400
    return 500


def error_payload(exc: BaseException) -> dict:
    """The JSON error object for any failure, structured context included."""
    context = getattr(exc, "context", None) or {}
    return {
        "type": type(exc).__name__,
        "message": getattr(exc, "message", None) or str(exc),
        "context": {key: _jsonable(value) for key, value in sorted(context.items())},
    }


def _jsonable(value: object) -> object:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def outcome_error_payload(outcome) -> dict:
    """The JSON error object for a failed engine :class:`TaskOutcome`."""
    type_name = {
        "timeout": "TaskTimeoutError",
        "crash": "TaskCrashError",
        "quarantined": "QuarantinedTaskError",
    }.get(outcome.status, "EngineError")
    return {
        "type": type_name,
        "message": outcome.error or f"task failed with status {outcome.status!r}",
        "context": {
            "workload": outcome.label,
            "status": outcome.status,
            "attempts": outcome.attempts,
        },
    }


def outcome_status(outcome) -> int:
    """HTTP status for a failed engine outcome (503 quarantined, else 500)."""
    return 503 if outcome.status == "quarantined" else 500


def canonical_json(payload: object) -> str:
    """Deterministic JSON text: sorted keys, no float mangling."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))
