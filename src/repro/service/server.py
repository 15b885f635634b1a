"""The asyncio HTTP/1.1 front end for sampling-as-a-service.

Stdlib only: requests are parsed straight off :mod:`asyncio` streams
(request line, headers, ``Content-Length`` body; keep-alive supported)
— no web framework, because the protocol surface is five routes and the
interesting machinery lives in :mod:`repro.service.batching` and the
shared :class:`~repro.evaluation.engine.EvaluationEngine` behind it.

Routes::

    POST /v1/select    selection for a catalog label or inline profile
    POST /v1/predict   full evaluate_method round trip (catalog only)
    GET  /v1/methods   the sampling-method registry, with defaults
    GET  /v1/healthz   liveness + dispatcher/engine counters
    GET  /v1/metrics   Prometheus textfile exposition (PR-5 exporter)

Two entry points: :meth:`SieveService.serve` runs in the current event
loop (the CLI ``sieve-repro serve`` path), and :func:`start_in_thread`
boots a server on a background thread with its own loop and returns a
:class:`ServiceHandle` — the harness used by tests, the loadgen
``--spawn`` mode and the CI smoke script.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import json
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

from repro.evaluation.engine import (
    EngineConfig,
    EvaluationEngine,
    EvaluationTask,
    RetryPolicy,
)
from repro.methods import method_entries
from repro.observability.export import prometheus_text
from repro.observability.metrics import get_registry, inc, observe
from repro.service import protocol
from repro.service.batching import BatchingDispatcher
from repro.utils.errors import BadRequestError, ServiceError, SieveError

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Results kept encoded for repeated requests, least recently used first
#: out: (cache key, kind) -> (JSON of ``result``, digest).
MEMO_ENTRIES = 256

#: The longest request line or header line read, in bytes: asyncio's
#: default stream limit, passed explicitly so the 400 can name it.
LINE_LIMIT = 64 * 1024


@dataclass(frozen=True)
class ServiceConfig:
    """Everything the server needs: socket, batching and engine knobs."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port lands on the handle
    window_s: float = 0.005  # micro-batching window
    max_batch: int = 32
    jobs: int = 1  # isolated worker processes (the parallelism within a batch)
    use_cache: bool = True
    cache_dir: str | None = None
    quarantine_threshold: int = 2
    max_attempts: int = 2
    deadline_s: float = 120.0  # per-attempt wall clock for a task
    max_body_bytes: int = 32 * 1024 * 1024

    def engine_config(self) -> EngineConfig:
        return EngineConfig(
            jobs=self.jobs,
            use_cache=self.use_cache,
            cache_dir=self.cache_dir,
            quarantine_threshold=self.quarantine_threshold,
            retry=RetryPolicy(
                max_attempts=self.max_attempts, deadline_s=self.deadline_s
            ),
        )


class SieveService:
    """One server instance: engine + dispatcher + asyncio socket server."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        engine: EvaluationEngine | None = None,
    ):
        self.config = config or ServiceConfig()
        # Zero-init the perfstore counter families so /v1/metrics exposes
        # perfstore_* even before any ingest/lookup/gate happens.
        from repro.perfstore.store import register_metrics as _register_perfstore

        _register_perfstore()
        self._owns_engine = engine is None
        self.engine = engine or EvaluationEngine(self.config.engine_config())
        self.dispatcher = BatchingDispatcher(
            self.engine,
            window_s=self.config.window_s,
            max_batch=self.config.max_batch,
        )
        self.host: str | None = None
        self.port: int | None = None
        self._requests_served = 0
        self._request_counter = 0
        self._started_at: float | None = None
        self._clients: set[asyncio.Task] = set()
        self._encoded: OrderedDict[tuple[str, str], tuple[str, str]] = OrderedDict()

    async def serve(
        self,
        *,
        started: threading.Event | None = None,
        stop: asyncio.Event | None = None,
    ) -> None:
        """Bind, accept connections and run until ``stop`` is set.

        With ``stop=None`` the server runs until cancelled (the CLI
        foreground mode — Ctrl-C cancels ``asyncio.run``).
        """
        await self.dispatcher.start()
        server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port, limit=LINE_LIMIT
        )
        sockname = server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        self._started_at = time.monotonic()
        if started is not None:
            started.set()
        try:
            async with server:
                if stop is not None:
                    await stop.wait()
                else:
                    await asyncio.Event().wait()  # forever, until cancelled
        finally:
            # Keep-alive connections park in readline(); cancel them so
            # the loop can close cleanly.
            for client in list(self._clients):
                client.cancel()
            if self._clients:
                await asyncio.gather(*self._clients, return_exceptions=True)
            await self.dispatcher.close()
            if self._owns_engine:
                # Stop the workers with the server; an injected engine
                # stays open for its owner (close is idempotent either way).
                self.engine.close()

    # -------------------------------------------------------- connection IO

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._clients.add(task)
        try:
            while True:
                request_line = await _read_line(reader)
                if not request_line:
                    break
                parts = request_line.decode("latin-1").strip().split()
                if len(parts) != 3:
                    await self._respond(writer, 400, self._error_body(
                        BadRequestError("malformed HTTP request line")))
                    break
                verb, target, _version = parts
                headers: dict[str, str] = {}
                while True:
                    line = await _read_line(reader)
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                length_text = headers.get("content-length", "0") or "0"
                if not (length_text.isascii() and length_text.isdigit()):
                    await self._respond(writer, 400, self._error_body(
                        BadRequestError(
                            "Content-Length must be a non-negative decimal integer",
                            header="Content-Length",
                        )))
                    break
                length = int(length_text)
                if length > self.config.max_body_bytes:
                    await self._respond(writer, 413, self._error_body(
                        BadRequestError(
                            "request body too large",
                            limit_bytes=self.config.max_body_bytes,
                        )))
                    break
                body = await reader.readexactly(length) if length else b""
                try:
                    status, payload, content_type = await self._route(
                        verb, target, body
                    )
                except Exception as exc:  # last-resort: never drop the socket
                    status = 500
                    payload = self._error_body(exc)
                    content_type = "application/json"
                self._requests_served += 1
                await self._respond(writer, status, payload, content_type)
                if headers.get("connection", "").lower() == "close":
                    break
        except BadRequestError as exc:  # a line past LINE_LIMIT: answer, then close
            with contextlib.suppress(ConnectionResetError, BrokenPipeError):
                await self._respond(writer, 400, self._error_body(exc))
        except (asyncio.IncompleteReadError, ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-request; nothing to answer
        except asyncio.CancelledError:
            pass  # server shutting down
        finally:
            if task is not None:
                self._clients.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: object,
        content_type: str = "application/json",
    ) -> None:
        if isinstance(payload, (bytes, bytearray)):
            body = bytes(payload)
        else:
            body = protocol.canonical_json(payload).encode("utf-8")
        reason = _REASONS.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: keep-alive\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    # ------------------------------------------------------------- routing

    async def _route(
        self, verb: str, target: str, body: bytes
    ) -> tuple[int, object, str]:
        path = target.split("?", 1)[0]
        t0 = time.perf_counter()
        if path == protocol.HEALTHZ_ROUTE:
            status, payload, ctype = self._check_verb(verb, "GET") or (
                200, self._healthz(), "application/json")
        elif path == protocol.METHODS_ROUTE:
            status, payload, ctype = self._check_verb(verb, "GET") or (
                200, self._methods(), "application/json")
        elif path == protocol.METRICS_ROUTE:
            status, payload, ctype = self._check_verb(verb, "GET") or (
                200,
                prometheus_text(get_registry().snapshot()).encode("utf-8"),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        elif path in (protocol.SELECT_ROUTE, protocol.PREDICT_ROUTE):
            checked = self._check_verb(verb, "POST")
            if checked is not None:
                status, payload, ctype = checked
            else:
                kind = "select" if path == protocol.SELECT_ROUTE else "predict"
                status, payload = await self._evaluate(kind, body)
                ctype = "application/json"
        else:
            status, payload, ctype = 404, self._error_body(
                ServiceError("no such route", http_route=path)), "application/json"
            payload["error"]["type"] = "NotFoundError"
        inc("service.requests", route=path, status=str(status))
        observe("service.latency_s", time.perf_counter() - t0, route=path)
        return status, payload, ctype

    def _check_verb(self, verb: str, expected: str):
        if verb == expected:
            return None
        body = self._error_body(
            ServiceError(f"use {expected} for this route", got=verb))
        body["error"]["type"] = "MethodNotAllowedError"
        return 405, body, "application/json"

    def _error_body(self, exc: BaseException, request_id: str | None = None) -> dict:
        body: dict = {"error": protocol.error_payload(exc)}
        if request_id is not None:
            body["request_id"] = request_id
        return body

    def _healthz(self) -> dict:
        uptime = 0.0
        if self._started_at is not None:
            uptime = time.monotonic() - self._started_at
        return {
            "status": "ok",
            "uptime_s": round(uptime, 3),
            "requests": self._requests_served,
            "dispatcher": self.dispatcher.stats.to_dict(),
            "engine": {
                "jobs": self.engine.config.jobs,
                "use_cache": self.engine.config.use_cache,
            },
        }

    def _methods(self) -> dict:
        entries = []
        for entry in method_entries():
            default = entry.default_config()
            entries.append(
                {
                    "name": entry.name,
                    "description": entry.description,
                    "config_schema": (
                        entry.config_schema.__name__
                        if entry.config_schema is not None
                        else None
                    ),
                    "defaults": (
                        dataclasses.asdict(default)
                        if dataclasses.is_dataclass(default)
                        else None
                    ),
                }
            )
        return {"methods": entries}

    # ---------------------------------------------------------- evaluation

    async def _evaluate(self, kind: str, body: bytes) -> tuple[int, dict | bytes]:
        self._request_counter += 1
        request_id = f"req-{self._request_counter:06d}"
        t0 = time.perf_counter()
        try:
            try:
                payload = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
                raise BadRequestError(f"request body is not valid JSON: {exc}") from exc
            request = protocol.parse_request(kind, payload)
            task = _task_for(request)
            key = task.cache_key()
            outcome = await self.dispatcher.submit(task, key)
        except SieveError as exc:
            inc("service.errors", type=type(exc).__name__)
            return protocol.status_for(exc), self._error_body(exc, request_id)
        if not outcome.ok:
            body = {
                "request_id": request_id,
                "error": protocol.outcome_error_payload(outcome),
            }
            return protocol.outcome_status(outcome), body
        result_json, digest = self._encode(request, key, outcome[request.method])
        head = {
            "kind": request.kind,
            "method": request.method,
            "pickle_sha256": digest,
            "request_id": request_id,
        }
        tail = {
            "telemetry": {
                "from_cache": outcome.from_cache,
                "attempts": outcome.attempts,
                "inline": request.inline,
                "wall_s": round(time.perf_counter() - t0, 6),
            },
            "workload": request.table.workload if request.inline else request.workload,
        }
        # canonical_json sorts keys, and "result" sorts between the head's
        # keys and the tail's: joining the three gives the bytes
        # canonical_json would give for the whole dict.
        return 200, (
            protocol.canonical_json(head)[:-1]
            + ',"result":'
            + result_json
            + ","
            + protocol.canonical_json(tail)[1:]
        ).encode("utf-8")

    def _encode(
        self, request: protocol.EvaluationRequest, key: str, result
    ) -> tuple[str, str]:
        """The JSON of ``result``'s projection and its digest, computed once
        per (cache key, kind) while the entry stays among ``MEMO_ENTRIES``."""
        memo_key = (key, request.kind)
        entry = self._encoded.get(memo_key)
        if entry is not None:
            self._encoded.move_to_end(memo_key)
            return entry
        body = protocol.response_body(request, result)
        entry = (protocol.canonical_json(body["result"]), body["pickle_sha256"])
        self._encoded[memo_key] = entry
        if len(self._encoded) > MEMO_ENTRIES:
            self._encoded.popitem(last=False)
        return entry


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """One request or header line; a line past ``LINE_LIMIT`` is a
    :class:`BadRequestError` rather than the stream's ``ValueError``."""
    try:
        return await reader.readline()
    except ValueError as exc:
        raise BadRequestError(
            f"request line or header line longer than {LINE_LIMIT} bytes",
            limit_bytes=LINE_LIMIT,
        ) from exc


def _task_for(request: protocol.EvaluationRequest) -> EvaluationTask:
    """The engine task that answers ``request``.

    An inline profile travels in its task by value. Its label is derived
    from the table's digest, so a table that keeps crashing its worker
    quarantines itself and no other upload.
    """
    if request.inline:
        return EvaluationTask(
            label=f"inline/{request.table.digest()[:16]}",
            methods=(request.method_request(),),
            table=request.table,
        )
    return EvaluationTask(
        label=request.workload,
        max_invocations=request.cap,
        methods=(request.method_request(),),
        fault_plan=request.fault_plan,
    )


# ------------------------------------------------------- background thread


@dataclass
class ServiceHandle:
    """A running background server: address + orderly shutdown."""

    service: SieveService
    thread: threading.Thread
    _loop: asyncio.AbstractEventLoop
    _stop: asyncio.Event

    @property
    def host(self) -> str:
        return self.service.host or self.service.config.host

    @property
    def port(self) -> int:
        assert self.service.port is not None
        return self.service.port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stop(self, timeout_s: float = 15.0) -> None:
        if self.thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop.set)
            self.thread.join(timeout=timeout_s)
        if self.thread.is_alive():  # pragma: no cover - shutdown stuck
            raise ServiceError("service thread did not stop", timeout_s=timeout_s)

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_in_thread(
    config: ServiceConfig | None = None,
    engine: EvaluationEngine | None = None,
    *,
    startup_timeout_s: float = 30.0,
) -> ServiceHandle:
    """Boot a server on a dedicated thread/event loop and wait for bind."""
    service = SieveService(config, engine)
    started = threading.Event()
    box: dict[str, object] = {}

    def runner() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        stop = asyncio.Event()
        box["loop"] = loop
        box["stop"] = stop
        try:
            loop.run_until_complete(service.serve(started=started, stop=stop))
        finally:
            loop.close()
            started.set()  # unblock the caller even on startup failure

    thread = threading.Thread(
        target=runner, name="sieve-service", daemon=True
    )
    thread.start()
    started.wait(timeout=startup_timeout_s)
    if service.port is None:
        raise ServiceError(
            "service failed to start", timeout_s=startup_timeout_s
        )
    return ServiceHandle(
        service=service,
        thread=thread,
        _loop=box["loop"],  # type: ignore[arg-type]
        _stop=box["stop"],  # type: ignore[arg-type]
    )
