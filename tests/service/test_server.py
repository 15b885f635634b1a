"""The HTTP surface end to end against a live in-process server."""

from __future__ import annotations

import http.client
import json
import os
import pickle
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.core.config import SieveConfig
from repro.evaluation.context import build_context
from repro.evaluation.engine import ResultCache
from repro.evaluation.runner import evaluate_method
from repro.observability.export import parse_prometheus
from repro.observability.metrics import get_registry
from repro.profiling.csv_io import read_profile_csv, write_profile_csv
from repro.service import protocol
from repro.service import server as server_mod
from repro.service.server import ServiceConfig, start_in_thread
from tests.service.conftest import Client


def test_healthz_reports_dispatcher_and_engine(client):
    status, body, _ = client.get("/v1/healthz")
    assert status == 200
    assert body["status"] == "ok"
    assert set(body["dispatcher"]) == {
        "requests", "coalesced", "batches", "failures"
    }
    assert body["engine"]["jobs"] == 1 and body["engine"]["use_cache"] is True


def test_methods_lists_the_full_registry(client):
    status, body, _ = client.get("/v1/methods")
    assert status == 200
    by_name = {entry["name"]: entry for entry in body["methods"]}
    assert set(by_name) == {"sieve", "pks", "pks-two-level", "periodic", "random"}
    assert by_name["sieve"]["config_schema"] == "SieveConfig"
    assert by_name["sieve"]["defaults"]["theta"] == 0.4
    assert by_name["pks-two-level"]["defaults"] == {"detailed_budget": 10000}


def test_served_predict_matches_direct_evaluation(client):
    payload = {"workload": "rodinia/nw", "method": "periodic", "cap": 200}
    status, body, _ = client.post("/v1/predict", payload)
    assert status == 200
    direct = evaluate_method("periodic", build_context("rodinia/nw", 200), None)
    assert body["result"] == protocol.result_to_dict(direct)
    assert body["pickle_sha256"] == protocol.pickle_digest(direct)
    assert body["request_id"].startswith("req-")
    assert body["telemetry"]["attempts"] >= 0

    status, body, _ = client.post("/v1/select", payload)
    assert status == 200
    assert body["result"] == protocol.selection_to_dict(direct.selection)
    assert body["pickle_sha256"] == protocol.pickle_digest(direct.selection)


def test_served_config_override_matches_direct(client):
    payload = {
        "workload": "rodinia/nw",
        "method": "sieve",
        "cap": 300,
        "config": {"theta": 0.8},
    }
    status, body, _ = client.post("/v1/predict", payload)
    assert status == 200
    direct = evaluate_method(
        "sieve", build_context("rodinia/nw", 300), SieveConfig(theta=0.8)
    )
    assert body["pickle_sha256"] == protocol.pickle_digest(direct)


def test_request_ids_are_unique(client):
    payload = {"workload": "rodinia/nw", "method": "periodic", "cap": 200}
    ids = {client.post("/v1/select", payload)[1]["request_id"] for _ in range(3)}
    assert len(ids) == 3


def test_inline_csv_selection_equivalence(client, tmp_path):
    table = build_context("rodinia/lud", 150).sieve_table
    path = tmp_path / "profile.csv"
    write_profile_csv(table, path)
    status, body, _ = client.post(
        "/v1/select", {"method": "sieve", "profile_csv": path.read_text()}
    )
    assert status == 200
    assert body["telemetry"]["inline"] is True
    from repro.core.pipeline import SievePipeline

    direct = SievePipeline(SieveConfig()).select(read_profile_csv(path))
    assert body["pickle_sha256"] == protocol.pickle_digest(direct)
    assert body["result"] == protocol.selection_to_dict(direct)


def test_inline_predict_is_a_400(client):
    status, body, _ = client.post(
        "/v1/predict",
        {"method": "sieve", "profile_rows": [{"kernel_name": "k", "insn_count": 1}]},
    )
    assert status == 400
    assert body["error"]["type"] == "BadRequestError"


@pytest.mark.parametrize(
    "route, payload, expected_type",
    [
        ("/v1/select", {"workload": "nope/nope"}, "BadRequestError"),
        ("/v1/select", {"workload": "rodinia/nw", "method": "zzz"}, "UnknownMethodError"),
        ("/v1/predict", {"workload": "rodinia/nw", "bogus": 1}, "BadRequestError"),
    ],
)
def test_client_errors_are_typed_400s(client, route, payload, expected_type):
    status, body, _ = client.post(route, payload)
    assert status == 400
    assert body["error"]["type"] == expected_type
    assert body["error"]["message"]


def post_raw(client, route, raw: str) -> tuple[int, dict]:
    client.connection.request(
        "POST", route, body=raw.encode(), headers={"Content-Length": str(len(raw))}
    )
    response = client.connection.getresponse()
    return response.status, json.loads(response.read())


ROW = {"kernel_name": "k", "insn_count": 5}


def rows_body(*rows) -> str:
    return json.dumps({"profile_rows": list(rows)})


@pytest.mark.parametrize(
    "raw, located",
    [
        (rows_body(ROW, {**ROW, "insn_count": 2**70}), "profile_rows[1]"),
        (rows_body(ROW, {**ROW, "cta_size": 3_000_000_000}), "profile_rows[1]"),
        ('{"profile_rows": [{"kernel_name": "k", "insn_count": 1e400}]}', "profile_rows[0]"),
        # Each count fits int64; their int64 sum would wrap negative.
        (rows_body(*[{**ROW, "insn_count": 2**62}] * 3), "profile_rows: the total insn_count"),
    ],
    ids=["insn-2**70", "cta-3e9", "insn-1e400", "insn-total-2**63"],
)
def test_out_of_range_inline_rows_are_typed_400s(client, raw, located):
    status, body = post_raw(client, "/v1/select", raw)
    assert status == 400
    assert body["error"]["type"] == "BadRequestError"
    assert located in body["error"]["message"]


#: An integer literal past Python's 4,300-digit conversion limit.
HUGE_LITERAL = "1" * 5000


@pytest.mark.parametrize(
    "raw",
    [
        '{"workload": "cactus/gru", "cap": %s}' % HUGE_LITERAL,
        '{"profile_rows": [{"kernel_name": "k", "insn_count": %s}]}' % HUGE_LITERAL,
    ],
    ids=["cap", "insn_count"],
)
def test_integer_literals_past_the_digit_limit_are_typed_400s(client, raw):
    status, body = post_raw(client, "/v1/select", raw)
    assert status == 400
    assert body["error"]["type"] == "BadRequestError"
    assert body["error"]["message"].startswith("request body is not valid JSON")


def test_inline_csv_instruction_total_beyond_int64_is_a_typed_400(client):
    csv = (
        "# workload,w,rows,3\n"
        "kernel_name,invocation_id,insn_count,cta_size,num_ctas\n"
        + "".join(f"k,{i},{2**62},128,1\n" for i in range(3))
    )
    status, body = post_raw(client, "/v1/select", json.dumps({"profile_csv": csv}))
    assert status == 400
    assert body["error"]["type"] == "BadRequestError"
    assert body["error"]["message"].startswith("profile_csv: the total insn_count")
    assert body["error"]["context"] == {"field": "insn_count"}
    # The largest total that fits is served.
    fits = rows_body({**ROW, "insn_count": 2**62}, {**ROW, "insn_count": 2**62 - 1})
    status, body = post_raw(client, "/v1/select", fits)
    assert status == 200
    assert body["result"]["total_instructions"] == 2**63 - 1


def test_out_of_range_inline_csv_is_a_typed_400(client):
    csv = (
        "# workload,w,rows,1\n"
        "kernel_name,invocation_id,insn_count,cta_size,num_ctas\n"
        f"k,0,{2**70},128,1\n"
    )
    status, body = post_raw(client, "/v1/select", json.dumps({"profile_csv": csv}))
    assert status == 400
    assert body["error"]["type"] == "ProfileError"
    assert body["error"]["context"]["row"] == 3


def test_inline_csv_errors_name_profile_csv_not_a_server_path(client):
    csv = (
        "# workload,w,rows,1\n"
        "kernel_name,invocation_id,insn_count,cta_size,num_ctas\n"
        "k,0,not-a-count,128,1\n"
    )
    raw = json.dumps({"profile_csv": csv})
    first, second = post_raw(client, "/v1/select", raw), post_raw(client, "/v1/select", raw)
    assert first[0] == second[0] == 400
    assert first[1]["error"] == second[1]["error"]
    assert first[1]["error"]["context"] == {"path": "profile_csv", "row": 3}


def test_oversized_inline_csv_field_is_a_typed_400(client):
    csv = (
        "# workload,w,rows,1\n"
        "kernel_name,invocation_id,insn_count,cta_size,num_ctas\n"
        + "k" * 131_073 + ",0,5,128,1\n"
    )
    status, body = post_raw(client, "/v1/select", json.dumps({"profile_csv": csv}))
    assert status == 400
    assert body["error"]["type"] == "ProfileError"
    assert body["error"]["context"] == {"path": "profile_csv", "row": 3}


def test_deeply_nested_body_is_a_400(client):
    raw = '{"profile_rows": ' + "[" * 100_000 + "]" * 100_000 + "}"
    status, body = post_raw(client, "/v1/select", raw)
    assert status == 400
    assert body["error"]["type"] == "BadRequestError"


def test_malformed_json_is_a_400(client):
    client.connection.request(
        "POST", "/v1/select", body=b"{nope",
        headers={"Content-Length": "5"},
    )
    response = client.connection.getresponse()
    body = json.loads(response.read())
    assert response.status == 400
    assert body["error"]["type"] == "BadRequestError"


def test_unknown_route_and_wrong_verb(client):
    status, body, _ = client.get("/v1/nope")
    assert status == 404 and body["error"]["type"] == "NotFoundError"
    status, body, _ = client.get("/v1/select")
    assert status == 405 and body["error"]["type"] == "MethodNotAllowedError"


def test_crashing_task_is_structured_500_sibling_unaffected(client):
    # crash:1.0 makes every attempt die in the supervised child; the
    # response must carry the typed engine error for *this* request.
    status, body, _ = client.post(
        "/v1/predict",
        {
            "workload": "rodinia/cfd",
            "method": "periodic",
            "cap": 150,
            "faults": "crash:1.0",
            "fault_seed": 11,
        },
    )
    assert status == 500
    assert body["error"]["type"] == "TaskCrashError"
    assert body["error"]["context"]["workload"] == "rodinia/cfd"
    assert body["error"]["context"]["attempts"] >= 1

    status, body, _ = client.post(
        "/v1/predict", {"workload": "rodinia/nw", "method": "periodic", "cap": 200}
    )
    assert status == 200


def test_pks_on_duplicated_rows_returns_before_the_deadline(tmp_path):
    # duplicate:1.0 leaves clusters of identical rows, whose bisection
    # used to repeat one split forever and hold the dispatcher's batch
    # thread until the task deadline; a short one bounds the wait here.
    handle = start_in_thread(
        ServiceConfig(cache_dir=str(tmp_path), deadline_s=30.0)
    )
    client = Client(handle.host, handle.port)
    try:
        status, body, _ = client.post(
            "/v1/select",
            {"workload": "cactus/gst", "method": "pks", "cap": 16,
             "faults": "duplicate:1.0"},
        )
    finally:
        client.close()
        handle.stop()
    assert status == 200, body


@pytest.mark.parametrize("config", [{"kmeans_iterations": 0}, {"kmeans_fit_sample": 0}])
def test_unusable_kmeans_config_is_a_400(client, config):
    status, body, _ = client.post(
        "/v1/select",
        {"workload": "cactus/gst", "method": "pks", "cap": 200, "config": config},
    )
    assert status == 400
    assert body["error"]["type"] == "BadRequestError"


def test_abrupt_disconnect_does_not_poison_the_server(service, client):
    # Half-send a request, then slam the socket shut mid-body.
    raw = socket.create_connection((service.host, service.port), timeout=10)
    raw.sendall(
        b"POST /v1/select HTTP/1.1\r\nContent-Length: 400\r\n\r\n{\"workload\":"
    )
    raw.close()
    status, body, _ = client.post(
        "/v1/select", {"workload": "rodinia/nw", "method": "periodic", "cap": 200}
    )
    assert status == 200


def test_metrics_expose_valid_prometheus_text(client):
    client.post("/v1/select", {"workload": "rodinia/nw", "method": "periodic", "cap": 200})
    status, text, content_type = client.get("/v1/metrics")
    assert status == 200
    assert content_type.startswith("text/plain")
    families = parse_prometheus(text)
    assert "service_requests_total" in families
    assert "service_latency_s" in families
    select_count = sum(
        value
        for name, labels, value in families["service_requests_total"]["samples"]
        if labels.get("route") == "/v1/select" and labels.get("status") == "200"
    )
    assert select_count >= 1


def test_a_service_loads_neither_the_perf_store_nor_the_fuzzer(tmp_path):
    """The server starts through the CLI and imports what serving needs:
    no ``repro.perfstore`` or ``repro.fuzz`` module."""
    code = (
        "import sys\n"
        "import repro.cli\n"
        "from repro.service.server import ServiceConfig, SieveService\n"
        f"service = SieveService(ServiceConfig(cache_dir={str(tmp_path)!r}))\n"
        "service.engine.close()\n"
        "print(sorted(m for m in sys.modules if m.startswith(('repro.perfstore', 'repro.fuzz'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_identical_served_results_are_cache_hits(client):
    payload = {"workload": "rodinia/srad", "method": "random", "cap": 200}
    first = client.post("/v1/predict", payload)[1]
    second = client.post("/v1/predict", payload)[1]
    assert second["telemetry"]["from_cache"] is True
    assert pickle.dumps(first["result"]) == pickle.dumps(second["result"])
    assert first["pickle_sha256"] == second["pickle_sha256"]


def test_each_served_request_counts_once_in_the_cache(tmp_path):
    """One miss and two repeats: the miss counts when its task is sent to
    run (not at each probe), and each repeat answered from the memo counts
    a hit, in the cache's stats and its metrics alike."""
    registry = get_registry()

    def counters() -> tuple[float, float]:
        return registry.counter("engine.cache.hit"), registry.counter("engine.cache.miss")

    before = counters()
    handle = start_in_thread(ServiceConfig(cache_dir=str(tmp_path)))
    client = Client(handle.host, handle.port)
    payload = {"workload": "rodinia/nw", "method": "periodic", "cap": 200}
    try:
        replies = [client.post("/v1/predict", payload)[1] for _ in range(3)]
    finally:
        client.close()
        handle.stop()
    assert [reply["telemetry"]["from_cache"] for reply in replies] == [False, True, True]
    stats = handle.service.engine.cache_stats
    assert (stats.hits, stats.misses, stats.writes) == (2, 1, 1)
    after = counters()
    assert (after[0] - before[0], after[1] - before[1]) == (2, 1)


def test_a_served_miss_closes_its_connection_when_asked(tmp_path):
    """The worker forked for a miss holds none of the server's sockets, so
    ``Connection: close`` ends the connection with the response, not when
    the worker exits."""
    handle = start_in_thread(ServiceConfig(cache_dir=str(tmp_path)))
    body = json.dumps({"workload": "rodinia/lud", "method": "periodic", "cap": 200})
    raw = socket.create_connection((handle.host, handle.port), timeout=30)
    try:
        raw.sendall(
            f"POST /v1/select HTTP/1.1\r\nConnection: close\r\n"
            f"Content-Length: {len(body)}\r\n\r\n{body}".encode()
        )
        received = b""
        while b"\r\n\r\n" not in received:
            received += raw.recv(65536)
        head, _, rest = received.partition(b"\r\n\r\n")
        length = int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0])
        while len(rest) < length:
            rest += raw.recv(65536)
        answered = time.monotonic()
        raw.settimeout(5.0)  # a socket a worker holds never reads EOF
        tail = raw.recv(65536)
        closed_after_s = time.monotonic() - answered
    finally:
        raw.close()
        handle.stop()
    assert head.startswith(b"HTTP/1.1 200 ")
    assert json.loads(rest)["telemetry"]["from_cache"] is False
    assert tail == b"" and closed_after_s < 1.0


@pytest.mark.parametrize("value", ["abc", "-5", "1e3"])
def test_malformed_content_length_is_a_typed_400(service, value):
    raw = socket.create_connection((service.host, service.port), timeout=30)
    try:
        raw.sendall(
            f"POST /v1/select HTTP/1.1\r\nContent-Length: {value}\r\n\r\n{{}}".encode()
        )
        received = b""
        while chunk := raw.recv(65536):  # the server closes after answering
            received += chunk
    finally:
        raw.close()
    head, _, body = received.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 ")
    error = json.loads(body)["error"]
    assert error["type"] == "BadRequestError"
    assert "Content-Length" in error["message"]
    assert error["context"] == {"header": "Content-Length"}


@pytest.mark.parametrize(
    "value, status",
    [("1" * 5000, 413), ("0" * 5000 + "2", 400)],
    ids=["5000-digits", "leading-zeros"],
)
def test_content_length_is_read_as_its_number_however_long(service, caplog, value, status):
    """Past 4,300 digits ``int()`` refuses a string; the header is still
    the number it spells: over the limit is a 413, and ``00…02`` reads
    the two-byte body (whose missing workload is a 400)."""
    raw = socket.create_connection((service.host, service.port), timeout=30)
    try:
        raw.sendall(
            f"POST /v1/select HTTP/1.1\r\nContent-Length: {value}\r\n"
            "Connection: close\r\n\r\n{}".encode()
        )
        received = b""
        while chunk := raw.recv(65536):  # the server closes after answering
            received += chunk
    finally:
        raw.close()
    head, _, body = received.partition(b"\r\n\r\n")
    assert head.startswith(f"HTTP/1.1 {status} ".encode())
    error = json.loads(body)["error"]
    assert error["type"] == "BadRequestError"
    if status == 413:
        assert error["context"] == {"limit_bytes": server_mod.MAX_BODY_BYTES}
    assert not [record for record in caplog.records if record.name == "asyncio"]


@pytest.mark.parametrize(
    "head",
    [
        b"GET /v1/healthz HTTP/1.1\r\nX-Big: " + b"x" * 70_000 + b"\r\n\r\n",
        b"GET /v1/healthz?q=" + b"x" * 70_000 + b" HTTP/1.1\r\n\r\n",
    ],
    ids=["header", "query-string"],
)
def test_over_long_line_is_a_typed_400(service, client, head):
    raw = socket.create_connection((service.host, service.port), timeout=30)
    received = b""
    try:
        raw.sendall(head)
        while chunk := raw.recv(65536):  # the server closes after answering
            received += chunk
    except ConnectionResetError:
        pass  # closed with the rest of the line unread; the answer came first
    finally:
        raw.close()
    response, _, body = received.partition(b"\r\n\r\n")
    assert response.startswith(b"HTTP/1.1 400 ")
    error = json.loads(body)["error"]
    assert error["type"] == "BadRequestError"
    assert error["context"] == {"limit_bytes": 65536}
    assert "65536" in error["message"]
    status, _, _ = client.get("/v1/healthz")
    assert status == 200


def post_bytes(service, route: str, payload: dict) -> tuple[int, bytes]:
    connection = http.client.HTTPConnection(service.host, service.port, timeout=120)
    try:
        body = json.dumps(payload).encode()
        connection.request(
            "POST", route, body=body, headers={"Content-Length": str(len(body))}
        )
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


@pytest.mark.parametrize("route", [protocol.SELECT_ROUTE, protocol.PREDICT_ROUTE])
def test_repeated_hits_return_the_canonical_bytes_of_the_full_body(
    service, monkeypatch, route
):
    payload = {"workload": "rodinia/gaussian", "method": "sieve", "cap": 250}
    direct = evaluate_method("sieve", build_context("rodinia/gaussian", 250), None)
    if route == protocol.SELECT_ROUTE:
        kind, expected = "select", protocol.selection_to_dict(direct.selection)
        digest = protocol.pickle_digest(direct.selection)
    else:
        kind, expected = "predict", protocol.result_to_dict(direct)
        digest = protocol.pickle_digest(direct)
    encodings, reads = [], []
    real_response_body = protocol.response_body
    monkeypatch.setattr(
        protocol,
        "response_body",
        lambda request, result: encodings.append(1) or real_response_body(request, result),
    )
    real_get = ResultCache.get
    monkeypatch.setattr(
        ResultCache, "get", lambda cache, key: reads.append(key) or real_get(cache, key)
    )
    replies, reads_per_reply = [], []
    for _ in range(3):
        before = len(reads)
        replies.append(post_bytes(service, route, payload))
        reads_per_reply.append(len(reads) - before)
    for status, raw in replies:
        assert status == 200
        body = json.loads(raw)
        # The bytes the server built before the memo: canonical_json of
        # the whole response dict.
        assert raw == protocol.canonical_json(body).encode("utf-8")
        assert set(body) == {
            "request_id", "kind", "method", "workload", "result",
            "pickle_sha256", "telemetry",
        }
        assert (body["kind"], body["method"]) == (kind, "sieve")
        assert body["workload"] == "rodinia/gaussian"
        assert body["result"] == expected
        assert body["pickle_sha256"] == digest
        assert set(body["telemetry"]) == {"from_cache", "attempts", "inline", "wall_s"}
    assert [json.loads(raw)["telemetry"]["from_cache"] for _, raw in replies[1:]] == [True, True]
    assert len(encodings) == 1  # encoded once, then served from the memo
    assert reads_per_reply[1:] == [0, 0]  # and answered without reading the cache


def test_a_label_struck_out_after_its_result_was_memoized_is_quarantined(tmp_path):
    payload = {"workload": "rodinia/nw", "method": "periodic", "cap": 120}
    handle = start_in_thread(ServiceConfig(cache_dir=str(tmp_path)))
    client = Client(handle.host, handle.port)
    try:
        first = client.post("/v1/select", payload)
        memoized = client.post("/v1/select", payload)
        quarantine = handle.service.engine.quarantine
        for _ in range(quarantine.threshold):
            quarantine.strike("task", "rodinia/nw")
        struck = client.post("/v1/select", payload)
    finally:
        client.close()
        handle.stop()
    assert first[0] == memoized[0] == 200
    assert memoized[1]["telemetry"]["from_cache"] is True
    status, body, _ = struck
    assert status == 503
    assert body["error"]["type"] == "QuarantinedTaskError"
    assert body["error"]["context"]["workload"] == "rodinia/nw"


def test_a_server_without_a_cache_runs_every_request(tmp_path):
    payload = {"workload": "rodinia/nw", "method": "periodic", "cap": 130}
    handle = start_in_thread(ServiceConfig(cache_dir=str(tmp_path), use_cache=False))
    client = Client(handle.host, handle.port)
    try:
        bodies = [client.post("/v1/predict", payload)[1] for _ in range(3)]
    finally:
        client.close()
        handle.stop()
    assert [(b["telemetry"]["from_cache"], b["telemetry"]["attempts"]) for b in bodies] == [
        (False, 1)
    ] * 3
    assert len({b["pickle_sha256"] for b in bodies}) == 1


def test_theta_sweep_on_a_warm_worker_matches_direct(tmp_path):
    """Each θ re-runs one workload in the same worker, reusing the context
    its first request built; every digest is the in-process one."""
    thetas = (0.3, 0.55, 0.8)
    payload = {"workload": "rodinia/lud", "method": "sieve", "cap": 260}
    handle = start_in_thread(ServiceConfig(cache_dir=str(tmp_path)))
    try:
        client = Client(handle.host, handle.port)
        try:
            bodies = [
                client.post("/v1/predict", dict(payload, config={"theta": theta}))[1]
                for theta in thetas
            ]
        finally:
            client.close()
        [worker] = handle.service.engine._workers._idle
    finally:
        handle.stop()
    assert worker.proc.exitcode == 0
    telemetry = [(b["telemetry"]["from_cache"], b["telemetry"]["attempts"]) for b in bodies]
    assert telemetry == [(False, 1)] * 3
    # Evaluated in-process only now, so the worker built its own context.
    context = build_context("rodinia/lud", 260)
    for theta, body in zip(thetas, bodies):
        direct = evaluate_method("sieve", context, SieveConfig(theta=theta))
        assert body["pickle_sha256"] == protocol.pickle_digest(direct)
        assert body["result"] == protocol.result_to_dict(direct)


def test_response_memo_never_exceeds_its_bound(tmp_path, monkeypatch):
    monkeypatch.setattr(server_mod, "MEMO_ENTRIES", 2)
    handle = start_in_thread(ServiceConfig(cache_dir=str(tmp_path)))
    try:
        sizes = []
        for cap in (101, 102, 103, 101):
            payload = {"workload": "rodinia/nw", "method": "periodic", "cap": cap}
            assert post_bytes(handle, protocol.SELECT_ROUTE, payload)[0] == 200
            sizes.append(len(handle.service._encoded))
    finally:
        handle.stop()
    assert sizes == [1, 2, 2, 2]


def test_cap_below_the_kernel_count_is_a_400_that_strikes_nothing(tmp_path):
    # cactus/lmc has 58 kernels; a cap of 57 cannot give each one
    # invocation. It used to reach a worker, fail there as a 500, and on
    # the second try quarantine the label for every client.
    handle = start_in_thread(ServiceConfig(cache_dir=str(tmp_path)))
    client = Client(handle.host, handle.port)
    select = {"workload": "cactus/lmc", "method": "periodic"}
    try:
        too_small = [client.post("/v1/select", {**select, "cap": 57}) for _ in range(2)]
        valid = client.post("/v1/select", {**select, "cap": 1000})
        one_each = client.post("/v1/select", {**select, "cap": 58})
        strikes = handle.service.engine.quarantine.entries()
    finally:
        client.close()
        handle.stop()
    for status, body, _ in too_small:
        assert status == 400
        assert body["error"]["type"] == "BadRequestError"
        assert body["error"]["context"] == {
            "field": "cap", "num_kernels": 58, "workload": "cactus/lmc"
        }
    assert valid[0] == 200 and one_each[0] == 200
    assert strikes == []


def test_a_non_integer_grid_is_a_400_that_strikes_nothing(tmp_path):
    # A fractional period must not reach a worker: failing there on every
    # attempt, the second request would quarantine cactus/gru for everyone.
    handle = start_in_thread(ServiceConfig(cache_dir=str(tmp_path)))
    client = Client(handle.host, handle.port)
    payload = {
        "workload": "cactus/gru", "method": "periodic", "cap": 1000,
        "config": {"period": 100.5},
    }
    try:
        replies = [client.post("/v1/select", payload) for _ in range(2)]
        strikes = handle.service.engine.quarantine.entries()
    finally:
        client.close()
        handle.stop()
    for status, body, _ in replies:
        assert status == 400
        assert body["error"]["type"] == "BadRequestError"
        assert body["error"]["context"] == {"field": "period"}
    assert strikes == []


#: Settings that are constants of their method, not config fields.
DELETED_FIELDS = [
    ("sieve", {"kde_grid_points": 512}),
    ("sieve", {"kde_bandwidth_scale": 1.0}),
    ("pks", {"max_k": 20000}),
    ("pks", {"variance_target": 0.9}),
    ("pks", {"kmeans_iterations": 50}),
    ("pks", {"kmeans_fit_sample": None}),
    ("pks-two-level", {"pks": {"max_k": 20}}),
    ("periodic", {"offset": 0}),
]


def test_a_deleted_config_field_is_a_400_that_strikes_nothing(tmp_path):
    handle = start_in_thread(ServiceConfig(cache_dir=str(tmp_path)))
    client = Client(handle.host, handle.port)
    try:
        replies = [
            (field, client.post("/v1/select", {
                "workload": "cactus/gru", "method": method, "cap": 1000, "config": config,
            }))
            for method, config in DELETED_FIELDS
            for field in config
            for _ in range(2)
        ]
        strikes = handle.service.engine.quarantine.entries()
    finally:
        client.close()
        handle.stop()
    for field, (status, body, _) in replies:
        assert status == 400
        assert body["error"]["type"] == "BadRequestError"
        assert body["error"]["message"].endswith(f"field(s): {field}")
        assert body["error"]["context"] == {"field": field}
    assert strikes == []


@pytest.mark.parametrize(
    "extra, field",
    [({"cap": True}, "cap"), ({"faults": "drop:0.1", "fault_seed": True}, "fault_seed")],
)
def test_boolean_integers_are_a_400(client, extra, field):
    status, body, _ = client.post(
        "/v1/select", {"workload": "rodinia/nw", "method": "periodic", **extra}
    )
    assert status == 400
    assert body["error"]["type"] == "BadRequestError"
    assert field in body["error"]["message"]

