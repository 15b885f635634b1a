"""The HTTP surface end to end against a live in-process server."""

from __future__ import annotations

import http.client
import json
import pickle
import socket

import pytest

from repro.core.config import SieveConfig
from repro.evaluation.context import build_context
from repro.evaluation.runner import evaluate_method
from repro.observability.export import parse_prometheus
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
        "requests", "coalesced", "batches", "tasks", "failures"
    }
    assert body["engine"]["jobs"] == 1 and body["engine"]["use_cache"] is True


def test_methods_lists_the_full_registry(client):
    status, body, _ = client.get("/v1/methods")
    assert status == 200
    by_name = {entry["name"]: entry for entry in body["methods"]}
    assert set(by_name) == {"sieve", "pks", "pks-two-level", "periodic", "random"}
    assert by_name["sieve"]["config_schema"] == "SieveConfig"
    assert by_name["sieve"]["defaults"]["theta"] == 0.4
    assert by_name["pks-two-level"]["defaults"]["pks"]["max_k"] >= 1


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
        ServiceConfig(
            cache_dir=str(tmp_path), window_s=0.002, deadline_s=30.0, max_attempts=1
        )
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
    # The perfstore counter families are zero-registered at startup, so
    # a service that never touched the store still exposes them.
    for family in (
        "perfstore_ingest_total",
        "perfstore_lookup_total",
        "perfstore_gate_total",
    ):
        assert family in families
    select_count = sum(
        value
        for name, labels, value in families["service_requests_total"]["samples"]
        if labels.get("route") == "/v1/select" and labels.get("status") == "200"
    )
    assert select_count >= 1


def test_identical_served_results_are_cache_hits(client):
    payload = {"workload": "rodinia/srad", "method": "random", "cap": 200}
    first = client.post("/v1/predict", payload)[1]
    second = client.post("/v1/predict", payload)[1]
    assert second["telemetry"]["from_cache"] is True
    assert pickle.dumps(first["result"]) == pickle.dumps(second["result"])
    assert first["pickle_sha256"] == second["pickle_sha256"]


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
    encodings = []
    real_response_body = protocol.response_body
    monkeypatch.setattr(
        protocol,
        "response_body",
        lambda request, result: encodings.append(1) or real_response_body(request, result),
    )
    replies = [post_bytes(service, route, payload) for _ in range(3)]
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


def test_theta_sweep_on_a_warm_worker_matches_direct(tmp_path):
    """Each θ re-runs one workload in the same worker, reusing the context
    its first request built; every digest is the in-process one."""
    thetas = (0.3, 0.55, 0.8)
    payload = {"workload": "rodinia/lud", "method": "sieve", "cap": 260}
    handle = start_in_thread(ServiceConfig(cache_dir=str(tmp_path), window_s=0.002))
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
    handle = start_in_thread(ServiceConfig(cache_dir=str(tmp_path), window_s=0.002))
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
    handle = start_in_thread(ServiceConfig(cache_dir=str(tmp_path), window_s=0.002))
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

