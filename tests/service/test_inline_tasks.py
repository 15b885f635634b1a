"""Inline profiles are served as ordinary engine tasks, carrying their table.

An uploaded profile travels to a worker by value, so it gets what a
catalog request gets: the result cache, coalescing, a deadline, crash
isolation and quarantine. Its label is derived from the table's digest,
so quarantine strikes one table, never every upload.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

import pytest

from repro.evaluation.context import build_context
from repro.profiling.csv_io import write_profile_csv
from repro.service import protocol
from repro.service.server import ServiceConfig, start_in_thread
from tests.service.conftest import Client


def rows_payload(kernels=("k0", "k1", "k2"), rows=60) -> dict:
    return {
        "method": "sieve",
        "profile_rows": [
            {"kernel_name": kernels[i % len(kernels)], "insn_count": 1_000 + 37 * (i % 11)}
            for i in range(rows)
        ],
    }


@pytest.fixture(scope="module")
def csv_payload(tmp_path_factory) -> dict:
    path = tmp_path_factory.mktemp("inline") / "profile.csv"
    write_profile_csv(build_context("rodinia/lud", 150).sieve_table, path)
    return {"method": "sieve", "profile_csv": path.read_text()}


def direct(payload: dict):
    """The selection a direct, in-process call makes for ``payload``."""
    return protocol.select_inline(protocol.parse_request("select", payload))


def label_of(payload: dict) -> str:
    table = protocol.parse_request("select", payload).table
    return f"inline/{table.digest()[:16]}"


def serve(tmp_path, **overrides):
    fields = dict(cache_dir=str(tmp_path))
    fields.update(overrides)
    return start_in_thread(ServiceConfig(**fields))


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("jobs", [1, 4])
@pytest.mark.parametrize("source", ["rows", "csv"])
def test_served_inline_selection_equals_select_inline(
    tmp_path, csv_payload, source, jobs, warm
):
    payload = rows_payload() if source == "rows" else csv_payload
    selection = direct(payload)
    handle = serve(tmp_path, jobs=jobs)
    client = Client(handle.host, handle.port)
    try:
        if warm:
            assert client.post("/v1/select", payload)[0] == 200
        status, body, _ = client.post("/v1/select", payload)
    finally:
        client.close()
        handle.stop()
    assert status == 200, body
    assert body["pickle_sha256"] == protocol.pickle_digest(selection)
    assert body["result"] == protocol.selection_to_dict(selection)
    assert body["workload"] == selection.workload
    telemetry = body["telemetry"]
    assert telemetry["inline"] is True
    # A repeated upload is a cache hit: answered without running.
    assert (telemetry["from_cache"], telemetry["attempts"]) == ((True, 0) if warm else (False, 1))


def held(entered: Path, release: Path):
    """``select_inline`` that creates ``entered`` and then waits (up to
    30 s) for ``release`` to exist: the task stays in its worker."""
    real = protocol.select_inline

    def select_inline(request):
        entered.touch()
        deadline = time.monotonic() + 30.0
        while not release.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        return real(request)

    return select_inline


def wait_for(condition, timeout_s: float = 30.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


def test_identical_concurrent_uploads_coalesce_into_one_task(tmp_path, monkeypatch):
    payload = rows_payload(rows=90)
    entered, release = tmp_path / "entered", tmp_path / "release"
    # Patched before the server starts, so the workers it forks run it:
    # the first upload is held in its worker until the second has arrived.
    monkeypatch.setattr(protocol, "select_inline", held(entered, release))
    handle = serve(tmp_path / "cache")
    bodies: list = [None, None]

    def upload(slot: int) -> None:
        client = Client(handle.host, handle.port)
        try:
            bodies[slot] = client.post("/v1/select", payload)[1]
        finally:
            client.close()

    threads = [threading.Thread(target=upload, args=(slot,)) for slot in (0, 1)]
    stats = handle.service.dispatcher.stats
    try:
        threads[0].start()
        wait_for(entered.exists)
        threads[1].start()
        wait_for(lambda: stats.coalesced == 1)
        release.touch()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        release.touch()
        handle.stop()
    assert (stats.requests, stats.coalesced, stats.batches) == (2, 1, 1)
    digest = protocol.pickle_digest(direct(payload))
    assert [body["pickle_sha256"] for body in bodies] == [digest, digest]


def doomed(failure: str):
    """``select_inline`` that fails on any table with a kernel named
    ``doomed``: the worker exits, or sleeps past its deadline."""
    real = protocol.select_inline

    def select_inline(request):
        if "doomed" in request.table.kernel_names:
            if failure == "crash":
                os._exit(7)
            time.sleep(60.0)
        return real(request)

    return select_inline


@pytest.mark.parametrize(
    "failure, error_type",
    [("crash", "TaskCrashError"), ("deadline", "TaskTimeoutError")],
)
def test_failing_table_is_isolated_and_quarantined_alone(
    tmp_path, monkeypatch, failure, error_type
):
    # Patched before the server starts, so the workers it forks run it.
    monkeypatch.setattr(protocol, "select_inline", doomed(failure))
    bad = rows_payload(kernels=("doomed", "k1"))
    good = rows_payload()
    handle = serve(tmp_path, deadline_s=2.0)
    client = Client(handle.host, handle.port)
    try:
        replies = []
        for payload in (bad, good, bad, good, bad, good):
            status, body, _ = client.post("/v1/select", payload)
            replies.append((status, body["error"]["type"] if status != 200 else None))
        strikes = handle.service.engine.quarantine.entries()
        _, last_bad, _ = client.post("/v1/select", bad)
    finally:
        client.close()
        handle.stop()
    assert replies == [
        (500, error_type), (200, None),
        (500, error_type), (200, None),
        (503, "QuarantinedTaskError"), (200, None),
    ]
    # The label names the one table, so only its uploads answer 503.
    assert strikes == [("task", label_of(bad), 2)]
    assert last_bad["error"]["context"]["workload"] == label_of(bad)


def test_inline_responses_keep_their_keys_and_bytes(tmp_path, monkeypatch):
    payload = rows_payload()
    encodings = []
    real_response_body = protocol.response_body
    monkeypatch.setattr(
        protocol,
        "response_body",
        lambda request, result: encodings.append(1) or real_response_body(request, result),
    )
    handle = serve(tmp_path)
    client = Client(handle.host, handle.port)
    try:
        raws = []
        for _ in range(2):
            body = json.dumps(payload).encode()
            client.connection.request(
                "POST", "/v1/select", body=body,
                headers={"Content-Length": str(len(body))},
            )
            raws.append(client.connection.getresponse().read())
    finally:
        client.close()
        handle.stop()
    for raw in raws:
        body = json.loads(raw)
        assert raw == protocol.canonical_json(body).encode("utf-8")
        assert set(body) == {
            "request_id", "kind", "method", "workload", "result",
            "pickle_sha256", "telemetry",
        }
        assert body["workload"] == "inline"
    # The second is a cache hit, answered from the memo: encoded once.
    first, second = (json.loads(raw) for raw in raws)
    assert first["result"] == second["result"]
    assert second["telemetry"]["from_cache"] is True
    assert len(encodings) == 1
