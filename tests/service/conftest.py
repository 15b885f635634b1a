"""Shared service-test plumbing: one live server + a tiny HTTP client."""

from __future__ import annotations

import http.client
import json

import pytest

from repro.service.server import ServiceConfig, start_in_thread


class Client:
    """Keep-alive JSON client against the module-scoped test server."""

    def __init__(self, host: str, port: int, timeout_s: float = 120.0):
        self.host = host
        self.port = port
        self.connection = http.client.HTTPConnection(host, port, timeout=timeout_s)

    def get(self, route: str) -> tuple[int, object, str]:
        self.connection.request("GET", route)
        return self._read()

    def post(self, route: str, payload: object) -> tuple[int, object, str]:
        body = json.dumps(payload).encode("utf-8")
        self.connection.request(
            "POST", route, body=body,
            headers={"Content-Length": str(len(body))},
        )
        return self._read()

    def _read(self) -> tuple[int, object, str]:
        response = self.connection.getresponse()
        raw = response.read()
        content_type = response.getheader("Content-Type", "")
        if content_type.startswith("application/json"):
            return response.status, json.loads(raw), content_type
        return response.status, raw.decode("utf-8"), content_type

    def close(self) -> None:
        self.connection.close()


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    cache = tmp_path_factory.mktemp("service-cache")
    handle = start_in_thread(
        ServiceConfig(cache_dir=str(cache), deadline_s=120.0)
    )
    yield handle
    handle.stop()


@pytest.fixture
def client(service):
    client = Client(service.host, service.port)
    yield client
    client.close()
