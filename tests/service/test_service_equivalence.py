"""Property test: the serving contract is byte-identical to direct calls.

For a drawn (method, workload, jobs, cache-temperature) combination, a
``POST /v1/select`` and ``POST /v1/predict`` round trip through the full
stack — HTTP parsing, the micro-batching dispatcher, ``run_isolated``'s
supervised children, the content-addressed cache — must return exactly
the canonical projection *and* the pickle digest of a direct
:func:`~repro.evaluation.runner.evaluate_method` call. This is the
acceptance-bar property for the service PR: any nondeterminism smuggled
in by batching, process isolation, worker count or cache replay fails
the digest comparison.
"""

from __future__ import annotations

import tempfile
import threading

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import SieveConfig
from repro.evaluation.context import build_context
from repro.evaluation.runner import evaluate_method
from repro.methods import list_methods
from repro.service import protocol
from repro.service.server import ServiceConfig, start_in_thread
from tests.service.conftest import Client

#: Every registered method is drawn; tiny caps keep evaluation ~tens of
#: milliseconds so the full stack stays property-testable.
METHODS = tuple(sorted(list_methods()))
WORKLOADS = ("rodinia/nw", "rodinia/lud", "cactus/gru")
CAP = 300


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    method=st.sampled_from(METHODS),
    workload=st.sampled_from(WORKLOADS),
    jobs=st.sampled_from((1, 4)),
    warm=st.booleans(),
)
def test_served_results_byte_identical_to_direct(method, workload, jobs, warm):
    direct = evaluate_method(method, build_context(workload, CAP), None)
    expected_predict = protocol.result_to_dict(direct)
    expected_predict_sha = protocol.pickle_digest(direct)
    expected_select = protocol.selection_to_dict(direct.selection)
    expected_select_sha = protocol.pickle_digest(direct.selection)

    payload = {"workload": workload, "method": method, "cap": CAP}
    with tempfile.TemporaryDirectory(prefix="service-equiv-") as cache:
        handle = start_in_thread(ServiceConfig(cache_dir=cache, jobs=jobs))
        try:
            client = Client(handle.host, handle.port)
            try:
                if warm:
                    # Populate the cache; the asserted responses below
                    # then replay from it (from_cache telemetry proves it).
                    status, _, _ = client.post("/v1/predict", payload)
                    assert status == 200
                status, predicted, _ = client.post("/v1/predict", payload)
                assert status == 200
                status, selected, _ = client.post("/v1/select", payload)
                assert status == 200
            finally:
                client.close()
        finally:
            handle.stop()

    assert predicted["result"] == expected_predict
    assert predicted["pickle_sha256"] == expected_predict_sha
    assert selected["result"] == expected_select
    assert selected["pickle_sha256"] == expected_select_sha
    if warm:
        assert predicted["telemetry"]["from_cache"] is True
    # The select response is served from the same cached task the
    # predict populated, warm or cold.
    assert selected["telemetry"]["from_cache"] is True


def test_concurrent_sweeps_on_two_lanes_equal_direct():
    """Distinct θ sweeps from several clients at once run as concurrent
    ``run_isolated`` calls on one engine; each returns the in-process digest."""
    requests = [(workload, theta) for workload in WORKLOADS[1:] for theta in (0.25, 0.5, 0.75)]
    bodies: dict = {}
    start = threading.Barrier(len(requests))

    def sweep(workload: str, theta: float) -> None:
        client = Client(handle.host, handle.port)
        try:
            start.wait(timeout=30)
            payload = {"workload": workload, "method": "sieve", "cap": CAP}
            payload["config"] = {"theta": theta}
            bodies[workload, theta] = client.post("/v1/predict", payload)
        finally:
            client.close()

    with tempfile.TemporaryDirectory(prefix="service-equiv-") as cache:
        handle = start_in_thread(ServiceConfig(cache_dir=cache, jobs=2))
        try:
            threads = [threading.Thread(target=sweep, args=request) for request in requests]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
                assert not thread.is_alive()
            workers = len(handle.service.engine._workers._idle)
        finally:
            handle.stop()

    assert workers == 2  # both lanes had a task in a worker at once
    for workload, theta in requests:
        status, body, _ = bodies[workload, theta]
        assert status == 200, body
        assert (body["telemetry"]["from_cache"], body["telemetry"]["attempts"]) == (False, 1)
        direct = evaluate_method("sieve", build_context(workload, CAP), SieveConfig(theta=theta))
        assert body["pickle_sha256"] == protocol.pickle_digest(direct)
