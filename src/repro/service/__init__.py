"""Sampling-as-a-service: an asyncio HTTP/JSON front end over the engine.

The paper's selection pass is cheap — a scan over the profile table, not
a simulation — which makes it natural to serve on demand: clients submit
profile tables (or reference catalog workloads) and get selections and
predictions back. This package is that service, stdlib-only:

* :mod:`repro.service.protocol` — the request/response contract: typed
  request parsing, canonical (byte-stable) result serialization, and the
  error-to-HTTP mapping;
* :mod:`repro.service.batching` — the lane dispatcher that coalesces
  concurrent requests into
  :class:`~repro.evaluation.engine.EvaluationTask`\\ s and runs them on
  ``jobs`` lanes of one shared
  :class:`~repro.evaluation.engine.EvaluationEngine`, so the
  content-addressed cache, quarantine, retries and crash isolation are
  reused across tenants;
* :mod:`repro.service.server` — the asyncio-streams HTTP/1.1 server
  (``POST /v1/select``, ``POST /v1/predict``, ``GET /v1/methods``,
  ``GET /v1/healthz``, ``GET /v1/metrics``);
* :mod:`repro.service.loadgen` — the request-generation load harness
  (static/poisson/dynamic synthetic arrivals plus trace replay) that
  measures throughput and latency percentiles and emits the
  ``BENCH_service.json`` manifest the regression gate consumes.

The serving contract is pinned by tests: a served selection/prediction
is byte-identical to a direct
:func:`~repro.evaluation.runner.evaluate_method` call for every
registered method, under concurrency, worker count and cache-warm/cold
permutations (``tests/service/test_service_equivalence.py``).
"""

from repro.service.batching import BatchingDispatcher, DispatcherStats
from repro.service.protocol import (
    EvaluationRequest,
    parse_request,
    pickle_digest,
    result_to_dict,
    selection_to_dict,
)
from repro.service.server import (
    ServiceConfig,
    ServiceHandle,
    SieveService,
    start_in_thread,
)

__all__ = [
    "BatchingDispatcher",
    "DispatcherStats",
    "EvaluationRequest",
    "ServiceConfig",
    "ServiceHandle",
    "SieveService",
    "parse_request",
    "pickle_digest",
    "result_to_dict",
    "selection_to_dict",
    "start_in_thread",
]
