"""Time-boxed smoke test for the sampling service (CI ``service-smoke``).

Boots a private server on an ephemeral port, replays a seeded loadgen
burst at 32 concurrent clients, and asserts the service-level objectives
the acceptance bar names:

* **zero 5xx** responses across the burst;
* **p99 latency** under a deliberately generous bound (this is a shared
  CI box, not a latency lab — the bound catches hangs and pathological
  serialization, not millisecond drift);
* ``GET /v1/metrics`` parses as valid Prometheus exposition text
  (:func:`repro.observability.export.parse_prometheus` is the strict
  validator);
* each request counts once in the result cache's counters:
  ``engine_cache_miss_total`` equals the unique tasks the warm-up
  evaluated, and ``engine_cache_hit_total`` plus ``/v1/healthz``'s
  ``coalesced`` equals the burst's requests (every one of them is
  answered from the cache, its memo, or a task in flight);
* no worker process outlives the server: ``handle.stop()`` closes the
  engine, which stops its long-lived isolated workers (``--jobs`` of
  them), so ``multiprocessing.active_children()`` must then be empty;
* the resulting ``BENCH_service.json`` manifest is written to
  ``--out`` and auto-recorded into the perf store when
  ``SIEVE_PERFSTORE_DIR`` is set. The CI ``service-smoke`` job records
  three runs, gates them with ``sieve-repro report --against`` the
  committed ``benchmarks/perfstore/`` snapshot, and uploads the
  manifests as artifacts.

A warm-up pass sends every unique (workload, method, cap) task first,
from ``WARM_CLIENTS`` concurrent clients, so at ``--jobs 2`` misses run
in both dispatcher lanes at once; any non-200 fails the smoke. The
measured burst then exercises the dispatcher and cache under concurrency
rather than timing first-time evaluation cost.

Usage::

    PYTHONPATH=src python scripts/service_smoke.py --out /tmp/manifests
"""

from __future__ import annotations

import argparse
import http.client
import json
import multiprocessing
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.observability.export import parse_prometheus
from repro.service import loadgen
from repro.service.server import ServiceConfig, start_in_thread

#: Fixed smoke parameters: the committed perf store snapshot's service
#: runs were recorded with exactly these, so CI gates like-for-like.
SEED = 2023
PATTERN = "poisson:200"
REQUESTS = 96
CLIENTS = 32
CAP = 400
WORKLOADS = ("rodinia/nw", "rodinia/lud", "rodinia/srad", "parboil/histo")
METHODS = ("sieve", "pks", "periodic", "random")
#: Concurrent clients of the warm-up, each with its own connection.
WARM_CLIENTS = 8


def build_schedule() -> tuple[loadgen.ScheduledRequest, ...]:
    mix = loadgen.RequestMix(
        workloads=WORKLOADS, methods=METHODS, cap=CAP, predict_fraction=0.5
    )
    return loadgen.generate_requests(
        loadgen.parse_pattern(PATTERN), mix, REQUESTS, seed=SEED
    )


def warm_up(host: str, port: int, schedule) -> int:
    """Evaluate every unique task once, from ``WARM_CLIENTS`` concurrent
    clients; returns the count. Any non-200 fails the smoke."""
    unique = {}
    for request in schedule:
        key = (request.payload["workload"], request.payload["method"])
        unique.setdefault(key, request)

    def send(requests) -> list[tuple[int, dict]]:
        connection = http.client.HTTPConnection(host, port, timeout=300)
        statuses = []
        try:
            for request in requests:
                body = json.dumps(request.payload).encode()
                connection.request(
                    "POST",
                    loadgen.protocol.PREDICT_ROUTE,
                    body=body,
                    headers={"Content-Length": str(len(body))},
                )
                response = connection.getresponse()
                response.read()
                statuses.append((response.status, request.payload))
        finally:
            connection.close()
        return statuses

    requests = list(unique.values())
    with ThreadPoolExecutor(max_workers=WARM_CLIENTS) as clients:
        shares = [requests[i::WARM_CLIENTS] for i in range(WARM_CLIENTS)]
        replies = [reply for statuses in clients.map(send, shares) for reply in statuses]
    for status, payload in replies:
        if status != 200:
            raise SystemExit(f"warm-up request failed with HTTP {status} for {payload}")
    return len(unique)


def get(host: str, port: int, route: str) -> str:
    connection = http.client.HTTPConnection(host, port, timeout=60)
    try:
        connection.request("GET", route)
        response = connection.getresponse()
        text = response.read().decode("utf-8")
    finally:
        connection.close()
    if response.status != 200:
        raise SystemExit(f"{route} returned HTTP {response.status}")
    return text


def check_metrics(host: str, port: int) -> dict[str, float]:
    """Validate ``/v1/metrics``; returns each family's total over its samples."""
    text = get(host, port, loadgen.protocol.METRICS_ROUTE)
    families = parse_prometheus(text)  # raises ValueError on malformation
    for expected in ("service_requests_total", "service_latency_s"):
        if expected not in families:
            raise SystemExit(f"/v1/metrics is missing the {expected} family")
    return {
        name: sum(value for _, _, value in family["samples"])
        for name, family in families.items()
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", type=Path, required=True,
        help="directory to write BENCH_service.json into",
    )
    parser.add_argument(
        "--p99-bound-s", type=float, default=5.0,
        help="generous p99 latency ceiling for the warm burst (default 5s)",
    )
    parser.add_argument(
        "--jobs", type=int, default=2,
        help="isolated worker processes behind the batches (default 2)",
    )
    args = parser.parse_args(argv)

    schedule = build_schedule()
    with tempfile.TemporaryDirectory(prefix="service-smoke-cache-") as cache:
        handle = start_in_thread(
            ServiceConfig(cache_dir=cache, jobs=args.jobs, deadline_s=300.0)
        )
        try:
            warmed = warm_up(handle.host, handle.port, schedule)
            print(f"warm-up: {warmed} unique tasks evaluated")
            report = loadgen.run_loadgen(
                handle.host, handle.port, schedule, clients=CLIENTS
            )
            totals = check_metrics(handle.host, handle.port)
            health = json.loads(get(handle.host, handle.port, loadgen.protocol.HEALTHZ_ROUTE))
        finally:
            handle.stop()
    survivors = multiprocessing.active_children()

    summary = report.summary()
    for key, value in summary.items():
        print(f"{key}: {value}")
    print(f"/v1/metrics: {len(totals)} families, exposition valid")
    misses = totals.get("engine_cache_miss_total", 0.0)
    hits = totals.get("engine_cache_hit_total", 0.0)
    coalesced = health["dispatcher"]["coalesced"]
    print(f"cache: {hits:.0f} hits, {misses:.0f} misses, {coalesced} coalesced")
    print(f"child processes alive after stop: {len(survivors)}")

    args.out.mkdir(parents=True, exist_ok=True)
    manifest = report.to_manifest()
    path = manifest.save(args.out / "BENCH_service.json")
    print(f"manifest: {path}")
    from repro.perfstore.store import maybe_record

    maybe_record(manifest, figure="service")

    failures = []
    if summary["http_5xx"] or summary["other"]:
        failures.append(
            f"{summary['http_5xx']} 5xx / {summary['other']} transport "
            "failures (must be 0)"
        )
    if summary["p99_s"] > args.p99_bound_s:
        failures.append(
            f"p99 {summary['p99_s']:.3f}s exceeds the {args.p99_bound_s}s bound"
        )
    if survivors:
        failures.append(
            f"{len(survivors)} child process(es) outlived the server: "
            + ", ".join(f"pid {child.pid}" for child in survivors)
        )
    if misses != warmed:
        failures.append(f"{misses:.0f} cache misses for {warmed} evaluated tasks")
    if hits + coalesced != REQUESTS:
        failures.append(
            f"{hits:.0f} cache hits + {coalesced} coalesced requests != the burst's {REQUESTS}"
        )
    if len(report.records) != REQUESTS:
        failures.append(
            f"only {len(report.records)}/{REQUESTS} requests completed"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(f"OK: {REQUESTS} requests, {CLIENTS} clients, zero 5xx")
    return 0


if __name__ == "__main__":
    sys.exit(main())
