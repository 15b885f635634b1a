"""Streaming smoke: bounded-memory pass over a 1M-invocation feed.

Builds one large synthetic profile (default: 1 000 000 invocations over
64 kernels — 60 tier-1/2 kernels carrying the bulk plus 4 rare bimodal
tier-3 kernels of ~1000 invocations each), then:

* streams it chunk-by-chunk through Sieve's incremental operator with a
  *bounded* per-kernel reservoir and **fails** unless the stream's
  resident high-water mark stays a small fraction of the feed (the
  O(kernels + reservoir) memory claim, read off the
  ``streaming.high_water_rows`` gauge) and the process RSS growth during
  the pass stays bounded. The high-water mark is the memory measure.
  The RSS growth (of ``ru_maxrss``) is deterministic for one build but
  moves with code placement: one check placed inside
  ``ReservoirStore.fold`` read 15.0 MiB, the same check elsewhere
  8.9-9.1 MiB, while perfbench's peak RSS did not move. Its 512 MiB
  bound is a ceiling against gross leaks, and a difference of a few
  MiB between builds is code placement, not memory;
* runs the classic batch ``SievePipeline.select`` on the same table and
  **fails** unless the streamed selection's representatives are
  *identical* (every field of every pick) — the rare kernels fit the
  reservoir so their KDE splits are exact, and the evicted tier-1/2
  kernels keep exact picks through the stream's first/CTA trackers;
* when ``SIEVE_BENCH_MANIFEST_DIR`` is set, writes
  ``BENCH_streaming.json`` (per-stage wall times + deterministic
  aggregates), auto-recorded into the perf store when
  ``SIEVE_PERFSTORE_DIR`` is set. The CI ``streaming-smoke`` job
  records three runs and gates them with
  ``sieve-repro report --against`` the committed
  ``benchmarks/perfstore/`` snapshot.

Usage::

    PYTHONPATH=src python scripts/streaming_smoke.py
    PYTHONPATH=src python scripts/streaming_smoke.py --rows 200000
    SIEVE_BENCH_MANIFEST_DIR=/tmp/m PYTHONPATH=src python scripts/streaming_smoke.py
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.config import SieveConfig
from repro.core.pipeline import SievePipeline
from repro.methods import get_method
from repro.observability import manifest as obs_manifest
from repro.observability import metrics, span
from repro.observability import spans as obs_spans
from repro.profiling.table import ProfileTable
from repro.streaming.base import StreamContext, iter_table_chunks

DEFAULT_ROWS = 1_000_000
DEFAULT_CHUNK_ROWS = 8192
DEFAULT_RESERVOIR = 4096
#: Dense tier-1/2 kernels; four rare tier-3 kernels ride on top.
DENSE_KERNELS = 60
RARE_KERNELS = 4
#: Every RARE_STRIDE-th row is diverted to a rare kernel, round-robin:
#: ~rows/RARE_STRIDE/RARE_KERNELS invocations per rare kernel, sized to
#: stay *under* the bounded reservoir so their KDE splits remain exact.
RARE_STRIDE = 251

WORKLOAD = "stream-smoke"


def build_feed(rows: int = DEFAULT_ROWS, seed: int = 20230507) -> ProfileTable:
    """The synthetic feed: deterministic, interleaved, mostly tier-1/2."""
    rng = np.random.default_rng(seed)
    kernel_id = rng.integers(0, DENSE_KERNELS, rows).astype(np.int32)
    rare_rows = np.arange(0, rows, RARE_STRIDE)
    kernel_id[rare_rows] = (
        DENSE_KERNELS + (rare_rows // RARE_STRIDE) % RARE_KERNELS
    ).astype(np.int32)

    insn = np.empty(rows, dtype=np.int64)
    # Dense kernels: even ids are tier-1 (constant counts), odd ids are
    # tier-2 (a few percent of jitter, far under the theta=0.4 split).
    base = 50_000 + 1_500 * np.arange(DENSE_KERNELS, dtype=np.int64)
    insn[:] = base[np.clip(kernel_id, 0, DENSE_KERNELS - 1)]
    odd = np.flatnonzero((kernel_id < DENSE_KERNELS) & (kernel_id % 2 == 1))
    insn[odd] += rng.integers(-500, 501, len(odd))
    # Rare kernels: bimodal counts (two well-separated modes) so the KDE
    # valley split genuinely fires and produces multiple strata.
    for k in range(RARE_KERNELS):
        members = np.flatnonzero(kernel_id == DENSE_KERNELS + k)
        low = rng.normal(10_000, 400, len(members))
        high = rng.normal(120_000, 3_000, len(members))
        pick_high = rng.random(len(members)) < 0.5
        insn[members] = np.where(pick_high, high, low).astype(np.int64)
    insn = np.maximum(insn, 1)

    # Per-kernel chronological invocation ids, vectorized via a stable
    # sort: within a kernel, rank == arrival index.
    order = np.argsort(kernel_id, kind="stable")
    counts = np.bincount(kernel_id, minlength=DENSE_KERNELS + RARE_KERNELS)
    starts = np.repeat(
        np.concatenate(([0], np.cumsum(counts)))[:-1][counts > 0],
        counts[counts > 0],
    )
    invocation_id = np.empty(rows, dtype=np.int64)
    invocation_id[order] = np.arange(rows, dtype=np.int64) - starts

    num_kernels = DENSE_KERNELS + RARE_KERNELS
    return ProfileTable(
        workload=WORKLOAD,
        kernel_names=tuple(f"smoke_k{k:03d}" for k in range(num_kernels)),
        kernel_id=kernel_id,
        invocation_id=invocation_id,
        insn_count=insn,
        cta_size=(128 + 32 * (np.asarray(kernel_id) % 8)).astype(np.int32),
        num_ctas=rng.integers(1, 2048, rows).astype(np.int64),
    )


def _rss_mb() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return usage / 1024.0 if sys.platform != "darwin" else usage / (1024.0**2)


def run_streaming(
    table: ProfileTable, chunk_rows: int, reservoir_rows: int, config: SieveConfig
):
    """Stream the feed through Sieve's incremental operator."""
    method = get_method("sieve")
    stream = method.begin_stream(
        StreamContext(workload=table.workload, reservoir_rows=reservoir_rows),
        config,
    )
    rss_before = _rss_mb()
    with span("streaming.pass", rows=len(table), chunk_rows=chunk_rows):
        for chunk in iter_table_chunks(table, chunk_rows):
            stream.observe(chunk)
        selection = stream.finalize()
    return selection, _rss_mb() - rss_before


def run_batch(table: ProfileTable, config: SieveConfig):
    with span("streaming.batch", rows=len(table)):
        return SievePipeline(config).select(table)


def check_picks_identical(streamed, batch) -> None:
    assert streamed.workload == batch.workload
    assert streamed.total_instructions == batch.total_instructions
    assert streamed.num_invocations == batch.num_invocations
    assert len(streamed.representatives) == len(batch.representatives), (
        f"representative count diverged: streamed "
        f"{len(streamed.representatives)} != batch {len(batch.representatives)}"
    )
    for got, want in zip(streamed.representatives, batch.representatives):
        assert got == want, f"pick diverged:\n  streamed {got}\n  batch    {want}"


def write_manifest(report: dict, mark: tuple[int, int, float, float]):
    """Write ``BENCH_streaming.json`` when ``SIEVE_BENCH_MANIFEST_DIR`` is set."""
    directory = os.environ.get("SIEVE_BENCH_MANIFEST_DIR")
    if not directory:
        return None
    since, events_since, wall_start, cpu_start = mark
    # The measured RSS delta is informational and run-varying, so it
    # rides as an event: config keys feed the perfstore's experiment-
    # shape fingerprint and must stay stable across repeats. The memory
    # bound itself is enforced by this script's own assertions.
    obs_manifest.record_event(
        "streaming.rss", rss_delta_mb=round(report["rss_delta_mb"], 1)
    )
    manifest = obs_manifest.collect_manifest(
        "bench streaming",
        config={
            "rows": report["rows"],
            "chunk_rows": report["chunk_rows"],
            "reservoir_rows": report["reservoir_rows"],
        },
        workloads=[
            {
                "workload": WORKLOAD,
                "num_representatives": report["num_representatives"],
            }
        ],
        aggregates={
            "rows": report["rows"],
            "kernels": DENSE_KERNELS + RARE_KERNELS,
            "num_representatives": report["num_representatives"],
            "high_water_rows": report["high_water_rows"],
            "picks_identical": 1,
        },
        since=since,
        events_since=events_since,
        total_wall_s=time.perf_counter() - wall_start,
        total_cpu_s=time.process_time() - cpu_start,
    )
    path = manifest.save(Path(directory) / "BENCH_streaming.json")
    from repro.perfstore.store import maybe_record

    maybe_record(manifest, figure="streaming")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=DEFAULT_ROWS)
    parser.add_argument("--chunk-rows", type=int, default=DEFAULT_CHUNK_ROWS)
    parser.add_argument("--reservoir", type=int, default=DEFAULT_RESERVOIR)
    parser.add_argument(
        "--max-resident-fraction", type=float, default=0.5,
        help="fail when the stream's high-water resident rows exceed this "
        "fraction of the feed (default 0.5; the default geometry sits "
        "near 0.27)",
    )
    parser.add_argument(
        "--max-rss-delta-mb", type=float, default=512.0,
        help="fail when process peak RSS grows more than this during the "
        "streaming pass: a ceiling against gross leaks; builds differ by a "
        "few MiB with code placement alone, and streaming.high_water_rows "
        "is the memory measure",
    )
    args = parser.parse_args(argv)

    mark = (obs_spans.mark(), obs_manifest.events_mark(),
            time.perf_counter(), time.process_time())
    config = SieveConfig()
    with span("streaming.feed", rows=args.rows):
        table = build_feed(args.rows)
    print(f"streaming smoke: {len(table):,} invocations over "
          f"{table.num_kernels} kernels, chunk={args.chunk_rows}, "
          f"reservoir={args.reservoir}")

    streamed, rss_delta = run_streaming(
        table, args.chunk_rows, args.reservoir, config
    )
    high_water = int(
        metrics.get_registry().gauges.get("streaming.high_water_rows", 0)
    )
    print(f"streamed: {len(streamed.representatives)} representatives, "
          f"high-water {high_water:,} resident rows "
          f"({high_water / len(table):.1%} of feed), "
          f"rss delta {rss_delta:.1f} MiB")

    batch = run_batch(table, config)
    check_picks_identical(streamed, batch)
    print(f"batch:    {len(batch.representatives)} representatives — "
          f"picks identical")

    report = {
        "rows": len(table),
        "chunk_rows": args.chunk_rows,
        "reservoir_rows": args.reservoir,
        "num_representatives": len(streamed.representatives),
        "high_water_rows": high_water,
        "rss_delta_mb": rss_delta,
    }
    path = write_manifest(report, mark)
    if path:
        print(f"manifest: {path}")

    bound = args.max_resident_fraction * len(table)
    if high_water > bound:
        print(f"FAIL: high-water {high_water:,} resident rows exceeds "
              f"{args.max_resident_fraction:.0%} of the "
              f"{len(table):,}-row feed", file=sys.stderr)
        return 1
    if rss_delta > args.max_rss_delta_mb:
        print(f"FAIL: streaming pass grew peak RSS by {rss_delta:.1f} MiB "
              f"(> {args.max_rss_delta_mb:.0f} MiB)", file=sys.stderr)
        return 1
    print(f"OK: bounded pass ({high_water:,} <= {bound:,.0f} resident rows) "
          f"reproduced the batch picks exactly")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
