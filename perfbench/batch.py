"""The batch workloads: compare, scale and stream.

A run does a fixed amount of work sized to take about ``--seconds`` at
this commit: ``passes(run)`` timed passes, each in a fresh child with a
fresh result-cache directory, with set-up-only children (cold starts)
spread between them. The same seed and seconds always give the same
inputs. The traced run alternates untraced and traced passes, so its
overhead is measured on the same inputs in the same run.

One *pass* is one input the user waits for as a whole; a run holds a
few, so ``p50_ms`` is the median pass and ``p99_ms`` the slowest one
(the sample supports no higher percentile).
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

from perfbench import inputs, tracing
from perfbench.harness import (
    PER_LAYER, BenchError, Outcome, Run, close, median, plural, run_child,
)
from perfbench.system import unstolen


def passes(run: Run) -> int:
    nominal = run.sizes.pass_seconds[run.workload]
    return max(2, round(run.seconds / nominal))


def _jobs(run: Run, count: int) -> tuple[list[dict], dict, inputs.Feed | None]:
    """One job per pass, the input digests, and the stream feed (for
    the batch check)."""
    sizes = run.sizes
    if run.workload == "compare":
        orders = [inputs.compare_order(run.seed, i, sizes.compare_labels) for i in range(count)]
        jobs = [
            {"labels": order, "cap": sizes.compare_cap, "jobs": sizes.compare_jobs}
            for order in orders
        ]
        return jobs, {"compare_orders": inputs.digest(*sum(orders, []))}, None
    if run.workload == "scale":
        per = sizes.scale_per_pass
        names = inputs.scale_names(run.seed, count * per, sizes.scale_pool)
        jobs = [
            {
                "names": names[i * per:(i + 1) * per],
                "kernels": sizes.scale_kernels,
                "invocations": sizes.scale_invocations,
                "jobs": 1,
            }
            for i in range(count)
        ]
        return jobs, {"scale_names": inputs.digest(*names)}, None
    path = run.path("feed.csv")
    feed = inputs.stream_feed(run.seed, sizes.stream_rows, path)
    job = {
        "feed": str(path),
        "feed_workload": feed.workload,
        "chunk_rows": sizes.stream_chunk_rows,
        "reservoir_rows": sizes.stream_reservoir_rows,
    }
    return [job] * count, {"stream_feed": feed.digest}, feed


def _check(run: Run, result: dict, job: dict, batch_picks) -> tuple[int, int, list[str]]:
    """(ops attempted, ops failed, problems) for one finished pass."""
    if run.workload == "stream":
        rows = run.sizes.stream_rows
        if "error" in result:
            return rows, rows, [result["error"]]
        if result["outputs"] != batch_picks() or result["ops"] != rows:
            return rows, rows, ["streamed picks differ from batch SievePipeline.select"]
        return rows, 0, []
    pinned = run.expected[run.workload]
    keys = job["labels"] if run.workload == "compare" else job["names"]
    attempted = sum(pinned[key]["invocations"] for key in keys)
    if "error" in result:
        return attempted, attempted, [result["error"]]
    failed, problems = 0, []
    for key in keys:
        got, want = result["outputs"].get(key), pinned[key]
        if got is None or not _matches(got, want):
            failed += want["invocations"]
            problems.append(f"{key}: got {got}, pinned {want}")
    return attempted, failed, problems


def _matches(got: dict, want: dict) -> bool:
    if got.keys() != want.keys() or got["invocations"] != want["invocations"]:
        return False
    for method, values in want.items():
        if method == "invocations":
            continue
        g = got[method]
        if g["representatives"] != values["representatives"]:
            return False
        if not (close(g["error"], values["error"])
                and close(g["predicted_cycles"], values["predicted_cycles"])):
            return False
    return True


def _batch_picks(feed: inputs.Feed) -> dict:
    """Batch ``SievePipeline.select`` over the same rows the feed holds."""
    from perfbench.child import picks_of
    from repro.core.config import SieveConfig
    from repro.core.pipeline import SievePipeline
    from repro.profiling.table import ProfileTable

    table = ProfileTable(
        workload=feed.workload,
        kernel_names=feed.kernel_names,
        kernel_id=feed.kernel_id,
        invocation_id=feed.invocation_id,
        insn_count=feed.insn_count,
        cta_size=feed.cta_size,
        num_ctas=feed.num_ctas,
    )
    return picks_of(SievePipeline(SieveConfig()).select(table))


#: Workloads whose passes run in one process. Their passes, like every
#: cold start, are divided by the host slowdown (``probe.py``): one
#: interpreter-bound process slows with its vCPU as the probe's task
#: does. A ``compare`` pass spreads numpy work over both vCPUs, which
#: the probe does not predict.
ONE_PROCESS = ("scale", "stream")


def _slowdown(run: Run, result: dict) -> float:
    if run.workload not in ONE_PROCESS:
        return 1.0
    return run.host.slowdown(result["t0"], result["t1"])


def _seconds(run: Run, result: dict) -> float:
    """A pass's timed seconds, less the share the hypervisor stole, and
    for one-process workloads at the reference host speed."""
    wall = result["t1"] - result["t0"]
    return wall * unstolen(result["steal_ticks"], result["busy_ticks"]) / _slowdown(run, result)


def run_batch(run: Run) -> Outcome:
    out = Outcome()
    count = passes(run)
    jobs, digests, feed = _jobs(run, count)
    out.record["input_digests"] = digests
    base = {"workload": run.workload, "trace_dir": None}
    # Every untraced pass starts cold; set-up-only children make up the
    # rest of the cold starts, spread over the run so that a slow spell
    # of the host does not fall on all of them. The traced run reports
    # no set-up time.
    extra = 0 if run.trace else max(0, run.sizes.setup_samples - count)
    before = [len(range(i, extra, count)) for i in range(count)]

    cold: list[dict] = []  # results whose cold start counts
    done: list[tuple[bool, dict, dict]] = []  # (traced, job, result)
    for index, template in enumerate(jobs):
        for _ in range(before[index]):
            result = run_child(run, {**base, **template, "setup_only": True,
                                     "cache_dir": str(run.path("cache"))})
            if "error" in result:
                raise BenchError(f"set-up child failed:\n{result['error']}")
            cold.append(result)
        traced = run.trace and index % 2 == 1
        job = {**base, **template, "setup_only": False, "cache_dir": str(run.path("cache"))}
        if traced:
            job["trace_dir"] = str(run.path("trace"))
            Path(job["trace_dir"]).mkdir()
        result = run_child(run, job)
        done.append((traced, job, result))
        shutil.rmtree(job["cache_dir"], ignore_errors=True)
        if "error" in result:
            break
        if not traced:
            cold.append(result)
    run.host.stop()

    cached: list[dict] = []

    def batch_picks() -> dict:
        if not cached:
            cached.append(_batch_picks(feed))
        return cached[0]

    plain = []
    for traced, job, result in done:
        attempted, failed, problems = _check(run, result, job, batch_picks)
        out.attempted += attempted
        out.failed += failed
        out.lines += [f"check failed: {p}" for p in problems[:5]]
        if "error" not in result and not traced:
            plain.append(result)
    if not plain:
        return out  # nothing measured; the failed ops say why

    setup = [r["setup_s"] / run.host.slowdown(r["spawn"], r["ready"]) for r in cold]
    seconds = [_seconds(run, r) for r in plain]
    rates = [r["ops"] / t for r, t in zip(plain, seconds)]
    latencies = [t * 1000.0 for t in seconds]
    out.metrics = {
        "setup_s": median(setup),
        "ops_per_s": median(rates),
        "p50_ms": median(latencies),
        "p99_ms": max(latencies),
        "peak_rss_mb": median(r["rss_mb"] for r in plain),
    }
    slowdowns = [run.host.slowdown(r["t0"], r["t1"]) for r in plain]
    out.record.update(
        setup_samples_s=setup,
        setup_less_steal_s=[r["setup_s"] for r in cold],
        pass_ops=[r["ops"] for r in plain],
        pass_wall_s=[r["t1"] - r["t0"] for r in plain],
        pass_host_slowdown=slowdowns,
        pass_s=seconds,
        pass_steal=[(r["steal_ticks"], r["busy_ticks"], r["cpu_ticks"]) for r in plain],
        steal_ticks=sum(r["steal_ticks"] for r in plain),
        busy_ticks=sum(r["busy_ticks"] for r in plain),
        cpu_ticks=sum(r["cpu_ticks"] for r in plain),
    )
    walls = [r["t1"] - r["t0"] for r in plain]
    out.lines.append(
        f"{plural(len(plain), 'timed pass')} of {plain[0]['ops']} ops: wall "
        + ", ".join(f"{w:.3f}" for w in walls) + " s; host slowdown "
        + ", ".join(f"{x:.3f}" for x in slowdowns)
        + (" (divided out)" if run.workload in ONE_PROCESS else " (not applied)")
        + "; timed " + ", ".join(f"{t:.3f}" for t in seconds)
        + f" s; {plural(len(setup), 'cold start')}"
    )
    if run.trace:
        _trace_report(run, out, done, rates)
    return out


def _trace_report(run: Run, out: Outcome, done, plain_rates) -> None:
    lanes = run.sizes.compare_jobs if run.workload == "compare" else 1
    traced = [
        (tracing.load(Path(job["trace_dir"])), result)
        for is_traced, job, result in done
        if is_traced and "error" not in result
    ]
    if not traced:
        raise BenchError("traced run produced no traced pass")
    calls = tracing.total_calls([proc for processes, _ in traced for proc in processes])
    tracing.check_required(run.workload, calls, run.extra_required)
    table = tracing.merge_tables([
        tracing.layer_table([s for proc in processes for s in proc["spans"]],
                            result["t0"], result["t1"], lanes)
        for processes, result in traced
    ])
    counts = tracing.counts_in([(processes, r["t0"], r["t1"]) for processes, r in traced])
    spans = sum(r["program_spans"] for _, r in traced)
    overhead = median(plain_rates) / median(r["ops"] / _seconds(run, r) for _, r in traced) - 1.0
    out.layers = layer_metrics(table, counts, spans, overhead)
    out.lines.append(tracing.format_table(table, lanes))
    out.lines.append(f"tracing overhead: {overhead:+.1%} ops_per_s vs untraced passes of this run")
    out.lines.append(_predicted(run.workload, tracing.group_shares(table)))


def layer_metrics(table: dict, counts: dict, program_spans: int, overhead: float) -> dict:
    """Per-layer metrics from a merged layer table; serve adds its own.
    Metrics of layers a workload never reaches read 0."""
    layers = {name: 0 for name, _, _ in PER_LAYER}
    layers.update({f"{layer}_s": table["share"][layer] for layer in tracing.LAYERS})
    layers.update({
        "gpu.timing_calls": table["calls"]["gpu.timing"],
        "core.kde_calls": table["calls"]["core.kde"],
        "observability.spans": program_spans,
        "profiling.reader_rows": counts.get("profiling.reader_rows", 0),
        "streaming.resident_rows": counts.get("streaming.resident_rows", 0),
        "evaluation.isolated_attempts": counts.get("evaluation.isolated_attempts", 0),
        "unattributed_s": table["unattributed_s"],
        "trace.window_s": table["window_s"],
        "trace.overhead_pct": overhead * 100.0,
    })
    return layers


def _predicted(workload: str, shares: dict) -> str:
    """The measured group shares next to what the benchmark predicts."""
    measured = ", ".join(f"{g} {s:.1%}" for g, s in shares.items() if s > 0.0005)
    if workload == "compare":
        largest = max((g for g in shares if g != "unattributed"), key=shares.get)
        verdict = f"baselines largest: {'yes' if largest == 'baselines' else 'NO (' + largest + ')'}"
    elif workload == "scale":
        verdict = f"context build the majority: {'yes' if shares['context build'] > 0.5 else 'NO'}"
    else:
        verdict = f"reader plus streaming the majority: {'yes' if shares['stream input'] > 0.5 else 'NO'}"
    return f"layer groups: {measured}\npredicted: {verdict}"


def load_expected(path: Path, sizes_name: str) -> dict:
    data = json.loads(Path(path).read_text())
    return data.get(sizes_name, {})
