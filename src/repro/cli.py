"""Command-line interface: regenerate any of the paper's experiments.

Examples::

    sieve-repro table1
    sieve-repro fig3 --cap 50000
    sieve-repro fig9
    sieve-repro sample cactus/lmc --theta 0.4
    sieve-repro validate profile.csv --repair fixed.csv
    sieve-repro --inject-faults drop:0.1,nan:0.05 sample cactus/lmc
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.core.config import SieveConfig
from repro.evaluation import experiments
from repro.evaluation.context import build_context
from repro.evaluation.engine import (
    EngineConfig,
    EvaluationEngine,
    ResultCache,
    default_cache_dir,
)
from repro.evaluation.reporting import (
    comparison_row_dict,
    experiment_row_dict,
    format_table,
    percent,
    times,
)
from repro.evaluation.runner import evaluate_method
from repro.methods import MethodRequest, get_method, method_entries
from repro.observability import manifest as obs_manifest
from repro.observability import spans as obs_spans
from repro.observability.spans import span
from repro.robustness import diagnostics
from repro.robustness.faults import FaultPlan, parse_fault_plan
from repro.utils.errors import SieveError
from repro.workloads.catalog import CHALLENGING_SUITES

#: Commands whose handlers honor --inject-faults.
FAULT_AWARE_COMMANDS = frozenset({"fig3", "fig8", "compare", "sample", "attribute"})

#: Commands whose handlers route work through the evaluation engine
#: (and therefore honor --jobs / --no-cache / --cache-dir).
ENGINE_AWARE_COMMANDS = frozenset(
    {"fig3", "fig8", "compare", "fuzz", "serve", "loadgen"}
)

#: Artifacts the current command deposited for --trace-out: the engine it
#: ran through and the comparison rows/aggregates it printed. Reset per
#: ``main()`` invocation; module-level so handlers stay plain functions.
_trace_artifacts: dict = {}


def _fault_plan(args) -> FaultPlan | None:
    # main() warns when the command is not fault-aware; here the flag is
    # simply absent or already vetted.
    if not getattr(args, "inject_faults", None):
        return None
    return parse_fault_plan(args.inject_faults, seed=args.fault_seed)


def _engine(args) -> EvaluationEngine:
    """Build the evaluation engine an engine-aware command will use."""
    from pathlib import Path

    engine = EvaluationEngine(
        EngineConfig(
            jobs=args.jobs,
            use_cache=not args.no_cache,
            cache_dir=Path(args.cache_dir) if args.cache_dir else None,
        )
    )
    _trace_artifacts["engine"] = engine
    return engine


def _report_engine(engine: EvaluationEngine) -> None:
    stats = engine.cache_stats
    if stats is not None:
        print(
            f"[engine] jobs={engine.config.jobs} cache {stats.summary()} "
            f"({engine.cache.directory})",
            file=sys.stderr,
        )


def _print_comparison(rows, aggregates_of) -> None:
    aggregates = aggregates_of(rows)
    _trace_artifacts["workloads"] = [comparison_row_dict(row) for row in rows]
    _trace_artifacts["aggregates"] = {k: float(v) for k, v in aggregates.items()}
    _trace_artifacts["attribution"] = experiments.collect_attributions(rows)
    table_rows = [
        (
            row.workload,
            percent(row.sieve.error),
            percent(row.pks.error),
            f"{row.sieve.cycle_cov:.2f}",
            f"{row.pks.cycle_cov:.2f}",
            times(row.sieve.speedup),
            times(row.pks.speedup),
        )
        for row in rows
    ]
    print(
        format_table(
            ["workload", "sieve_err", "pks_err", "sieve_cov", "pks_cov",
             "sieve_speedup", "pks_speedup"],
            table_rows,
        )
    )
    for name, value in aggregates.items():
        print(f"{name}: {value:.4g}")


def _parse_methods(spec: str, theta: float) -> tuple[MethodRequest, ...]:
    """Turn ``--methods a,b`` into validated method requests.

    Every name must resolve in the registry (a typo gets the typed
    ``UnknownMethodError`` listing what *is* registered); Sieve picks up
    the command's ``--theta``.
    """
    requests = []
    for name in (part.strip() for part in spec.split(",")):
        if not name:
            continue
        get_method(name)
        config = SieveConfig(theta=theta) if name == "sieve" else None
        requests.append(MethodRequest(name, config))
    return tuple(requests)


def _print_experiment(rows, keys) -> None:
    """Generic per-method table for non-default method comparisons."""
    _trace_artifacts["workloads"] = [experiment_row_dict(row) for row in rows]
    _trace_artifacts["attribution"] = experiments.collect_attributions(rows)
    headers = ["workload"]
    for key in keys:
        headers += [f"{key}_err", f"{key}_speedup"]
    table_rows = []
    for row in rows:
        cells: list = [row.workload]
        for key in keys:
            result = row[key]
            cells += [percent(result.error), times(result.speedup)]
        table_rows.append(cells)
    print(format_table(headers, table_rows))


def _cmd_methods(args) -> None:
    """List every registered sampling method (built-ins + entry points)."""
    rows = [
        (
            method.name,
            method.config_schema.__name__ if method.config_schema else "-",
            method.description,
        )
        for method in method_entries()
    ]
    print(format_table(["method", "config", "description"], rows))


def _cmd_table1(args) -> None:
    rows = experiments.table1_inventory(args.cap)
    print(format_table(
        ["suite", "workload", "kernels", "invocations"],
        [(r["suite"], r["workload"], r["kernels"], r["invocations"]) for r in rows],
    ))


def _cmd_table2(args) -> None:
    rows = experiments.table2_metrics()
    print(format_table(
        ["execution characteristic", "PKS", "Sieve"],
        [(r["characteristic"], r["pks"], r["sieve"]) for r in rows],
    ))


def _cmd_fig2(args) -> None:
    rows = experiments.figure2_tiers(max_invocations=args.cap)
    headers = ["workload"] + [k for k in rows[0] if k != "workload"]
    print(format_table(
        headers,
        [[row["workload"]] + [percent(row[h]) for h in headers[1:]] for row in rows],
    ))


def _cmd_fig3(args) -> None:
    engine = _engine(args)
    rows = experiments.compare_methods(
        max_invocations=args.cap, fault_plan=_fault_plan(args), engine=engine
    )
    _print_comparison(rows, experiments.figure3_accuracy)
    _report_engine(engine)


def _cmd_fig5(args) -> None:
    rows = experiments.figure5_selection_policies(max_invocations=args.cap)
    print(format_table(
        ["workload", "pks_first", "pks_random", "pks_centroid", "sieve"],
        [
            (r["workload"], percent(r["pks_first"]), percent(r["pks_random"]),
             percent(r["pks_centroid"]), percent(r["sieve"]))
            for r in rows
        ],
    ))


def _cmd_fig7(args) -> None:
    rows = experiments.figure7_profiling(max_invocations=args.cap)
    print(format_table(
        ["workload", "pks_days", "sieve_days", "speedup"],
        [
            (r["workload"], f"{r['pks_days']:.3f}", f"{r['sieve_days']:.4f}",
             times(r["speedup"]))
            for r in rows
        ],
    ))


def _cmd_fig8(args) -> None:
    engine = _engine(args)
    rows = experiments.figure8_simple_suites(
        args.cap, fault_plan=_fault_plan(args), engine=engine
    )
    _print_comparison(rows, experiments.figure3_accuracy)
    _report_engine(engine)


def _cmd_fig9(args) -> None:
    rows = experiments.figure9_relative(max_invocations=args.cap)
    print(format_table(
        ["workload", "hardware", "sieve", "pks", "sieve_err", "pks_err"],
        [
            (r["workload"], f"{r['hardware']:.3f}", f"{r['sieve']:.3f}",
             f"{r['pks']:.3f}", percent(r["sieve_error"]), percent(r["pks_error"]))
            for r in rows
        ],
    ))


def _cmd_fig10(args) -> None:
    rows = experiments.figure10_theta_sweep(max_invocations=args.cap)
    print(format_table(
        ["theta", "avg_error", "max_error", "hmean_speedup"],
        [
            (r["theta"], percent(r["avg_error"]), percent(r["max_error"]),
             times(r["hmean_speedup"]))
            for r in rows
        ],
    ))


def _cmd_trace(args) -> None:
    """Emit plain-text traces for a workload's Sieve selection (§V-G)."""
    from pathlib import Path

    from repro.core.pipeline import SievePipeline
    from repro.trace.tracer import SelectionTracer, TracerConfig

    context = build_context(args.workload, args.cap)
    selection = SievePipeline(SieveConfig(theta=args.theta)).select(
        context.sieve_table
    )
    reps = selection.representatives[: args.limit] if args.limit else (
        selection.representatives
    )
    import dataclasses

    subset = dataclasses.replace(selection, representatives=reps, strata=())
    tracer = SelectionTracer(
        TracerConfig(max_warps=args.max_warps,
                     max_warp_instructions=args.max_insns)
    )
    paths = tracer.write_selection(context.run, subset, Path(args.out))
    total = sum(p.stat().st_size for p in paths)
    print(f"wrote {len(paths)} trace files ({total / 1e6:.1f} MB) to {args.out}")


def _cmd_trace_export(args) -> int:
    """Export telemetry in a standard format (Chrome trace, JSONL,
    Prometheus). With a workload, runs the requested methods first so the
    exported trace covers a real evaluation; with --from-manifest, reuses
    the spans a previous ``--trace-out`` manifest embedded."""
    from pathlib import Path

    from repro.observability import export as obs_export
    from repro.observability import metrics as obs_metrics

    if args.from_manifest:
        manifest = obs_manifest.RunManifest.load(args.from_manifest)
        records = obs_export.records_from_dicts(manifest.spans)
        snapshot = manifest.metrics
        if args.format != "prometheus" and not records:
            print(
                f"error: {args.from_manifest} embeds no spans "
                "(was it written with --trace-out?)",
                file=sys.stderr,
            )
            return 2
    else:
        if not args.workload:
            print("error: a workload (or --from-manifest) is required",
                  file=sys.stderr)
            return 2
        mark = obs_spans.mark()
        context = build_context(
            args.workload, args.cap, fault_plan=_fault_plan(args)
        )
        for request in _parse_methods(args.methods, args.theta):
            evaluate_method(request.method, context, request.config)
        records = obs_spans.records(since=mark)
        snapshot = obs_metrics.get_registry().snapshot()

    out = Path(args.out) if args.out else None
    if args.format == "chrome":
        out = out or Path("trace.json")
        obs_export.write_chrome_trace(out, records)
    elif args.format == "jsonl":
        out = out or Path("trace.jsonl")
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(
            obs_export.export_jsonl(records, structural=args.structural)
        )
    else:  # prometheus
        out = out or Path("metrics.prom")
        obs_export.write_prometheus(out, snapshot)
    print(f"wrote {args.format} export to {out}")
    return 0


def _cmd_attribute(args) -> int:
    """Explain a prediction: signed per-kernel/per-stratum error shares."""
    import json as json_module
    from pathlib import Path

    from repro.observability.report import render_attribution

    if args.from_manifest:
        manifest = obs_manifest.RunManifest.load(args.from_manifest)
        entries = list(manifest.attribution)
        if not entries:
            print(
                f"error: {args.from_manifest} carries no attribution entries",
                file=sys.stderr,
            )
            return 2
    else:
        if not args.workload:
            print("error: a workload (or --from-manifest) is required",
                  file=sys.stderr)
            return 2
        context = build_context(
            args.workload, args.cap, fault_plan=_fault_plan(args)
        )
        entries = []
        for request in _parse_methods(args.methods, args.theta):
            result = evaluate_method(request.method, context, request.config)
            if result.attribution is not None:
                entries.append(result.attribution.to_dict())
    _trace_artifacts["attribution"] = entries
    print(render_attribution(entries, top=args.top))
    if args.json:
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json_module.dumps(entries, indent=2, sort_keys=True) + "\n")
        print(f"[attribute] JSON written to {path}", file=sys.stderr)
    return 0


def _cmd_simulate(args) -> None:
    """Simulate previously written trace files cycle by cycle (§V-G)."""
    from pathlib import Path

    from repro.evaluation.reporting import format_table
    from repro.trace.encoding import parse_trace
    from repro.trace.simulator import SimulatorConfig, TraceSimulator

    simulator = TraceSimulator(SimulatorConfig(num_sms=args.sms))
    rows = []
    for path in sorted(Path(args.directory).glob("*.trace")):
        result = simulator.simulate(parse_trace(path.read_text()))
        rows.append(
            (path.name, result.cycles, result.warp_instructions,
             f"{result.ipc:.1f}", f"{result.l1_hit_rate:.2f}",
             result.dram_requests)
        )
    if not rows:
        print(f"no .trace files in {args.directory}")
        return
    print(format_table(
        ["trace", "cycles", "warp_insns", "ipc", "l1_hit", "dram"], rows
    ))


def _cmd_sample(args) -> int:
    if args.feed is not None:
        return _sample_feed(args)
    if args.workload is None:
        print("sample: a workload label (or --from FEED) is required",
              file=sys.stderr)
        return 2
    if args.method:
        requests = _parse_methods(args.method, args.theta)
    else:
        requests = _parse_methods("sieve,pks", args.theta)
    context = build_context(args.workload, args.cap, fault_plan=_fault_plan(args))
    print(f"workload        : {context.label}")
    print(f"invocations     : {len(context.sieve_table)}")
    print(f"golden cycles   : {context.golden.total_cycles:,}")
    attributions = []
    for request in requests:
        if args.stream:
            from repro.evaluation.runner import evaluate_method_streaming

            result = evaluate_method_streaming(
                request.method,
                context,
                request.config,
                chunk_rows=args.chunk_rows,
                reservoir_rows=args.reservoir,
            )
        else:
            result = evaluate_method(request.method, context, request.config)
        if result.attribution is not None:
            attributions.append(result.attribution.to_dict())
        print(
            f"{result.method:12s}: {result.num_representatives:4d} reps, "
            f"error {percent(result.error)}, speedup {times(result.speedup)}"
        )
    if args.stream:
        _print_stream_gauges()
    _trace_artifacts["attribution"] = attributions
    return 0


def _print_stream_gauges() -> None:
    from repro.observability import metrics as obs_metrics

    gauges = obs_metrics.get_registry().gauges
    high_water = gauges.get("streaming.high_water_rows")
    if high_water is not None:
        print(f"stream high-water: {int(high_water)} resident rows")


def _sample_feed(args) -> int:
    """Stream a CSV/JSONL profile feed (file or stdin) through a method."""
    from repro.profiling.csv_io import ProfileTableReader
    from repro.streaming.base import StreamContext

    if not args.stream:
        print("sample: --from requires --stream", file=sys.stderr)
        return 2
    method_names = [
        name.strip() for name in (args.method or "sieve").split(",") if name.strip()
    ]
    if len(method_names) != 1:
        print("sample: feed mode streams exactly one method", file=sys.stderr)
        return 2
    method = get_method(method_names[0])
    config = SieveConfig(theta=args.theta) if method.name == "sieve" else None
    reader = ProfileTableReader(
        args.feed, chunk_rows=args.chunk_rows, fmt=args.format
    )
    stream = method.begin_stream(
        StreamContext(
            workload=reader.workload,
            reservoir_rows=args.reservoir,
            collect_events=args.verbose,
        ),
        config,
    )
    for chunk in reader:
        for event in stream.observe(chunk):
            print(
                f"{event.kind:7s} @row {event.rows_seen:>9d}  "
                f"{event.group:16s} {event.kernel_name} "
                f"row={event.row} inv={event.invocation_id} "
                f"weight={event.weight:.4f}"
            )
    selection = stream.finalize()
    mode = "buffered" if not method.streams_incrementally else "incremental"
    print(f"workload        : {selection.workload}")
    print(f"invocations     : {selection.num_invocations:,} ({mode} stream)")
    print(f"total insns     : {selection.total_instructions:,}")
    print(
        f"{selection.method:12s}: {selection.num_representatives:4d} reps "
        f"from {reader.rows_read:,} streamed rows"
    )
    if args.verbose:
        for rep in selection.representatives:
            print(
                f"  pick {rep.group:16s} {rep.kernel_name} "
                f"row={rep.row} inv={rep.invocation_id} "
                f"weight={rep.weight:.4f}"
            )
    _print_stream_gauges()
    return 0


def _cmd_validate(args) -> int:
    """Validate (and optionally repair) a profile CSV (robustness tool)."""
    from repro.profiling.csv_io import write_profile_csv
    from repro.robustness.validate import repair_table, validate_profile_csv

    report, table = validate_profile_csv(args.csv)
    print(report.summary())
    shown = report.issues[: args.limit] if args.limit else report.issues
    if shown:
        print(format_table(
            ["severity", "kind", "row", "kernel", "message"],
            [
                (i.severity, i.kind,
                 "-" if i.row is None else i.row,
                 i.kernel or "-", i.message)
                for i in shown
            ],
        ))
        if len(shown) < len(report.issues):
            print(f"... and {len(report.issues) - len(shown)} more issues")
    if args.repair:
        if table is None:
            print("nothing salvageable to repair", file=sys.stderr)
            return 1
        result = repair_table(table)
        write_profile_csv(result.table, args.repair)
        print(
            f"repaired table written to {args.repair} "
            f"({len(result.table)} rows, {len(result.actions)} repair actions)"
        )
        for action in result.actions[: args.limit or len(result.actions)]:
            print(f"  {action.kind} row {action.row} [{action.kernel}]: "
                  f"{action.detail}")
    return 0 if report.ok else 1


def _cmd_compare(args) -> None:
    """Method scorecard on chosen workloads (default: Sieve vs PKS, fig3)."""
    engine = _engine(args)
    requests = _parse_methods(args.methods, args.theta)
    keys = [request.key for request in requests]
    if keys == ["sieve", "pks"]:
        # The paper's headline comparison keeps its richer table.
        rows = experiments.compare_methods(
            labels=args.workloads or None,
            max_invocations=args.cap,
            theta=args.theta,
            fault_plan=_fault_plan(args),
            engine=engine,
        )
        _print_comparison(rows, experiments.figure3_accuracy)
    else:
        spec = experiments.ExperimentSpec(
            name="cli-compare",
            methods=requests,
            labels=tuple(args.workloads or ()),
            suites=() if args.workloads else CHALLENGING_SUITES,
            max_invocations=args.cap,
            fault_plan=_fault_plan(args),
        )
        _print_experiment(experiments.run_experiment(spec, engine), keys)
    _report_engine(engine)


def _cmd_report(args) -> int:
    """Render run manifests, or gate them and exit 1 on a failed row.

    Exactly two manifests (baseline, then current) are gated one run per
    side. With ``--against <rev>`` the baseline is every stored run of
    that revision with the same experiment shape as the given manifests.
    """
    from repro.observability.manifest import RunManifest
    from repro.observability.report import _diff_attribution, render_manifest

    manifests = [RunManifest.load(path) for path in args.manifests]
    if args.against:
        return _report_against(args, manifests)
    if len(manifests) == 2:
        code = _print_gate(
            args,
            manifests[:1],
            manifests[1:],
            baseline_label=args.manifests[0],
            current_label=args.manifests[1],
        )
        attribution = _diff_attribution(*manifests)
        if attribution:
            print()
            print(attribution)
        return code
    for index, manifest in enumerate(manifests):
        if index:
            print()
        print(render_manifest(manifest))
    return 0


def _print_gate(args, baseline, current, **labels) -> int:
    """Gate ``current`` against ``baseline`` with the report flags."""
    from repro.perfstore import gate_manifests, render_gate_report

    report = gate_manifests(
        baseline,
        current,
        alpha=args.alpha,
        min_ratio=args.min_ratio,
        min_seconds=args.min_seconds,
        fallback_slowdown=args.max_slowdown,
        **labels,
    )
    print(render_gate_report(report, verbose=args.verbose))
    return 1 if report.regressed else 0


def _report_against(args, manifests) -> int:
    """Gate the given manifests against a stored revision's runs of the
    same figure and config fingerprint."""
    from repro.perfstore import figure_from_command
    from repro.perfstore.store import config_fingerprint
    from repro.utils.errors import PerfStoreError

    figure = args.figure or figure_from_command(manifests[0].command)
    shapes = {config_fingerprint(figure, m.config): m.config for m in manifests}
    if len(shapes) > 1:
        raise PerfStoreError(
            f"the manifests mix {len(shapes)} {figure} configs; gate one "
            "experiment shape at a time",
            configs="; ".join(
                json.dumps(config, sort_keys=True) for config in shapes.values()
            ),
        )
    ((fingerprint, config),) = shapes.items()
    store = _perf_store(args)
    version = store.resolve(args.against)
    baseline = [run.manifest for run in store.runs(version, figure, fingerprint)]
    if not baseline:
        raise PerfStoreError(
            f"revision {version[:12]} has no stored {figure} runs with config "
            f"{json.dumps(config, sort_keys=True)}",
            fingerprint=fingerprint,
            store=str(store.root),
        )
    return _print_gate(
        args,
        baseline,
        manifests,
        baseline_label=version[:12],
        current_label=f"current ({len(manifests)} run(s))",
        figure=figure,
    )


def _perf_store(args):
    from repro.perfstore import PerfStore, store_from_env

    return PerfStore(args.store) if args.store else store_from_env()


def _cmd_perf(args) -> int:
    """Inspect the performance version store (list/ingest/log/bisect-hint)."""
    from repro.observability.manifest import RunManifest
    from repro.perfstore import (
        bisect_hint,
        perf_log,
        render_bisect_hint,
        render_perf_log,
    )

    store = _perf_store(args)
    if args.perf_command == "list":
        rows = []
        for version, figures in store.summary().items():
            for figure, runs in sorted(figures.items()):
                rows.append((version[:12], figure, runs))
        if not rows:
            print(f"(empty store at {store.root})")
            return 0
        print(format_table(["version", "figure", "runs"], rows))
        return 0
    if args.perf_command == "ingest":
        for path in args.manifests:
            receipt = store.ingest(
                RunManifest.load(path),
                figure=args.figure,
                version=args.version,
            )
            dedup = "" if receipt.stored_object else " (object deduplicated)"
            print(
                f"ingested {path} as {receipt.figure} run {receipt.seq} of "
                f"{receipt.version[:12]}{dedup}"
            )
        return 0
    if args.perf_command == "log":
        entries = perf_log(
            store, args.figure, selector=args.metric, limit=args.limit
        )
        print(f"{args.figure} [{args.metric}] at {store.root}:")
        print(render_perf_log(entries))
        return 0
    # bisect-hint
    hint = bisect_hint(
        store,
        args.figure,
        selector=args.metric,
        alpha=args.alpha,
        min_ratio=args.min_ratio,
        min_abs=args.min_seconds,
    )
    print(render_bisect_hint(hint))
    return 1 if hint["first_regression"] else 0


def _cmd_fuzz_promote(args) -> int:
    """Promote shrunk fuzz findings into the adversarial suite."""
    from repro.perfstore import promote_findings, render_promotion

    promoted = promote_findings(
        args.findings,
        engine=_engine(args),
        catalog_path=args.catalog,
        limit=args.limit,
        min_score=args.min_score,
    )
    print(render_promotion(promoted))
    return 0


def _cmd_fuzz(args) -> int:
    """Run (or resume) a fuzzing campaign; or verify the committed suite."""
    from pathlib import Path

    from repro.evaluation.engine import RetryPolicy
    from repro.fuzz import FuzzConfig, run_campaign
    from repro.fuzz.campaign import load_findings
    from repro.observability.report import render_findings
    from repro.workloads.adversarial import ADVERSARIAL_ENTRIES, verify_suite

    if args.verify_suite:
        rows = verify_suite(engine=_engine(args))
        print(format_table(
            ["workload", "method", "expected", "actual", "ok"],
            [
                (r["label"], r["method"], f"{r['expected']:.6f}",
                 f"{r['actual']:.6f}", "yes" if r["ok"] else "NO")
                for r in rows
            ],
        ))
        bad = [r for r in rows if not r["ok"]]
        if bad:
            print(
                f"error: {len(bad)} pinned adversarial error(s) no longer "
                "reproduce — a sampler or the generator changed behaviour",
                file=sys.stderr,
            )
            return 1
        print(f"{len(ADVERSARIAL_ENTRIES)} adversarial entries reproduce")
        return 0

    out = Path(args.out)
    engine = EvaluationEngine(
        EngineConfig(
            jobs=args.jobs,
            use_cache=not args.no_cache,
            cache_dir=Path(args.cache_dir) if args.cache_dir else None,
            quarantine_path=out / "quarantine.json",
            retry=RetryPolicy(
                max_attempts=args.max_attempts,
                deadline_s=args.deadline,
                backoff_base_s=0.01,
            ),
        )
    )
    _trace_artifacts["engine"] = engine
    config = FuzzConfig(
        seed=args.seed,
        budget=args.budget,
        max_invocations=args.max_invocations,
        threshold=args.threshold,
        top_k=args.top_k,
        fault_rate=args.fault_rate,
        chaos=args.chaos,
        shrink_steps=args.shrink_steps,
        jobs=args.jobs,
        deadline_s=args.deadline,
        max_attempts=args.max_attempts,
        out_dir=out,
        stop_after=args.stop_after,
    )
    result = run_campaign(config, engine=engine, resume=args.resume)
    if result.stopped_early:
        print(
            f"campaign paused: {result.scored}/{args.budget} candidates "
            f"scored (checkpoint: {result.checkpoint_path}); continue with "
            "--resume"
        )
        _report_engine(engine)
        return 0
    print(render_findings(load_findings(result.findings_path)))
    print(f"findings written to {result.findings_path}")
    _report_engine(engine)
    return 0


def _cmd_cache(args) -> int:
    """Inspect or clear the on-disk evaluation result cache."""
    from pathlib import Path

    directory = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
    cache = ResultCache(directory)
    if args.cache_command == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached results from {directory}")
        return 0
    entries = cache.entries()
    print(f"cache directory : {directory}")
    print(f"entries         : {len(entries)}")
    print(f"size            : {cache.size_bytes() / 1e6:.2f} MB")
    return 0


def _cmd_serve(args) -> int:
    """Run the sampling service in the foreground until interrupted."""
    import asyncio

    from repro.service.server import ServiceConfig, SieveService

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        window_s=args.window_s,
        max_batch=args.max_batch,
        jobs=args.jobs,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        deadline_s=args.deadline_s,
    )
    service = SieveService(config)
    _trace_artifacts["engine"] = service.engine

    async def _run() -> None:
        server = asyncio.create_task(service.serve())
        while service.port is None and not server.done():
            await asyncio.sleep(0.01)
        if service.port is not None:
            print(
                f"[serve] listening on http://{service.host}:{service.port} "
                f"(jobs={config.jobs}, window={config.window_s * 1000:.1f}ms)",
                file=sys.stderr,
            )
        await server

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("[serve] stopped", file=sys.stderr)
    return 0


def _cmd_loadgen(args) -> int:
    """Generate/replay a request schedule against a running service."""
    from repro.service import loadgen
    from repro.service.server import ServiceConfig, start_in_thread
    from repro.workloads.catalog import specs_for_suites

    if args.trace:
        requests = loadgen.load_trace(args.trace)
    else:
        if args.workloads:
            workloads = tuple(
                label.strip() for label in args.workloads.split(",") if label.strip()
            )
        else:
            workloads = tuple(
                f"{spec.suite}/{spec.name}"
                for spec in specs_for_suites(CHALLENGING_SUITES)
            )
        mix = loadgen.RequestMix(
            workloads=workloads,
            methods=tuple(
                name.strip() for name in args.methods.split(",") if name.strip()
            ),
            cap=args.cap if args.cap is not None else 400,
            predict_fraction=args.predict_fraction,
        )
        requests = loadgen.generate_requests(
            loadgen.parse_pattern(args.pattern), mix, args.requests, args.seed
        )
    if args.record:
        path = loadgen.save_trace(requests, args.record)
        print(f"[loadgen] trace written to {path}", file=sys.stderr)
    if args.dry_run:
        print(f"[loadgen] generated {len(requests)} requests (dry run)")
        return 0

    handle = None
    if args.spawn:
        handle = start_in_thread(
            ServiceConfig(
                jobs=args.jobs,
                use_cache=not args.no_cache,
                cache_dir=args.cache_dir,
            )
        )
        host, port = handle.host, handle.port
        print(f"[loadgen] spawned service at {handle.url}", file=sys.stderr)
    else:
        if args.port is None:
            print("error: --port is required without --spawn", file=sys.stderr)
            return 2
        host, port = args.host, args.port
    try:
        report = loadgen.run_loadgen(
            host,
            port,
            requests,
            clients=args.clients,
            open_loop=args.open_loop,
            timeout_s=args.timeout_s,
        )
    finally:
        if handle is not None:
            handle.stop()
    for key, value in report.summary().items():
        print(f"{key}: {value}")
    if args.bench_out:
        manifest = report.to_manifest()
        path = manifest.save(args.bench_out)
        print(f"[loadgen] manifest written to {path}", file=sys.stderr)
    return 1 if report.status_counts()["http_5xx"] else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sieve-repro",
        description="Regenerate experiments from the Sieve paper (ISPASS 2023)",
    )
    parser.add_argument(
        "--cap",
        type=int,
        default=None,
        help="cap invocations per workload (default: full Table I scale)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for engine-aware commands (fig3, fig8); "
        "1 = serial (default)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk evaluation result cache",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="evaluation result cache location (default: "
        "$SIEVE_REPRO_CACHE_DIR or ~/.cache/sieve-repro)",
    )
    parser.add_argument(
        "--inject-faults",
        metavar="MODE:RATE[,MODE:RATE...]",
        default=None,
        help="corrupt profiles/golden reference before sampling "
        "(modes: drop, truncate, duplicate, nan, negative, cycle_noise, "
        "clock_drift, zero_cycles); honored by fig3, fig8 and sample",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed for --inject-faults (default 0)",
    )
    parser.add_argument(
        "--quiet-diagnostics",
        action="store_true",
        help="suppress degraded-path diagnostics on stderr",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write a run manifest (per-stage timings, accuracy rows, "
        "cache stats, attribution, raw spans) to PATH as JSON; render it "
        "with 'sieve-repro report', export it with 'trace export'",
    )
    parser.add_argument(
        "--stream-spans",
        metavar="PATH",
        default=None,
        help="stream finished spans to PATH as JSONL while the command "
        "runs (crash-safe prefix; worker spans merge in task order)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "table1": _cmd_table1,
        "table2": _cmd_table2,
        "fig2": _cmd_fig2,
        "fig3": _cmd_fig3,
        "fig5": _cmd_fig5,
        "fig7": _cmd_fig7,
        "fig8": _cmd_fig8,
        "fig9": _cmd_fig9,
        "fig10": _cmd_fig10,
    }
    for name, handler in commands.items():
        sub.add_parser(name).set_defaults(handler=handler)
    sample = sub.add_parser("sample", help="run sampling methods on one workload")
    sample.add_argument("workload", nargs="?", default=None)
    sample.add_argument("--theta", type=float, default=0.4)
    sample.add_argument(
        "--method",
        default=None,
        help="registered method name(s), comma-separated "
        "(default: sieve,pks; see 'sieve-repro methods list')",
    )
    sample.add_argument(
        "--stream", action="store_true",
        help="consume the profile incrementally through the method's "
        "begin_stream surface instead of one batch select",
    )
    sample.add_argument(
        "--chunk-rows", type=int, default=4096, metavar="N",
        help="rows per streamed chunk (default 4096)",
    )
    sample.add_argument(
        "--reservoir", type=int, default=None, metavar="N",
        help="bound the per-kernel reservoir to N retained rows "
        "(default: unbounded, which keeps streaming == batch)",
    )
    sample.add_argument(
        "--from", dest="feed", default=None, metavar="FEED",
        help="stream a CSV/JSONL profile feed from FEED ('-' for stdin) "
        "instead of a catalog workload; implies a single method "
        "(default sieve)",
    )
    sample.add_argument(
        "--format", choices=("csv", "jsonl"), default=None,
        help="feed format (default: sniffed from suffix / first byte)",
    )
    sample.add_argument(
        "--verbose", action="store_true",
        help="print emit/retract events as the stream progresses",
    )
    sample.set_defaults(handler=_cmd_sample)

    compare = sub.add_parser(
        "compare",
        help="method scorecard on chosen workloads "
        "(default: Sieve vs PKS on the challenging suites, i.e. fig3)",
    )
    compare.add_argument(
        "workloads", nargs="*",
        help="workload labels (default: all challenging workloads)",
    )
    compare.add_argument("--theta", type=float, default=0.4)
    compare.add_argument(
        "--methods",
        default="sieve,pks",
        help="comma-separated registered method names to compare "
        "(default: sieve,pks; see 'sieve-repro methods list')",
    )
    compare.set_defaults(handler=_cmd_compare)

    methods = sub.add_parser(
        "methods", help="inspect the sampling-method registry"
    )
    methods.add_argument(
        "methods_command",
        nargs="?",
        choices=("list",),
        default="list",
        help="list (default): every registered method with its config schema",
    )
    methods.set_defaults(handler=_cmd_methods)

    report = sub.add_parser(
        "report",
        help="render run manifests; with exactly two, gate the second "
        "against the first and exit 1 on a failed row; with --against "
        "REV, gate them against the performance store",
    )
    report.add_argument(
        "manifests", nargs="+",
        help="manifest JSON file(s); two = baseline then current; with "
        "--against, all are repeated runs of the current code",
    )
    report.add_argument(
        "--max-slowdown", type=float, default=1.25,
        help="wall-time ratio tolerated when either side has a single "
        "run: the gate's single-sample limit (default 1.25)",
    )
    report.add_argument(
        "--against", metavar="REV", default=None,
        help="gate the manifests against the stored runs of REV (commit "
        "SHA, prefix or symbolic rev) with the same config, from the "
        "performance store",
    )
    report.add_argument(
        "--store", default=None,
        help="performance store directory (default: $SIEVE_PERFSTORE_DIR "
        "or ~/.cache/sieve-repro/perfstore)",
    )
    report.add_argument(
        "--figure", default=None,
        help="store figure key (default: inferred from the manifest command)",
    )
    report.add_argument(
        "--alpha", type=float, default=0.05,
        help="rank-test significance level (default 0.05)",
    )
    report.add_argument(
        "--min-ratio", type=float, default=1.10,
        help="practical-significance floor: median slowdown ratio "
        "(default 1.10)",
    )
    report.add_argument(
        "--min-seconds", type=float, default=0.05,
        help="practical-significance floor: absolute median slowdown "
        "(default 0.05)",
    )
    report.add_argument(
        "--verbose", action="store_true",
        help="also list indistinguishable and matched metrics",
    )
    report.set_defaults(handler=_cmd_report)

    perf = sub.add_parser(
        "perf",
        help="performance version store: list stored profiles, ingest "
        "manifests, walk a metric's lineage, locate regressions",
    )
    perf_sub = perf.add_subparsers(dest="perf_command", required=True)
    perf_list = perf_sub.add_parser(
        "list", help="stored versions, figures and run counts"
    )
    perf_ingest = perf_sub.add_parser(
        "ingest", help="record manifest file(s) into the store"
    )
    perf_ingest.add_argument("manifests", nargs="+",
                             help="manifest JSON file(s) to ingest")
    perf_ingest.add_argument(
        "--figure", default=None,
        help="figure key (default: inferred from each manifest's command)",
    )
    perf_ingest.add_argument(
        "--version", default=None,
        help="version to file the runs under (default: "
        "$SIEVE_PERFSTORE_VERSION or git HEAD)",
    )
    perf_log_p = perf_sub.add_parser(
        "log", help="one metric's distribution per stored version, oldest first"
    )
    perf_hint = perf_sub.add_parser(
        "bisect-hint",
        help="first version-to-version transition where the metric "
        "regressed (exit 1 when one is found)",
    )
    for p in (perf_list, perf_ingest, perf_log_p, perf_hint):
        p.add_argument(
            "--store", default=None,
            help="store directory (default: $SIEVE_PERFSTORE_DIR or "
            "~/.cache/sieve-repro/perfstore)",
        )
    for p in (perf_log_p, perf_hint):
        p.add_argument("--figure", default="fig3",
                       help="store figure key (default fig3)")
        p.add_argument(
            "--metric", default="total",
            help="metric selector: total, stage:<name>, agg:<key> or "
            "workload:<name>.<key> (default total)",
        )
    perf_log_p.add_argument("--limit", type=int, default=0,
                            help="newest N versions only (0 = all)")
    perf_hint.add_argument("--alpha", type=float, default=0.05)
    perf_hint.add_argument("--min-ratio", type=float, default=1.10)
    perf_hint.add_argument("--min-seconds", type=float, default=0.02)
    perf.set_defaults(handler=_cmd_perf)

    trace = sub.add_parser(
        "trace",
        help="selection traces and telemetry exports "
        "('trace <workload>' still writes selection traces)",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    selection = trace_sub.add_parser(
        "selection", help="write trace files for a workload's Sieve selection"
    )
    selection.add_argument("workload")
    selection.add_argument("--out", default="traces")
    selection.add_argument("--theta", type=float, default=0.4)
    selection.add_argument("--limit", type=int, default=None,
                           help="trace only the first N representatives")
    selection.add_argument("--max-warps", type=int, default=16)
    selection.add_argument("--max-insns", type=int, default=512)
    selection.set_defaults(handler=_cmd_trace)

    export = trace_sub.add_parser(
        "export",
        help="export telemetry: Chrome/Perfetto trace, canonical JSONL "
        "or Prometheus textfile",
    )
    export.add_argument(
        "workload", nargs="?", default=None,
        help="workload to evaluate before exporting (omit with --from-manifest)",
    )
    export.add_argument(
        "--format", choices=("chrome", "jsonl", "prometheus"), default="chrome"
    )
    export.add_argument(
        "--out", default=None,
        help="output path (default: trace.json / trace.jsonl / metrics.prom)",
    )
    export.add_argument(
        "--structural", action="store_true",
        help="jsonl only: drop timings/ids, leaving run-invariant structure",
    )
    export.add_argument("--theta", type=float, default=0.4)
    export.add_argument(
        "--methods", default="sieve,pks",
        help="methods to run before exporting (default: sieve,pks)",
    )
    export.add_argument(
        "--from-manifest", default=None,
        help="export from the spans/metrics a --trace-out manifest embedded",
    )
    export.set_defaults(handler=_cmd_trace_export)

    attribute = sub.add_parser(
        "attribute",
        help="decompose a method's prediction error into signed per-kernel "
        "and per-stratum contributions",
    )
    attribute.add_argument(
        "workload", nargs="?", default=None,
        help="workload to attribute (omit with --from-manifest)",
    )
    attribute.add_argument("--theta", type=float, default=0.4)
    attribute.add_argument(
        "--methods", default="sieve,pks",
        help="comma-separated registered method names (default: sieve,pks)",
    )
    attribute.add_argument(
        "--top", type=int, default=8,
        help="rows per table, ranked by |contribution| (default 8)",
    )
    attribute.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the attribution entries to PATH as JSON",
    )
    attribute.add_argument(
        "--from-manifest", default=None,
        help="render the attributions a --trace-out manifest recorded",
    )
    attribute.set_defaults(handler=_cmd_attribute)

    simulate = sub.add_parser(
        "simulate", help="cycle-level simulation of written trace files"
    )
    simulate.add_argument("directory")
    simulate.add_argument("--sms", type=int, default=2)
    simulate.set_defaults(handler=_cmd_simulate)

    validate = sub.add_parser(
        "validate", help="validate (and optionally repair) a profile CSV"
    )
    validate.add_argument("csv", help="profile CSV to validate")
    validate.add_argument(
        "--repair", metavar="OUT", default=None,
        help="write a repaired copy of the profile to OUT",
    )
    validate.add_argument(
        "--limit", type=int, default=50,
        help="max issues/actions to print (0 = all; default 50)",
    )
    validate.set_defaults(handler=_cmd_validate)

    fuzz = sub.add_parser(
        "fuzz",
        help="seeded adversarial fuzzing of the workload generator "
        "(mutate specs, score sampler error + stratification health, "
        "shrink the worst cases)",
    )
    fuzz.add_argument("--seed", default="sieve-fuzz",
                      help="campaign seed (default: sieve-fuzz)")
    fuzz.add_argument("--budget", type=int, default=32,
                      help="candidates to generate and score (default 32)")
    fuzz.add_argument("--threshold", type=float, default=0.12,
                      help="score above which a candidate is a finding "
                      "(default 0.12)")
    fuzz.add_argument("--top-k", type=int, default=3,
                      help="findings to shrink and report (default 3)")
    fuzz.add_argument("--max-invocations", type=int, default=2000,
                      help="invocation cap per candidate (default 2000)")
    fuzz.add_argument("--fault-rate", type=float, default=0.35,
                      help="probability a candidate composes a data-fault "
                      "plan (default 0.35)")
    fuzz.add_argument("--chaos", metavar="MODE:RATE[,...]", default=None,
                      help="task-surface chaos layered on every candidate "
                      "(modes: hang, crash, task_error) to exercise the "
                      "engine's isolation")
    fuzz.add_argument("--shrink-steps", type=int, default=24,
                      help="max engine evaluations per shrink (default 24)")
    fuzz.add_argument("--deadline", type=float, default=120.0,
                      help="per-attempt wall-clock deadline in seconds "
                      "(default 120)")
    fuzz.add_argument("--max-attempts", type=int, default=3,
                      help="attempts per task before it counts as failed "
                      "(default 3)")
    fuzz.add_argument("--out", default="fuzz-out",
                      help="campaign directory for checkpoint/findings/"
                      "quarantine (default fuzz-out)")
    fuzz.add_argument("--resume", action="store_true",
                      help="continue from the checkpoint in --out")
    fuzz.add_argument("--stop-after", type=int, default=None,
                      help="pause after scoring N new candidates "
                      "(checkpointing; mainly for testing --resume)")
    fuzz.add_argument("--verify-suite", action="store_true",
                      help="re-evaluate the committed adversarial suite "
                      "against its pinned errors and exit (1 on drift)")
    fuzz.set_defaults(handler=_cmd_fuzz, fuzz_command=None)
    fuzz_sub = fuzz.add_subparsers(dest="fuzz_command", required=False)
    promote = fuzz_sub.add_parser(
        "promote",
        help="promote a campaign's shrunk findings into the committed "
        "adversarial suite (re-pins errors, records provenance)",
    )
    promote.add_argument(
        "--findings", required=True,
        help="findings.json written by a completed campaign",
    )
    promote.add_argument(
        "--catalog", default=None,
        help="promoted-catalog path (default: adversarial_promoted.json "
        "next to the adversarial module, or $SIEVE_ADVERSARIAL_PROMOTED)",
    )
    promote.add_argument(
        "--limit", type=int, default=0,
        help="promote at most N findings, highest score first (0 = all)",
    )
    promote.add_argument(
        "--min-score", type=float, default=0.0,
        help="skip findings whose shrunk score is below this (default 0)",
    )
    promote.set_defaults(handler=_cmd_fuzz_promote)

    serve = sub.add_parser(
        "serve",
        help="run the sampling-as-a-service HTTP server "
        "(POST /v1/select, /v1/predict; GET /v1/methods, /v1/healthz, "
        "/v1/metrics)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8712,
        help="listen port (default 8712; 0 = ephemeral)",
    )
    serve.add_argument(
        "--window-s", type=float, default=0.005, dest="window_s",
        help="micro-batching window in seconds (default 0.005)",
    )
    serve.add_argument(
        "--max-batch", type=int, default=32,
        help="max engine tasks per batch (default 32)",
    )
    serve.add_argument(
        "--deadline-s", type=float, default=120.0, dest="deadline_s",
        help="per-attempt task deadline in seconds (default 120)",
    )
    serve.set_defaults(handler=_cmd_serve)

    loadgen = sub.add_parser(
        "loadgen",
        help="drive the service with seeded synthetic traffic or a "
        "recorded trace and report throughput/latency",
    )
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument(
        "--port", type=int, default=None,
        help="target service port (required unless --spawn)",
    )
    loadgen.add_argument(
        "--spawn", action="store_true",
        help="boot a private service in-process for the run",
    )
    loadgen.add_argument(
        "--pattern", default="poisson:50",
        help="arrival pattern: static:RATE, poisson:RATE or "
        "dynamic:RATE@FRAC,... (default poisson:50)",
    )
    loadgen.add_argument(
        "--requests", type=int, default=64,
        help="number of requests to generate (default 64)",
    )
    loadgen.add_argument(
        "--clients", type=int, default=8,
        help="concurrent client connections (default 8)",
    )
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument(
        "--workloads", default=None,
        help="comma-separated catalog labels "
        "(default: the challenging suites)",
    )
    loadgen.add_argument(
        "--methods", default="sieve,pks",
        help="comma-separated method names to mix (default sieve,pks)",
    )
    loadgen.add_argument(
        "--predict-fraction", type=float, default=0.5, dest="predict_fraction",
        help="fraction of requests hitting /v1/predict (default 0.5)",
    )
    loadgen.add_argument(
        "--open-loop", action="store_true", dest="open_loop",
        help="honor the schedule's arrival offsets instead of "
        "closed-loop max pressure",
    )
    loadgen.add_argument(
        "--timeout-s", type=float, default=60.0, dest="timeout_s",
        help="per-request client timeout (default 60)",
    )
    loadgen.add_argument(
        "--trace", default=None,
        help="replay a recorded JSONL trace instead of generating",
    )
    loadgen.add_argument(
        "--record", default=None,
        help="save the generated schedule as a JSONL trace",
    )
    loadgen.add_argument(
        "--dry-run", action="store_true", dest="dry_run",
        help="generate (and optionally --record) without running",
    )
    loadgen.add_argument(
        "--bench-out", default=None, dest="bench_out",
        help="write a BENCH_service-style manifest to PATH",
    )
    loadgen.set_defaults(handler=_cmd_loadgen)

    cache = sub.add_parser(
        "cache", help="inspect or clear the on-disk evaluation result cache"
    )
    cache.add_argument(
        "cache_command",
        nargs="?",
        choices=("stats", "clear"),
        default="stats",
        help="stats (default) or clear",
    )
    cache.set_defaults(handler=_cmd_cache)
    return parser


def _trace_config(args) -> dict:
    """The JSON-able slice of parsed args worth pinning in a manifest."""
    config = {"cap": args.cap, "jobs": args.jobs, "cache": not args.no_cache}
    for key in ("theta", "workload", "workloads", "inject_faults", "fault_seed"):
        value = getattr(args, key, None)
        if value:
            config[key] = value
    return config


def _write_manifest(args, captured: list[dict]) -> None:
    from datetime import datetime, timezone

    manifest = obs_manifest.collect_manifest(
        f"sieve-repro {args.command}",
        config=_trace_config(args),
        engine=_trace_artifacts.get("engine"),
        workloads=_trace_artifacts.get("workloads", ()),
        aggregates=_trace_artifacts.get("aggregates"),
        diagnostics=captured,
        since=_trace_artifacts["spans_mark"],
        events_since=_trace_artifacts["events_mark"],
        created=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        include_spans=True,
        attribution=_trace_artifacts.get("attribution", ()),
    )
    path = manifest.save(args.trace_out)
    print(f"[trace] manifest written to {path}", file=sys.stderr)
    # Auto-record into the performance store when SIEVE_PERFSTORE_DIR is
    # set — every traced run becomes a data point for the statistical gate.
    from repro.perfstore.store import maybe_record

    maybe_record(manifest)


#: Global flags that consume the next token; the trace shim must skip
#: their values when hunting for the subcommand position.
_VALUE_FLAGS = frozenset(
    {
        "--cap", "--jobs", "--cache-dir", "--inject-faults", "--fault-seed",
        "--trace-out", "--stream-spans",
    }
)


def _shim_trace_argv(argv: list[str]) -> list[str]:
    """Keep ``trace <workload>`` working now that trace has subcommands.

    ``trace`` grew ``selection``/``export`` subparsers; historical usage
    (``sieve-repro trace cactus/gru --out dir``) is rewritten to
    ``trace selection ...`` before parsing.
    """
    index = 0
    while index < len(argv):
        token = argv[index]
        if token in _VALUE_FLAGS:
            index += 2
            continue
        if token.startswith("-"):
            index += 1
            continue
        if token == "trace":
            following = argv[index + 1] if index + 1 < len(argv) else None
            if following not in ("selection", "export", "-h", "--help", None):
                return argv[: index + 1] + ["selection"] + argv[index + 1 :]
        return argv
    return argv


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(_shim_trace_argv(argv))
    unsubscribe = None
    if not args.quiet_diagnostics:
        unsubscribe = diagnostics.subscribe(
            lambda record: print(str(record), file=sys.stderr)
        )
    captured: list[dict] = []
    capture_unsubscribe = diagnostics.subscribe(
        lambda record: captured.append(
            {
                "severity": record.severity,
                "source": record.source,
                "message": record.message,
            }
        )
    )
    _trace_artifacts.clear()
    _trace_artifacts["spans_mark"] = obs_spans.mark()
    _trace_artifacts["events_mark"] = obs_manifest.events_mark()
    stream_sink = None
    if args.stream_spans:
        from repro.observability.export import JsonlStreamSink

        stream_sink = JsonlStreamSink(args.stream_spans)
        obs_spans.add_sink(stream_sink)
    try:
        if args.inject_faults and args.command not in FAULT_AWARE_COMMANDS:
            diagnostics.emit(
                "cli",
                f"--inject-faults is not supported by {args.command!r} and was "
                f"ignored (supported: {', '.join(sorted(FAULT_AWARE_COMMANDS))})",
            )
        if args.jobs != 1 and args.command not in ENGINE_AWARE_COMMANDS:
            diagnostics.emit(
                "cli",
                f"--jobs is not supported by {args.command!r} and was ignored "
                f"(supported: {', '.join(sorted(ENGINE_AWARE_COMMANDS))})",
            )
        with span(f"cli.{args.command}"):
            exit_code = args.handler(args) or 0
        if args.trace_out:
            _write_manifest(args, captured)
        return exit_code
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — not an error.
        return 0
    except SieveError as exc:
        # Typed pipeline failures get a clean one-liner, not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if stream_sink is not None:
            obs_spans.remove_sink(stream_sink)
            stream_sink.close()
        capture_unsubscribe()
        if unsubscribe is not None:
            unsubscribe()


if __name__ == "__main__":
    sys.exit(main())
