"""Run one benchmark workload against the program and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload compare --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
separate traced run and prints the per-layer metrics, a layer
self-time table and the tracing overhead. Every output is checked; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("compare", "scale", "stream", "serve")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument(
        "--sizes", default="full", choices=("full", "tiny"),
        help="input sizes; 'tiny' runs every path in seconds (the benchmark's tests)",
    )
    parser.add_argument(
        "--expected", type=Path, default=ROOT / "perfbench" / "expected.json",
        help="pinned compare/scale outputs (default: perfbench/expected.json)",
    )
    parser.add_argument(
        "--require-layer", action="append", default=[], metavar="LAYER",
        help="also require this layer's wrappers to fire in the traced run",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def build(src: Path) -> None:
    """Byte-compile the program, so cold starts read cached bytecode."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(src)],
        check=True, stdout=subprocess.DEVNULL, timeout=300,
    )


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src}/repro; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    from perfbench import system

    # A run stops what it started on every way out: SIGTERM unwinds like
    # Ctrl-C, and descendants orphaned by a killed child are re-parented
    # here, to be stopped and waited for before exit.
    signal.signal(signal.SIGTERM, _terminated)
    system.adopt_orphans()
    try:
        return measure(args, src)
    finally:
        if leftover := system.stop_children():
            print(f"perfbench: stopped leftover processes {leftover}", file=sys.stderr)


def _terminated(signum, frame):
    raise SystemExit(128 + signum)


def measure(args: argparse.Namespace, src: Path) -> int:
    build(src)

    from perfbench import inputs, system
    from perfbench.batch import load_expected, run_batch
    from perfbench.harness import END_TO_END, PER_LAYER, BenchError, HostSpeed, Run
    from perfbench.serve import run_serve
    from perfbench.tracing import TraceError

    work = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    # Everything the program and the checks write stays in the checkout.
    os.environ["TMPDIR"] = str(work / "tmp")
    os.environ["SIEVE_REPRO_CACHE_DIR"] = str(work / "default-cache")
    os.environ["PYTHONPATH"] = os.pathsep.join([str(src), str(ROOT)])
    os.environ.pop("SIEVE_PERFSTORE_DIR", None)
    run = Run(
        root=ROOT, workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), sizes=inputs.SIZES[args.sizes], work=work,
        expected=(
            load_expected(args.expected, args.sizes)
            if args.workload in ("compare", "scale") else {}
        ),
        extra_required=tuple(args.require_layer),
    )
    started = time.monotonic()
    try:
        run.host = HostSpeed(run)
        outcome = run_serve(run) if args.workload == "serve" else run_batch(run)
    except (BenchError, TraceError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {args.workload} failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if run.host is not None:
            run.host.stop()
        shutil.rmtree(work, ignore_errors=True)

    wanted = PER_LAYER if args.trace else END_TO_END
    values = outcome.layers if args.trace else outcome.metrics
    missing = [name for name, _, _ in wanted if name not in values]
    if missing:
        for line in outcome.lines:
            print(line, file=sys.stderr)
        print(f"perfbench: {args.workload} measured nothing for {', '.join(missing)}",
              file=sys.stderr)
        return 1

    env = system.environment()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "sizes": args.sizes, "environment": env,
        "wall_s": time.monotonic() - started, **outcome.record,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "metrics": outcome.metrics, "layers": outcome.layers,
    }
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True)
    )

    print(f"perfbench {args.workload}: seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}, sizes {args.sizes}")
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"inputs: {json.dumps(outcome.record.get('input_digests', {}), sort_keys=True)}")
    ticks = outcome.record.get("cpu_ticks", 0)
    if ticks:
        steal, busy = outcome.record["steal_ticks"], outcome.record["busy_ticks"]
        print(f"cpu over timed windows: {ticks} ticks, {busy} busy, {steal} stolen "
              f"({1 - system.unstolen(steal, busy):.2%} of the time asked for)")
    for line in outcome.lines:
        print(line)
    for name, unit, _ in wanted:
        print(f"{name:<32}{values[name]:>16.6g} {unit}")
    print(f"ops attempted {outcome.attempted}, failed {outcome.failed}")
    print(json.dumps({
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
