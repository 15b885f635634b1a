"""One pass of a batch workload (compare, scale, stream) in a fresh interpreter.

``python3 -m perfbench.child JOB.json`` reads its job, imports the
program, builds the engine or reader, and notes the moment the first op
could start: the parent subtracts its own spawn time from that to get
one cold-start sample. Unless the job is set-up only, it then runs one
timed pass and writes what it measured and what the program answered to
the job's ``out`` file. The answers are checked by the parent.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from pathlib import Path


def engine_tasks(job: dict) -> list:
    """The evaluation tasks of a compare or scale pass."""
    from repro.evaluation.engine import EvaluationTask

    if job["workload"] == "compare":
        return [EvaluationTask(label, max_invocations=job["cap"]) for label in job["labels"]]
    from repro.workloads.spec import WorkloadSpec

    return [
        EvaluationTask(
            f"synthetic/{name}",
            spec=WorkloadSpec(
                name=name,
                suite="synthetic",
                num_kernels=job["kernels"],
                num_invocations=job["invocations"],
                tier_fractions=(0.5, 0.5, 0.0),
            ),
            methods=("sieve",),
        )
        for name in job["names"]
    ]


def project(results) -> dict:
    """The numeric outputs the benchmark pins, per workload or fixture."""
    return {
        result.label.removeprefix("synthetic/"): {
            "invocations": result.results["sieve"].selection.num_invocations,
            **{
                method: {
                    "error": r.error,
                    "predicted_cycles": r.predicted_cycles,
                    "representatives": r.num_representatives,
                }
                for method, r in result.results.items()
            },
        }
        for result in results
    }


def _prepare(job: dict):
    """Imports and construction; returns ``op() -> (ops, outputs)``."""
    if job["workload"] in ("compare", "scale"):
        from repro.evaluation.engine import EngineConfig, EvaluationEngine

        engine = EvaluationEngine(
            EngineConfig(jobs=job["jobs"], cache_dir=Path(job["cache_dir"]))
        )
        tasks = engine_tasks(job)

        def op():
            outputs = project(engine.run(tasks))
            engine.close()
            return sum(o["invocations"] for o in outputs.values()), outputs

        return op

    from repro.core.config import SieveConfig
    from repro.methods import get_method
    from repro.profiling.csv_io import ProfileTableReader
    from repro.streaming.base import StreamContext

    reader = ProfileTableReader(job["feed"], chunk_rows=job["chunk_rows"], fmt="csv")
    stream = get_method("sieve").begin_stream(
        StreamContext(workload=job["feed_workload"], reservoir_rows=job["reservoir_rows"]),
        SieveConfig(),
    )

    def op():
        for chunk in reader:
            stream.observe(chunk)
        selection = stream.finalize()
        return reader.rows_read, picks_of(selection)

    return op


def picks_of(selection) -> dict:
    """The comparable content of a selection (streamed or batch)."""
    return {
        "workload": selection.workload,
        "num_invocations": int(selection.num_invocations),
        "total_instructions": int(selection.total_instructions),
        "representatives": [
            [r.kernel_name, int(r.kernel_id), int(r.invocation_id), int(r.row),
             float(r.weight), r.group, int(r.group_size)]
            for r in selection.representatives
        ],
    }


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    out = Path(job["out"])
    try:
        op = _prepare(job)
        ready = time.monotonic()
        from perfbench.system import cpu_ticks, peak_rss_mb

        ready_ticks = cpu_ticks()
        if job["setup_only"]:
            out.write_text(json.dumps({"ready": ready, "ready_ticks": ready_ticks}))
            return 0
        from repro.observability import spans

        tracer = None
        if job["trace_dir"]:
            from perfbench.tracing import install

            tracer = install(Path(job["trace_dir"]))
        mark0 = spans.mark()
        steal0, busy0, total0 = cpu_ticks()
        t0 = time.monotonic()
        ops, outputs = op()
        t1 = time.monotonic()
        steal1, busy1, total1 = cpu_ticks()
        mark1 = spans.mark()
        if tracer is not None:
            tracer.flush()
        result = {
            "ready": ready,
            "ready_ticks": ready_ticks,
            "t0": t0,
            "t1": t1,
            "ops": ops,
            "outputs": outputs,
            "rss_mb": peak_rss_mb(),
            "steal_ticks": steal1 - steal0,
            "busy_ticks": busy1 - busy0,
            "cpu_ticks": total1 - total0,
            "program_spans": mark1 - mark0,
        }
    except Exception:
        result = {"error": traceback.format_exc()}
    out.write_text(json.dumps(result))
    return 0 if "error" not in result else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
