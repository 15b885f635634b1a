"""Time-boxed fuzz-campaign smoke check (run in CI).

Drives the full ``repro.fuzz`` path end to end at a small fixed budget
and asserts the contracts the fuzzer promises:

* a campaign is byte-deterministic: two runs of the same config produce
  identical ``findings.json`` files (the second runs cache-warm);
* a campaign interrupted after ``--stop-after`` candidates resumes to
  the same bytes as an uninterrupted run;
* injected task-surface chaos (crashes + raised task errors) never
  aborts the campaign and never changes a surviving candidate's score;
* the committed adversarial suite still reproduces its pinned errors.

The campaign output (findings + checkpoint + quarantine list) is left
under ``--out`` so CI can upload it as an artifact.

Usage::

    PYTHONPATH=src python scripts/fuzz_smoke.py [--budget N] [--cap N] \\
        [--out DIR]

Exits non-zero (with a diagnostic) on any violation.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from repro.evaluation.engine import EngineConfig, EvaluationEngine, RetryPolicy
from repro.fuzz import FuzzConfig, run_campaign
from repro.workloads.adversarial import verify_suite

SEED = "ci-smoke"
CHAOS = "crash:0.25,task_error:0.25"


def engine_for(cache: Path, out: Path, max_attempts: int = 2) -> EvaluationEngine:
    return EvaluationEngine(
        EngineConfig(
            jobs=1,
            use_cache=True,
            cache_dir=cache,
            quarantine_path=out / "quarantine.json",
            retry=RetryPolicy(
                max_attempts=max_attempts, deadline_s=120.0, backoff_base_s=0.01
            ),
        )
    )


def config_for(out: Path, budget: int, cap: int, **overrides) -> FuzzConfig:
    fields = dict(
        seed=SEED,
        budget=budget,
        methods=("sieve", "pks"),
        max_invocations=cap,
        threshold=0.05,
        top_k=2,
        shrink_steps=6,
        out_dir=out,
    )
    fields.update(overrides)
    return FuzzConfig(**fields)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--budget", type=int, default=6)
    parser.add_argument("--cap", type=int, default=600)
    parser.add_argument("--out", type=Path, default=Path("fuzz-smoke"))
    args = parser.parse_args(argv)

    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    failures: list[str] = []

    with tempfile.TemporaryDirectory(prefix="sieve-fuzz-smoke-") as tmp:
        cache = Path(tmp) / "cache"

        # --- determinism: cold vs cache-warm rerun ----------------------
        first = run_campaign(
            config_for(out / "first", args.budget, args.cap),
            engine=engine_for(cache, out / "first"),
        )
        second = run_campaign(
            config_for(out / "second", args.budget, args.cap),
            engine=engine_for(cache, out / "second"),
        )
        first_bytes = first.findings_path.read_bytes()
        print(
            f"campaign: scored {first.scored}, failed {first.failed}, "
            f"findings {len(first.findings)}"
        )
        if first_bytes != second.findings_path.read_bytes():
            failures.append("cache-warm rerun produced different findings.json")

        # --- interruption + resume --------------------------------------
        resumed_out = out / "resumed"
        paused = run_campaign(
            config_for(resumed_out, args.budget, args.cap, stop_after=2),
            engine=engine_for(cache, resumed_out),
        )
        if not paused.stopped_early or paused.findings_path is not None:
            failures.append("stop-after campaign did not pause")
        resumed = run_campaign(
            config_for(resumed_out, args.budget, args.cap),
            engine=engine_for(cache, resumed_out),
            resume=True,
        )
        print(f"resume: paused at {paused.scored}, resumed to {resumed.scored}")
        if resumed.findings_path.read_bytes() != first_bytes:
            failures.append("resumed campaign diverged from uninterrupted run")

        # --- chaos survival ----------------------------------------------
        chaos_out = out / "chaos"
        chaotic = run_campaign(
            config_for(chaos_out, args.budget, args.cap, chaos=CHAOS),
            engine=engine_for(Path(tmp) / "chaos-cache", chaos_out, max_attempts=1),
        )
        print(
            f"chaos: scored {chaotic.scored}, failed {chaotic.failed} "
            f"(chaos={CHAOS!r})"
        )
        if chaotic.scored != args.budget:
            failures.append(
                f"chaos campaign aborted early: scored {chaotic.scored} of "
                f"{args.budget}"
            )
        clean_scores = {
            record["index"]: record["score"]["score"]
            for record in json.loads(
                (out / "first" / "checkpoint.json").read_text()
            )["scored"].values()
        }
        survivors = 0
        for record in json.loads(
            (chaos_out / "checkpoint.json").read_text()
        )["scored"].values():
            if record["status"] != "ok":
                continue
            survivors += 1
            if record["score"]["score"] != clean_scores[record["index"]]:
                failures.append(
                    f"chaos changed candidate {record['index']}'s score"
                )
        if survivors == 0:
            failures.append("chaos campaign had no surviving candidates")

        # --- committed adversarial suite ---------------------------------
        rows = verify_suite(
            engine=engine_for(Path(tmp) / "suite-cache", out)
        )
        drifted = [row for row in rows if not row["ok"]]
        print(f"adversarial suite: {len(rows)} pinned errors checked")
        for row in drifted:
            failures.append(
                f"adversarial drift {row['label']}/{row['method']}: "
                f"expected {row['expected']}, got {row['actual']}"
            )

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("fuzz smoke OK: deterministic, resumable, chaos-tolerant")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
