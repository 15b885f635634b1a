"""The fuzzing campaign: generate → evaluate → score → shrink → report.

A campaign is identified by ``(seed, budget)`` and is deterministic end
to end: candidate ``i`` is a pure function of ``(seed, i)``
(:mod:`repro.fuzz.mutation`), evaluation is the engine's seeded
pipeline, scoring is arithmetic, and shrinking walks a deterministic
proposal order. Two runs of the same campaign therefore write
byte-identical ``findings.json`` files — the property the CI smoke job
pins — and a killed campaign resumes from its checkpoint by simply
skipping already-scored indices.

Candidates run through :meth:`~repro.evaluation.engine.EvaluationEngine.
run_isolated`, so a candidate that hangs or crashes the worker (chaos
mode injects exactly those) costs one deadline or one task, never the
campaign.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.evaluation.engine import (
    EngineConfig,
    EvaluationEngine,
    EvaluationTask,
    RetryPolicy,
)
from repro.fuzz.mutation import Candidate, make_candidate
from repro.fuzz.scoring import CandidateScore, ScoreWeights, score_results
from repro.fuzz.shrink import shrink_candidate
from repro.observability import manifest as obs_manifest
from repro.observability import metrics
from repro.observability.spans import span
from repro.robustness import diagnostics
from repro.robustness.faults import FaultPlan, parse_fault_plan
from repro.utils.atomic import atomic_write
from repro.utils.errors import CheckpointError, FuzzError
from repro.utils.hashing import stable_hash
from repro.utils.validation import require

CHECKPOINT_SCHEMA = 1
FINDINGS_SCHEMA = 1


@dataclass(frozen=True)
class FuzzConfig:
    """Everything that identifies and sizes one fuzzing campaign."""

    seed: str = "sieve-fuzz"
    budget: int = 32
    methods: tuple[str, ...] = ("sieve", "pks")
    max_invocations: int = 2000
    #: Score above which a candidate is a finding.
    threshold: float = 0.12
    #: Findings to shrink and report (highest score first).
    top_k: int = 3
    #: Probability a candidate composes a data-corruption fault plan.
    fault_rate: float = 0.35
    #: Task-surface chaos (``"crash:0.2,hang:0.05"``) layered on every
    #: candidate — exercises the engine's isolation, never the data.
    chaos: str | None = None
    shrink_steps: int = 24
    weights: ScoreWeights = ScoreWeights()
    out_dir: Path = field(default_factory=lambda: Path("fuzz-out"))
    #: Stop (checkpointing) after scoring this many new candidates —
    #: the hook the resume tests use to simulate a killed campaign.
    stop_after: int | None = None

    def __post_init__(self) -> None:
        require(self.budget >= 1, "budget must be >= 1", FuzzError)
        require(len(self.methods) >= 1, "need at least one method", FuzzError)
        require(self.threshold >= 0, "threshold must be >= 0", FuzzError)
        require(self.top_k >= 0, "top_k must be >= 0", FuzzError)
        require(0 <= self.fault_rate <= 1, "fault_rate in [0, 1]", FuzzError)

    def fingerprint(self) -> str:
        """Identity of the campaign's *candidate stream* and scoring.

        A checkpoint written under one fingerprint cannot resume a
        campaign with a different one (the scores would not be
        comparable). The budget is deliberately excluded: extending a
        campaign's budget keeps every already-scored candidate valid.
        """
        return stable_hash(
            "fuzz-campaign",
            self.seed,
            list(self.methods),
            self.max_invocations,
            self.threshold,
            self.fault_rate,
            self.chaos,
            self.weights,
        )

    def chaos_plan(self) -> tuple | None:
        """Parsed task-surface chaos specs (validated once)."""
        if not self.chaos:
            return None
        plan = parse_fault_plan(self.chaos, seed=0)
        for spec in plan.specs:
            require(
                spec.mode in ("hang", "crash", "task_error"),
                f"chaos accepts task-surface modes only, got {spec.mode!r}",
                FuzzError,
            )
        return plan.specs


@dataclass
class CampaignResult:
    """What a campaign produced (or where it stopped)."""

    findings: list[dict]
    scored: int
    failed: int
    findings_path: Path | None
    checkpoint_path: Path
    stopped_early: bool = False


def _task_for(candidate: Candidate, config: FuzzConfig) -> EvaluationTask:
    """The engine task evaluating one candidate (chaos layered on)."""
    plan = candidate.fault_plan
    chaos_specs = config.chaos_plan()
    if chaos_specs:
        base_specs = plan.specs if plan is not None else ()
        plan = FaultPlan(specs=(*base_specs, *chaos_specs), seed=candidate.index)
    return EvaluationTask(
        label=candidate.label,
        max_invocations=config.max_invocations,
        fault_plan=plan,
        methods=config.methods,
        spec=candidate.spec,
    )


def _register_in_perfstore(kind: str, config: FuzzConfig, payload: dict) -> None:
    """Attach a campaign artifact to the perf version store (env-gated).

    No-op unless ``SIEVE_PERFSTORE_DIR`` is set; failures degrade to a
    diagnostic — fuzz campaigns must never die on telemetry.
    """
    from repro.perfstore.store import maybe_attach

    maybe_attach(kind, f"{config.seed}-{config.fingerprint()[:8]}", payload)


def _write_json(path: Path, payload: dict) -> None:
    with atomic_write(path) as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _load_checkpoint(path: Path, config: FuzzConfig) -> dict[int, dict]:
    """Scored-candidate records from a previous run of this campaign."""
    if not path.exists():
        return {}
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise CheckpointError(
            f"unreadable checkpoint {path}: {exc}", path=str(path)
        ) from exc
    if payload.get("schema") != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            "checkpoint schema mismatch",
            path=str(path),
            found=payload.get("schema"),
            expected=CHECKPOINT_SCHEMA,
        )
    if payload.get("fingerprint") != config.fingerprint():
        raise CheckpointError(
            "checkpoint belongs to a different campaign configuration "
            "(seed/methods/threshold/chaos changed); delete it or match "
            "the original flags",
            path=str(path),
        )
    return {int(index): record for index, record in payload["scored"].items()}


def _save_checkpoint(
    path: Path, config: FuzzConfig, scored: dict[int, dict]
) -> None:
    _write_json(
        path,
        {
            "schema": CHECKPOINT_SCHEMA,
            "fingerprint": config.fingerprint(),
            "seed": config.seed,
            "scored": {str(index): scored[index] for index in sorted(scored)},
        },
    )


def _score_outcomes(
    engine: EvaluationEngine,
    candidates: list[Candidate],
    config: FuzzConfig,
) -> list[dict]:
    """Evaluate a batch of candidates; one scored record per candidate."""
    tasks = [_task_for(candidate, config) for candidate in candidates]
    outcomes = engine.run_isolated(tasks)
    records = []
    for candidate, outcome in zip(candidates, outcomes):
        record = {
            "index": candidate.index,
            "label": candidate.label,
            "base_label": candidate.base_label,
            "status": outcome.status,
            "score": None,
        }
        if outcome.ok:
            record["score"] = score_results(
                outcome.results, config.weights
            ).to_dict()
        metrics.inc("fuzz.candidates", status=outcome.status)
        records.append(record)
    return records


def run_campaign(
    config: FuzzConfig,
    engine: EvaluationEngine | None = None,
    resume: bool = False,
) -> CampaignResult:
    """Run (or resume) a fuzzing campaign; see the module docstring.

    Writes ``checkpoint.json`` after every batch and, on completion,
    ``findings.json`` (byte-deterministic for a fixed config) under
    ``config.out_dir``. Candidates run on ``engine``'s workers under its
    retry policy (``engine.config.retry``); the default engine has one
    worker, three attempts of up to 120 s each and its quarantine list
    in ``config.out_dir``.
    """
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    checkpoint_path = out_dir / "checkpoint.json"
    findings_path = out_dir / "findings.json"
    if engine is None:
        engine = EvaluationEngine(
            EngineConfig(
                quarantine_path=out_dir / "quarantine.json",
                retry=RetryPolicy(
                    max_attempts=3, deadline_s=120.0, backoff_base_s=0.01
                ),
            )
        )
    scored = _load_checkpoint(checkpoint_path, config) if resume else {}
    if not resume and checkpoint_path.exists():
        diagnostics.emit(
            "fuzz",
            f"overwriting existing checkpoint {checkpoint_path} "
            "(pass --resume to continue it)",
        )
    with span("fuzz.campaign", seed=config.seed, budget=config.budget):
        obs_manifest.record_event(
            "fuzz.campaign_start",
            seed=config.seed,
            budget=config.budget,
            resumed=len(scored),
            chaos=config.chaos,
        )
        remaining = [i for i in range(config.budget) if i not in scored]
        batch_size = max(4, 2 * engine.config.jobs)
        new_scores = 0
        stopped_early = False
        with span("fuzz.scoring", candidates=len(remaining)):
            for start in range(0, len(remaining), batch_size):
                if config.stop_after is not None and new_scores >= config.stop_after:
                    stopped_early = True
                    break
                batch_indices = remaining[start : start + batch_size]
                if config.stop_after is not None:
                    batch_indices = batch_indices[: config.stop_after - new_scores]
                candidates = [
                    make_candidate(config.seed, i, config.fault_rate)
                    for i in batch_indices
                ]
                for record in _score_outcomes(engine, candidates, config):
                    scored[record["index"]] = record
                    new_scores += 1
                _save_checkpoint(checkpoint_path, config, scored)
            else:
                stopped_early = (
                    config.stop_after is not None
                    and len(scored) < config.budget
                )
        failed = sum(1 for r in scored.values() if r["status"] != "ok")
        if stopped_early:
            obs_manifest.record_event(
                "fuzz.campaign_paused", scored=len(scored), budget=config.budget
            )
            _register_in_perfstore(
                "fuzz-checkpoint",
                config,
                {
                    "seed": config.seed,
                    "fingerprint": config.fingerprint(),
                    "scored": len(scored),
                    "budget": config.budget,
                    "checkpoint": str(checkpoint_path),
                },
            )
            return CampaignResult(
                findings=[],
                scored=len(scored),
                failed=failed,
                findings_path=None,
                checkpoint_path=checkpoint_path,
                stopped_early=True,
            )
        # --- select findings -------------------------------------------
        hits = [
            record
            for record in scored.values()
            if record["score"] is not None
            and record["score"]["score"] >= config.threshold
        ]
        hits.sort(key=lambda r: (-r["score"]["score"], r["index"]))
        hits = hits[: config.top_k]
        # --- shrink each finding to a minimal reproducer ----------------
        findings = []
        with span("fuzz.shrink", findings=len(hits)):
            for record in hits:
                candidate = make_candidate(
                    config.seed, record["index"], config.fault_rate
                )
                original = CandidateScore.from_dict(record["score"])

                def evaluate(proposal: Candidate) -> CandidateScore | None:
                    outcome = engine.run_isolated([_task_for(proposal, config)])[0]
                    if not outcome.ok:
                        return None
                    return score_results(outcome.results, config.weights)

                shrunk, shrunk_score, steps = shrink_candidate(
                    candidate,
                    original,
                    evaluate,
                    config.threshold,
                    max_steps=config.shrink_steps,
                )
                finding = {
                    "index": record["index"],
                    "label": record["label"],
                    "base_label": record["base_label"],
                    "score": record["score"],
                    "candidate": candidate.to_dict(),
                    "shrunk": shrunk.to_dict(),
                    "shrunk_score": shrunk_score.to_dict(),
                    "shrink_steps": steps,
                    "repro": (
                        f"sieve-repro fuzz --seed {config.seed} "
                        f"--budget {config.budget} "
                        f"--threshold {config.threshold:g} "
                        f"--max-invocations {config.max_invocations}"
                    ),
                }
                findings.append(finding)
                metrics.inc("fuzz.findings")
                obs_manifest.record_event(
                    "fuzz.finding",
                    index=record["index"],
                    label=record["label"],
                    score=record["score"]["score"],
                    shrunk_score=shrunk_score.score,
                )
        # --- report -----------------------------------------------------
        statuses: dict[str, int] = {}
        for record in scored.values():
            statuses[record["status"]] = statuses.get(record["status"], 0) + 1
        payload = {
            "schema": FINDINGS_SCHEMA,
            "campaign": {
                "seed": config.seed,
                "budget": config.budget,
                "methods": list(config.methods),
                "max_invocations": config.max_invocations,
                "threshold": config.threshold,
                "top_k": config.top_k,
                "fault_rate": config.fault_rate,
                "chaos": config.chaos,
                "fingerprint": config.fingerprint(),
            },
            "summary": {
                "scored": len(scored),
                "ok": len(scored) - failed,
                "failed": failed,
                "statuses": statuses,
                "findings": len(findings),
            },
            "findings": findings,
        }
        _write_json(findings_path, payload)
        _register_in_perfstore("fuzz-findings", config, payload)
        obs_manifest.record_event(
            "fuzz.campaign_complete",
            scored=len(scored),
            failed=failed,
            findings=len(findings),
        )
        return CampaignResult(
            findings=findings,
            scored=len(scored),
            failed=failed,
            findings_path=findings_path,
            checkpoint_path=checkpoint_path,
        )


def load_findings(path: Path | str) -> dict:
    """Load and schema-check a findings file."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise FuzzError(f"unreadable findings file {path}: {exc}") from exc
    require(
        payload.get("schema") == FINDINGS_SCHEMA,
        f"findings schema mismatch in {path}",
        FuzzError,
    )
    return payload
