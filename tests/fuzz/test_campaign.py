"""Campaign tests: byte-determinism, checkpoint/resume, chaos survival.

These run real (tiny) campaigns — budget 3-4 at a 400-invocation cap —
so they exercise the full candidate → engine → score → shrink → report
path, not mocks. Findings files must be byte-identical for a fixed
config regardless of caching, interruption or injected task faults.
"""

import json

import pytest

from repro.evaluation.engine import EngineConfig, EvaluationEngine, RetryPolicy
from repro.fuzz.campaign import (
    CHECKPOINT_SCHEMA,
    FuzzConfig,
    load_findings,
    run_campaign,
)
from repro.utils.errors import CheckpointError, FuzzError

SEED = "pytest-fuzz"


def config_for(out_dir, **overrides):
    fields = dict(
        seed=SEED,
        budget=3,
        methods=("sieve",),
        max_invocations=400,
        threshold=0.0,  # every scored candidate is a finding
        top_k=1,
        shrink_steps=3,
        out_dir=out_dir,
    )
    fields.update(overrides)
    return FuzzConfig(**fields)


def engine_for(tmp_path, max_attempts=2):
    return EvaluationEngine(
        EngineConfig(
            cache_dir=tmp_path / "cache",
            quarantine_path=tmp_path / "quarantine.json",
            retry=RetryPolicy(
                max_attempts=max_attempts, deadline_s=120.0, backoff_base_s=0.01
            ),
        )
    )


def test_config_validation():
    with pytest.raises(FuzzError):
        FuzzConfig(budget=0)
    with pytest.raises(FuzzError):
        FuzzConfig(methods=())
    with pytest.raises(FuzzError):
        FuzzConfig(fault_rate=1.5)
    with pytest.raises(FuzzError):
        FuzzConfig(chaos="nan:0.1").chaos_plan()  # data mode is not chaos


def test_fingerprint_ignores_budget_but_not_seed():
    base = config_for("out")
    assert base.fingerprint() == config_for("out", budget=50).fingerprint()
    assert base.fingerprint() != config_for("out", seed="other").fingerprint()
    assert base.fingerprint() != config_for("out", threshold=0.2).fingerprint()


def test_campaign_is_byte_deterministic(tmp_path):
    engine = engine_for(tmp_path)
    first = run_campaign(config_for(tmp_path / "a"), engine=engine)
    second = run_campaign(config_for(tmp_path / "b"), engine=engine)
    assert first.scored == second.scored == 3
    bytes_a = first.findings_path.read_bytes()
    bytes_b = second.findings_path.read_bytes()
    assert bytes_a == bytes_b
    payload = load_findings(first.findings_path)
    assert payload["summary"]["scored"] == 3
    assert len(payload["findings"]) == payload["summary"]["findings"] == 1
    finding = payload["findings"][0]
    assert finding["shrunk_score"]["score"] >= 0.0
    assert finding["repro"].startswith(f"sieve-repro fuzz --seed {SEED}")


def test_interrupted_campaign_resumes_to_identical_findings(tmp_path):
    engine = engine_for(tmp_path)
    out = tmp_path / "resumed"
    paused = run_campaign(config_for(out, stop_after=2), engine=engine)
    assert paused.stopped_early
    assert paused.findings_path is None
    assert paused.scored == 2
    checkpoint = json.loads(paused.checkpoint_path.read_text())
    assert checkpoint["schema"] == CHECKPOINT_SCHEMA
    assert len(checkpoint["scored"]) == 2

    resumed = run_campaign(config_for(out), engine=engine, resume=True)
    assert not resumed.stopped_early
    assert resumed.scored == 3

    fresh = run_campaign(config_for(tmp_path / "fresh"), engine=engine)
    assert resumed.findings_path.read_bytes() == fresh.findings_path.read_bytes()


def test_resume_rejects_mismatched_config(tmp_path):
    engine = engine_for(tmp_path)
    out = tmp_path / "out"
    run_campaign(config_for(out, stop_after=1), engine=engine)
    with pytest.raises(CheckpointError):
        run_campaign(config_for(out, seed="other"), engine=engine, resume=True)


def test_resume_rejects_corrupt_checkpoint(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "checkpoint.json").write_text("{not json")
    with pytest.raises(CheckpointError):
        run_campaign(config_for(out), engine=engine_for(tmp_path), resume=True)


def test_chaos_changes_statuses_but_never_surviving_findings(tmp_path):
    """Task-surface chaos exercises retries/isolation without touching
    data: candidates that survive score identically to a clean run."""
    engine = engine_for(tmp_path)
    clean = run_campaign(config_for(tmp_path / "clean", budget=4), engine=engine)
    chaotic = run_campaign(
        config_for(tmp_path / "chaos", budget=4, chaos="task_error:0.4"),
        # One attempt: failures stay failed.
        engine=engine_for(tmp_path / "chaos-engine", max_attempts=1),
    )
    clean_scores = {
        record["index"]: record["score"]["score"]
        for record in json.loads(
            (tmp_path / "clean" / "checkpoint.json").read_text()
        )["scored"].values()
    }
    chaotic_records = json.loads(
        (tmp_path / "chaos" / "checkpoint.json").read_text()
    )["scored"]
    survivors = 0
    for record in chaotic_records.values():
        if record["status"] == "ok":
            survivors += 1
            assert record["score"]["score"] == clean_scores[record["index"]]
    assert survivors >= 1


def test_load_findings_rejects_garbage(tmp_path):
    path = tmp_path / "findings.json"
    path.write_text("{}")
    with pytest.raises(FuzzError):
        load_findings(path)
    path.write_text("not json")
    with pytest.raises(FuzzError):
        load_findings(path)
