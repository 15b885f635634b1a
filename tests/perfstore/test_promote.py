"""One-command promotion of fuzz findings into the adversarial suite.

Runs one real (tiny) campaign per module, then exercises promotion
against a scratch catalog: provenance, live re-pinned errors, idempotent
re-promotion and the dynamically loaded suite.
"""

import pytest

from repro.evaluation.engine import EngineConfig, EvaluationEngine, RetryPolicy
from repro.fuzz.campaign import FuzzConfig, run_campaign
from repro.perfstore.promote import promote_findings, render_promotion
from repro.perfstore.store import STORE_DIR_ENV, VERSION_ENV, PerfStore
from repro.workloads import adversarial


@pytest.fixture(scope="module")
def engine(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("promote-engine")
    engine = EvaluationEngine(
        EngineConfig(
            jobs=1,
            cache_dir=tmp / "cache",
            quarantine_path=tmp / "quarantine.json",
            retry=RetryPolicy(max_attempts=3, deadline_s=120.0, backoff_base_s=0.01),
        )
    )
    yield engine
    engine.close()


@pytest.fixture(scope="module")
def findings_path(tmp_path_factory, engine):
    out = tmp_path_factory.mktemp("campaign")
    result = run_campaign(
        FuzzConfig(
            seed="pytest-promote",
            budget=3,
            methods=("sieve",),
            max_invocations=400,
            threshold=0.0,  # every scored candidate is a finding
            top_k=1,
            shrink_steps=2,
            out_dir=out,
        ),
        engine=engine,
    )
    assert result.findings_path is not None
    return result.findings_path


def test_promotion_appends_entry_with_provenance(
    findings_path, engine, tmp_path, monkeypatch
):
    catalog = tmp_path / "promoted.json"
    promoted = promote_findings(findings_path, engine=engine, catalog_path=catalog)
    assert len(promoted) == 1
    entry = promoted[0]
    assert entry.spec.suite == "adversarial"
    assert entry.campaign and entry.source_index >= 0
    assert "pytest-promote" in entry.note and "Repro:" in entry.note
    assert set(entry.expected_errors) == {"sieve"}  # re-pinned live
    assert entry.expected_errors["sieve"] >= 0.0

    # The catalog round-trips and the dynamic suite picks it up.
    loaded = adversarial.load_promoted_entries(catalog)
    assert [e.label for e in loaded] == [entry.label]
    monkeypatch.setenv(adversarial.PROMOTED_ENV, str(catalog))
    labels = {e.label for e in adversarial.ADVERSARIAL_ENTRIES}
    assert entry.label in labels
    assert len(adversarial.ADVERSARIAL_ENTRIES) == len(adversarial._STATIC_ENTRIES) + 1

    text = render_promotion(promoted)
    assert "promoted 1 finding(s)" in text and entry.label in text


def test_repromotion_is_idempotent(findings_path, engine, tmp_path):
    catalog = tmp_path / "promoted.json"
    first = promote_findings(findings_path, engine=engine, catalog_path=catalog)
    assert len(first) == 1
    again = promote_findings(findings_path, engine=engine, catalog_path=catalog)
    assert again == []
    assert "no new findings" in render_promotion(again)
    assert len(adversarial.load_promoted_entries(catalog)) == 1


def test_min_score_filters_everything(findings_path, engine, tmp_path):
    catalog = tmp_path / "promoted.json"
    promoted = promote_findings(
        findings_path, engine=engine, catalog_path=catalog, min_score=1e9
    )
    assert promoted == []
    assert not catalog.exists()  # nothing written for an empty promotion


def test_promotion_registers_in_perfstore(
    findings_path, engine, tmp_path, monkeypatch
):
    monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path / "store"))
    monkeypatch.setenv(VERSION_ENV, "vtest")
    promote_findings(
        findings_path, engine=engine, catalog_path=tmp_path / "promoted.json"
    )
    attachments = PerfStore(tmp_path / "store").attachments("vtest", "promotion")
    assert len(attachments) == 1
    (payload,) = attachments.values()
    assert payload["promoted"] and payload["campaign"]["seed"] == "pytest-promote"


def test_promoted_entry_reproduces_through_verify_suite(
    findings_path, engine, tmp_path, monkeypatch
):
    catalog = tmp_path / "promoted.json"
    promote_findings(findings_path, engine=engine, catalog_path=catalog)
    monkeypatch.setenv(adversarial.PROMOTED_ENV, str(catalog))
    rows = adversarial.verify_suite(engine=engine)
    assert all(row["ok"] for row in rows)
    assert len(rows) >= len(adversarial._STATIC_ENTRIES) + 1
