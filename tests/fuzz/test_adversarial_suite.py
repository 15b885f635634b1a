"""Regression fence: the committed adversarial suite must reproduce.

Each entry in ``repro.workloads.adversarial`` pins the prediction errors
measured when its fuzz finding was promoted. The pipeline is fully
deterministic, so any drift here is a real behaviour change in
generation, selection or prediction — not noise.
"""

from types import SimpleNamespace

from repro.evaluation.engine import EngineConfig, EvaluationEngine, TaskOutcome
from repro.workloads.adversarial import (
    ADVERSARIAL_ENTRIES,
    ADVERSARIAL_SPECS,
    verify_suite,
)
from repro.workloads.catalog import all_specs, spec_for, specs_for_suites


def test_suite_has_at_least_three_entries():
    assert len(ADVERSARIAL_ENTRIES) >= 3
    assert len(ADVERSARIAL_SPECS) == len(ADVERSARIAL_ENTRIES)


def test_entries_carry_provenance_and_pins():
    for entry in ADVERSARIAL_ENTRIES:
        assert entry.spec.suite == "adversarial"
        assert entry.campaign
        assert entry.source_index >= 0
        assert entry.note
        assert entry.expected_errors
        for method, error in entry.expected_errors.items():
            assert method in ("sieve", "pks")
            assert 0.0 <= error < 1.0
    # At least one entry must be adversarial *for* each headline method.
    worst = {
        max(entry.expected_errors, key=entry.expected_errors.get)
        for entry in ADVERSARIAL_ENTRIES
    }
    assert worst == {"sieve", "pks"}


def test_catalog_resolves_suite_without_polluting_table_one():
    # The paper's figures are defined over exactly the 40 Table I
    # workloads; the adversarial suite must not leak into them.
    table_one = all_specs()
    assert len(table_one) == 40
    assert not any(spec.suite == "adversarial" for spec in table_one)
    # ...but every entry is addressable through the catalog.
    for entry in ADVERSARIAL_ENTRIES:
        assert spec_for(entry.label) == entry.spec
    suite = specs_for_suites(("adversarial",))
    assert tuple(suite) == ADVERSARIAL_SPECS


def test_pinned_errors_reproduce(tmp_path):
    engine = EvaluationEngine(
        EngineConfig(jobs=1, use_cache=True, cache_dir=tmp_path / "cache")
    )
    rows = verify_suite(engine=engine)
    assert len(rows) == sum(len(e.expected_errors) for e in ADVERSARIAL_ENTRIES)
    drifted = [
        f"{row['label']}/{row['method']}: expected {row['expected']}, "
        f"got {row['actual']}"
        for row in rows
        if not row["ok"]
    ]
    assert not drifted, "\n".join(drifted)


def test_suite_is_verified_in_one_engine_run():
    """Every entry reaches the engine in one ``run`` call, so ``--jobs``
    fans the suite out; rows keep suite order, then method order."""
    pinned = {entry.label: entry.expected_errors for entry in ADVERSARIAL_ENTRIES}
    calls = []

    class RecordingEngine:
        def run(self, tasks):
            calls.append([task.label for task in tasks])
            return [
                TaskOutcome(
                    task.label,
                    "ok",
                    {
                        request.method: SimpleNamespace(
                            error=pinned[task.label][request.method]
                        )
                        for request in task.methods
                    },
                )
                for task in tasks
            ]

    rows = verify_suite(engine=RecordingEngine())
    assert calls == [list(pinned)]
    assert [(row["label"], row["method"]) for row in rows] == [
        (label, method) for label, errors in pinned.items() for method in sorted(errors)
    ]
    assert all(row["ok"] for row in rows)
