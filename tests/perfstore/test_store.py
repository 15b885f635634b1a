"""Store layer: content addressing, append-only logs, resolution, hooks.

Hypothesis pins the two structural invariants the gate depends on:
manifests round-trip byte-identically through the object store, and the
set of stored runs is invariant under ingestion order.
"""

import dataclasses
import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.observability import metrics
from repro.perfstore.store import (
    STORE_DIR_ENV,
    VERSION_ENV,
    PerfStore,
    config_fingerprint,
    current_version,
    figure_from_command,
    maybe_attach,
    maybe_record,
    store_from_env,
)
from repro.utils.errors import PerfStoreError

from .conftest import make_manifest


def test_ingest_round_trips_byte_identically(tmp_path):
    store = PerfStore(tmp_path)
    manifest = make_manifest(total=1.23)
    receipt = store.ingest(manifest, version="v1")
    assert receipt.stored_object and receipt.seq == 1
    assert receipt.figure == "fig3"  # derived from "bench fig3"
    restored = store.load_object(receipt.object_id)
    assert restored == manifest
    assert restored.to_json() == manifest.to_json()


def test_ingest_drops_attribution_and_keeps_everything_else(tmp_path):
    store = PerfStore(tmp_path)
    bare = make_manifest(
        total=1.23,
        workloads=[{"workload": "w", "sieve_error": 0.01}],
        aggregates={"sieve_avg": 0.01},
    )
    attributed = dataclasses.replace(
        bare, attribution=({"workload": "w", "method": "sieve", "signed_error": 0.01},)
    )
    receipt = store.ingest(attributed, version="v1")
    restored = store.load_object(receipt.object_id)
    assert restored.attribution == ()
    assert restored == bare
    # The object id hashes the stored (attribution-free) blob.
    assert store.ingest(bare, version="v1").object_id == receipt.object_id


def test_reingest_deduplicates_object_but_grows_the_log(tmp_path):
    store = PerfStore(tmp_path)
    manifest = make_manifest()
    first = store.ingest(manifest, version="v1")
    second = store.ingest(manifest, version="v1")
    assert first.object_id == second.object_id
    assert not second.stored_object
    assert second.seq == 2
    runs = store.runs("v1", "fig3")
    assert [run.seq for run in runs] == [1, 2]
    objects = list((tmp_path / "objects").rglob("*.json"))
    assert len(objects) == 1


@settings(
    deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    totals=st.lists(
        st.floats(min_value=0.01, max_value=100, allow_nan=False),
        min_size=1,
        max_size=5,
        unique=True,
    ),
    seed=st.integers(0, 2**16),
)
def test_ingestion_is_order_invariant(tmp_path_factory, totals, seed):
    manifests = [make_manifest(total=t) for t in totals]
    shuffled = list(manifests)
    random.Random(seed).shuffle(shuffled)
    root = tmp_path_factory.mktemp("order")
    a, b = PerfStore(root / "a"), PerfStore(root / "b")
    for m in manifests:
        a.ingest(m, version="v1")
    for m in shuffled:
        b.ingest(m, version="v1")
    ids_a = {run.object_id for run in a.runs("v1", "fig3")}
    ids_b = {run.object_id for run in b.runs("v1", "fig3")}
    assert ids_a == ids_b and len(ids_a) == len(totals)
    assert a.summary() == b.summary()


def test_versions_keep_first_ingest_order(tmp_path):
    store = PerfStore(tmp_path)
    for version in ("c3", "a1", "b2", "a1"):
        store.ingest(make_manifest(), version=version)
    assert store.versions() == ["c3", "a1", "b2"]
    assert store.latest_version() == "b2"
    store.ingest(make_manifest(command="bench scale"), version="a1")
    assert store.latest_version("scale") == "a1"
    assert store.figures("a1") == ["fig3", "scale"]


def test_summary_counts_runs_per_figure(tmp_path):
    store = PerfStore(tmp_path)
    store.ingest(make_manifest(), version="v1")
    store.ingest(make_manifest(total=2.0), version="v1")
    store.ingest(make_manifest(command="bench scale"), version="v1")
    assert store.summary() == {"v1": {"fig3": 2, "scale": 1}}


def test_resolve_exact_prefix_ambiguous_unknown(tmp_path):
    store = PerfStore(tmp_path)
    for version in ("abcdef123456", "abc999", "zzz111"):
        store.ingest(make_manifest(), version=version)
    assert store.resolve("zzz111") == "zzz111"
    assert store.resolve("zzz") == "zzz111"  # unique prefix
    with pytest.raises(PerfStoreError, match="ambiguous"):
        store.resolve("abc")
    with pytest.raises(PerfStoreError, match="no stored profile"):
        store.resolve("nope")


def test_resolve_symbolic_rev_through_git(tmp_path):
    # The test process runs inside the repo checkout, so HEAD resolves;
    # ingest under the resolved SHA and ask for the symbolic name.
    store = PerfStore(tmp_path)
    import subprocess

    head = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True
    ).stdout.strip()
    store.ingest(make_manifest(), version=head)
    assert store.resolve("HEAD") == head


def test_slash_in_version_or_figure_rejected(tmp_path):
    store = PerfStore(tmp_path)
    with pytest.raises(PerfStoreError):
        store.ingest(make_manifest(), version="a/b")
    with pytest.raises(PerfStoreError):
        store.ingest(make_manifest(), figure="fig/3", version="v1")


def test_index_corruption_raises_perfstore_error(tmp_path):
    store = PerfStore(tmp_path)
    store.ingest(make_manifest(), version="v1")
    store.index_path.write_text("{broken")
    with pytest.raises(PerfStoreError, match="unreadable"):
        store.versions()
    store.index_path.write_text(json.dumps({"schema": 999, "versions": {}}))
    with pytest.raises(PerfStoreError, match="schema"):
        store.versions()


def test_attachments_round_trip_with_sanitized_names(tmp_path):
    store = PerfStore(tmp_path)
    payload = {"seed": "s", "findings": [1, 2]}
    path = store.attach("fuzz-findings", "weird name!", payload, version="v1")
    assert path.name == "weird-name-.json"
    assert store.attachments("v1", "fuzz-findings") == {"weird-name-": payload}
    assert store.attachments("v1", "other") == {}


def test_figure_from_command_cases():
    assert figure_from_command("bench fig3") == "fig3"
    assert figure_from_command("sieve-repro fig10") == "fig10"
    assert figure_from_command("bench scale") == "scale"
    assert figure_from_command("bench streaming") == "streaming"
    assert figure_from_command("Weird Command!") == "weird-command"
    assert figure_from_command("") == "unknown"


def test_config_fingerprint_depends_on_figure_and_config():
    base = config_fingerprint("fig3", {"cap": 400})
    assert config_fingerprint("fig3", {"cap": 400}) == base
    assert config_fingerprint("fig4", {"cap": 400}) != base
    assert config_fingerprint("fig3", {"cap": 800}) != base
    assert len(base) == 16


def test_current_version_env_override(monkeypatch):
    monkeypatch.setenv(VERSION_ENV, "ci-override")
    assert current_version() == "ci-override"


def test_store_from_env(tmp_path, monkeypatch):
    monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path / "env-store"))
    assert store_from_env().root == tmp_path / "env-store"
    monkeypatch.delenv(STORE_DIR_ENV)
    assert store_from_env(tmp_path / "fallback").root == tmp_path / "fallback"


def test_maybe_record_is_env_gated(tmp_path, monkeypatch):
    monkeypatch.delenv(STORE_DIR_ENV, raising=False)
    assert maybe_record(make_manifest()) is None

    monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path / "auto"))
    monkeypatch.setenv(VERSION_ENV, "v1")
    receipt = maybe_record(make_manifest(), figure="fig3")
    assert receipt is not None and receipt.seq == 1
    assert PerfStore(tmp_path / "auto").runs("v1", "fig3")


def test_maybe_record_failure_degrades_to_diagnostic(tmp_path, monkeypatch):
    # Point the store at a *file*: every write fails, but the hook must
    # swallow the error — telemetry never kills a measured run.
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("x")
    monkeypatch.setenv(STORE_DIR_ENV, str(blocker))
    monkeypatch.setenv(VERSION_ENV, "v1")
    assert maybe_record(make_manifest()) is None
    assert maybe_attach("kind", "name", {"k": 1}) is None


def test_ingest_and_lookup_bump_counters(tmp_path):
    store = PerfStore(tmp_path)
    store.ingest(make_manifest(), version="v1")
    store.runs("v1", "fig3")
    store.runs("v1", "fig9")  # nothing stored for fig9
    counters = metrics.get_registry().counters
    assert counters["perfstore.ingest{figure=fig3}"] == 1
    assert counters["perfstore.lookup{result=hit}"] == 1
    assert counters["perfstore.lookup{result=miss}"] == 1
