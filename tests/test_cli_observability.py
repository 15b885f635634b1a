"""CLI observability: --trace-out manifests and the report subcommand."""

import json

import pytest

from repro.cli import main
from repro.evaluation.context import _cached_context
from repro.observability import metrics, spans
from repro.observability.manifest import RunManifest


@pytest.fixture(autouse=True)
def _clean_telemetry():
    spans.reset()
    metrics.get_registry().reset()
    # Warm lru-cached contexts would make the traced runs near-instant,
    # leaving nothing above the diff's min-seconds noise floor.
    _cached_context.cache_clear()
    yield
    spans.reset()
    metrics.get_registry().reset()


@pytest.fixture()
def manifest_path(tmp_path, capsys):
    path = tmp_path / "m.json"
    code = main(
        ["--cap", "600", "--no-cache", "--trace-out", str(path),
         "compare", "cactus/gru", "cactus/lmc"]
    )
    assert code == 0
    capsys.readouterr()  # drain the comparison table
    return path


def test_trace_out_writes_manifest(manifest_path):
    manifest = RunManifest.load(manifest_path)
    assert manifest.command == "sieve-repro compare"
    assert manifest.created
    assert manifest.config["cap"] == 600
    assert manifest.config["workloads"] == ["cactus/gru", "cactus/lmc"]
    assert manifest.cache is not None
    assert manifest.cache["enabled"] is False
    # Accuracy rows and printed aggregates landed in the artifact.
    assert [row["workload"] for row in manifest.workloads] == [
        "cactus/gru", "cactus/lmc",
    ]
    assert set(manifest.aggregates) == {
        "sieve_avg", "sieve_max", "pks_avg", "pks_max",
    }
    # Raw JSON stays loadable without the package (CI consumers).
    payload = json.loads(manifest_path.read_text())
    assert payload["schema"] == manifest.schema


def test_manifest_self_times_sum_to_total(manifest_path):
    """Acceptance: per-stage wall-times sum within 10% of total runtime."""
    manifest = RunManifest.load(manifest_path)
    assert manifest.total_wall_s > 0
    ratio = manifest.stage_self_total() / manifest.total_wall_s
    assert 0.9 <= ratio <= 1.1
    # The instrumentation covers the real pipeline stages, not just a shell.
    names = {stage.name for stage in manifest.stages}
    assert {"cli.compare", "engine.task", "sieve.stratify", "pks.select"} <= names


def test_report_renders_single_manifest(manifest_path, capsys):
    assert main(["report", str(manifest_path)]) == 0
    out = capsys.readouterr().out
    assert "sieve-repro compare" in out
    assert "sieve.stratify" in out
    assert "cactus/gru" in out


def test_report_diff_passes_and_fails(manifest_path, tmp_path, capsys):
    # Identical manifests: clean gate, exit 0, attribution drift table.
    assert main(["report", str(manifest_path), str(manifest_path)]) == 0
    out = capsys.readouterr().out
    assert "verdict: INDISTINGUISHABLE" in out and "FAIL" not in out
    assert "attribution drift:" in out and "cactus/gru · sieve" in out
    # Injected 2x slowdown: one run per side, so the labeled
    # single-sample ratio limit decides; exit 1. The extra 0.1 s keeps
    # the total's absolute delta above the 0.05 s floor however fast the
    # traced run itself was.
    payload = json.loads(manifest_path.read_text())
    payload["total_wall_s"] = payload["total_wall_s"] * 2 + 0.1
    for stage in payload["stages"]:
        stage["wall_s"] *= 2
        stage["self_s"] *= 2
    slowed = tmp_path / "slow.json"
    slowed.write_text(json.dumps(payload))
    assert main(["report", str(manifest_path), str(slowed)]) == 1
    out = capsys.readouterr().out
    assert "[total-wall] total: FAIL" in out and "single-sample" in out
    assert "verdict: REGRESSED" in out
    # A 1e-4 relative accuracy drift fails too.
    payload = json.loads(manifest_path.read_text())
    payload["workloads"][0]["sieve_error"] *= 1 + 1e-4
    drifted = tmp_path / "drift.json"
    drifted.write_text(json.dumps(payload))
    assert main(["report", str(manifest_path), str(drifted)]) == 1
    assert "[accuracy] cactus/gru.sieve_error: FAIL" in capsys.readouterr().out


def test_no_trace_out_writes_nothing(tmp_path, capsys):
    assert main(["--cap", "600", "table2"]) == 0
    capsys.readouterr()
    assert list(tmp_path.iterdir()) == []
