"""CLI surface of the performance version store.

``perf list/ingest/log/bisect-hint`` and ``report --against REV`` drive
the same store/gate layers the benches auto-record into; these tests
exercise them end-to-end through ``main`` with a scratch store.
"""

import pytest

from repro.cli import build_parser, main
from repro.observability.manifest import RunManifest, StageStat

JITTER = (0.97, 1.00, 1.03)
RERUN_JITTER = (0.98, 1.01, 1.02)


def write_manifest(path, factor=1.0, jitter=1.0, cap=400, error=0.01):
    scale = factor * jitter
    manifest = RunManifest(
        command="bench fig3",
        created="2026-01-01T00:00:00+00:00",
        config={"cap": cap, "jobs": 1},
        total_wall_s=2.0 * scale,
        stages=(
            StageStat(
                name="stratify", count=1,
                wall_s=1.2 * scale, self_s=1.2 * scale, cpu_s=1.2 * scale,
            ),
        ),
        workloads=({"workload": "w", "sieve_error": error},),
        aggregates={"sieve_avg": error},
    )
    manifest.save(path)
    return path


@pytest.fixture
def store_dir(tmp_path):
    """A store seeded with 3 baseline runs of version ``base-rev``."""
    store = tmp_path / "store"
    for i, j in enumerate(JITTER):
        path = write_manifest(tmp_path / f"base-{i}.json", jitter=j)
        assert main(
            ["perf", "ingest", str(path), "--store", str(store),
             "--version", "base-rev"]
        ) == 0
    return store


def test_parser_routes_perf_and_promote_commands():
    parser = build_parser()
    for argv in (
        ["perf", "list"],
        ["perf", "ingest", "m.json"],
        ["perf", "log", "--figure", "scale", "--metric", "stage:stratify"],
        ["perf", "bisect-hint"],
        ["report", "m.json", "--against", "HEAD~1"],
        ["fuzz", "promote", "--findings", "f.json"],
        ["fuzz", "--seed", "s"],  # legacy spelling still parses
    ):
        args = parser.parse_args(argv)
        assert callable(args.handler)
    legacy = parser.parse_args(["fuzz", "--seed", "s"])
    assert legacy.fuzz_command is None


def test_perf_list_and_ingest(store_dir, capsys):
    assert main(["perf", "list", "--store", str(store_dir)]) == 0
    out = capsys.readouterr().out
    assert "base-rev" in out and "fig3" in out and "3" in out


def test_perf_list_empty_store(tmp_path, capsys):
    assert main(["perf", "list", "--store", str(tmp_path / "empty")]) == 0
    assert "(empty store" in capsys.readouterr().out


def test_perf_ingest_reports_dedup(store_dir, tmp_path, capsys):
    path = write_manifest(tmp_path / "dup.json", jitter=JITTER[0])
    assert main(
        ["perf", "ingest", str(path), "--store", str(store_dir),
         "--version", "base-rev"]
    ) == 0
    assert "deduplicated" in capsys.readouterr().out


def test_perf_log_renders_lineage(store_dir, tmp_path, capsys):
    for i, j in enumerate(RERUN_JITTER):
        path = write_manifest(tmp_path / f"new-{i}.json", factor=2.0, jitter=j)
        main(["perf", "ingest", str(path), "--store", str(store_dir),
              "--version", "slow-rev"])
    assert main(["perf", "log", "--store", str(store_dir)]) == 0
    out = capsys.readouterr().out
    assert "base-rev" in out and "slow-rev" in out and "median" in out


def test_perf_bisect_hint_exit_codes(store_dir, tmp_path, capsys):
    for i, j in enumerate(RERUN_JITTER):
        path = write_manifest(tmp_path / f"new-{i}.json", factor=2.0, jitter=j)
        main(["perf", "ingest", str(path), "--store", str(store_dir),
              "--version", "slow-rev"])
    assert main(["perf", "bisect-hint", "--store", str(store_dir)]) == 1
    out = capsys.readouterr().out
    assert "first regression" in out and "base-rev" in out


def test_report_against_flags_2x_slowdown(store_dir, tmp_path, capsys):
    current = [
        str(write_manifest(tmp_path / f"cur-{i}.json", factor=2.0, jitter=j))
        for i, j in enumerate(RERUN_JITTER)
    ]
    code = main(
        ["report", *current, "--against", "base-rev", "--store", str(store_dir)]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "verdict: REGRESSED" in out
    assert "FAIL" in out and "p=" in out and "CI[" in out


def test_report_against_passes_same_distribution(store_dir, tmp_path, capsys):
    current = [
        str(write_manifest(tmp_path / f"cur-{i}.json", jitter=j))
        for i, j in enumerate(RERUN_JITTER)
    ]
    code = main(
        ["report", *current, "--against", "base-rev", "--store", str(store_dir)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: INDISTINGUISHABLE" in out


def test_report_against_resolves_version_prefix(store_dir, tmp_path, capsys):
    current = str(write_manifest(tmp_path / "cur.json", jitter=1.0))
    assert main(
        ["report", current, "--against", "base", "--store", str(store_dir)]
    ) == 0
    assert "base-rev"[:12] in capsys.readouterr().out


def test_report_against_unknown_rev_without_fallback(tmp_path, capsys):
    current = str(write_manifest(tmp_path / "cur.json"))
    code = main(
        ["report", current, "--against", "no-such-rev",
         "--store", str(tmp_path / "empty-store")]
    )
    assert code == 2
    assert "no stored" in capsys.readouterr().err


def test_report_against_only_compares_the_same_experiment_shape(tmp_path, capsys):
    # The stored cap-1200 runs are slower and less accurate than cap-400
    # runs: comparing the two shapes would call walls "improved" and
    # accuracy drifted. The gate must refuse instead.
    store = tmp_path / "store"
    for i, j in enumerate(JITTER):
        path = write_manifest(
            tmp_path / f"big-{i}.json", factor=3.0, jitter=j, cap=1200, error=0.02
        )
        main(["perf", "ingest", str(path), "--store", str(store),
              "--version", "base-rev"])
    current = [
        str(write_manifest(tmp_path / f"cur-{i}.json", jitter=j))
        for i, j in enumerate(RERUN_JITTER)
    ]
    code = main(["report", *current, "--against", "base-rev", "--store", str(store)])
    captured = capsys.readouterr()
    assert code == 2
    assert '"cap": 400' in captured.err
    assert "verdict" not in captured.out

    mixed = [current[0], str(write_manifest(tmp_path / "mixed.json", cap=1200))]
    code = main(["report", *mixed, "--against", "base-rev", "--store", str(store)])
    err = capsys.readouterr().err
    assert code == 2
    assert "mix 2 fig3 configs" in err and '"cap": 1200' in err
