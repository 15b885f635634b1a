"""CLI `validate` and `validate --repair`: exit codes and readable repairs."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.profiling.csv_io import read_profile_csv, write_profile_csv
from repro.profiling.nsight import NsightComputeProfiler

BASE = "kernel_name,invocation_id,insn_count,cta_size,num_ctas"


@pytest.fixture(scope="module")
def clean(toy_run, tmp_path_factory):
    table, _ = NsightComputeProfiler().profile(toy_run)
    path = tmp_path_factory.mktemp("validate") / "clean.csv"
    write_profile_csv(table, path)
    return path


def test_clean_file_exits_zero(clean, capsys):
    assert main(["validate", str(clean)]) == 0
    assert "no issues" in capsys.readouterr().out


def test_corrupt_file_exits_one_and_repair_reads_back(clean, tmp_path, capsys):
    lines = clean.read_text().splitlines()
    lines[4] = "garbage line"
    lines[6] = lines[6].replace(",", ",-", 2)  # a negative invocation id and count
    dirty = tmp_path / "dirty.csv"
    dirty.write_text("\n".join(lines) + "\n")
    fixed = tmp_path / "fixed.csv"
    assert main(["validate", str(dirty), "--repair", str(fixed)]) == 1
    out = capsys.readouterr().out
    assert "CORRUPT" in out and "repaired table written" in out
    repaired = read_profile_csv(fixed)
    assert repaired.metrics is not None and len(repaired) < len(lines) - 2
    assert main(["validate", str(fixed)]) == 0


def test_partial_metric_header_fails_and_is_not_repaired(tmp_path, capsys):
    path = tmp_path / "partial.csv"
    path.write_text(
        f"# workload,w,rows,2\n{BASE},divergence_efficiency\n"
        "k,0,5,128,1,0.5\nk,1,6,128,1,0.25\n"
    )
    fixed = tmp_path / "fixed.csv"
    assert main(["validate", str(path), "--repair", str(fixed)]) == 1
    captured = capsys.readouterr()
    assert "missing metric columns" in captured.out
    assert "nothing salvageable" in captured.err
    assert not fixed.exists()


def test_invalid_utf8_exits_one_without_a_traceback(tmp_path, capsys):
    path = tmp_path / "latin.csv"
    path.write_bytes(f"# workload,w,rows,1\n{BASE}\n".encode() + b"k\xe9,0,5,128,1\n")
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert "unreadable-file" in out and "UTF-8" in out
