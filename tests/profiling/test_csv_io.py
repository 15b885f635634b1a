"""Tests for CSV round-tripping of profile tables."""

import csv

import numpy as np
import pytest

from repro.gpu.kernel import PKS_METRIC_NAMES
from repro.profiling.csv_io import ProfileTableReader, read_profile_csv, write_profile_csv
from repro.profiling.nsight import NsightComputeProfiler
from repro.profiling.nvbit import NVBitProfiler
from repro.profiling.table import ProfileTable
from repro.robustness.validate import validate_profile_csv
from repro.utils.errors import ProfileError


def assert_tables_equal(a, b, with_metrics):
    """Equality up to kernel renumbering (the reader numbers kernels by
    first chronological appearance)."""
    assert a.workload == b.workload
    assert set(a.kernel_names) == set(b.kernel_names)
    names_a = [a.kernel_name_of_row(r) for r in range(len(a))]
    names_b = [b.kernel_name_of_row(r) for r in range(len(b))]
    assert names_a == names_b
    assert np.array_equal(a.invocation_id, b.invocation_id)
    assert np.array_equal(a.insn_count, b.insn_count)
    assert np.array_equal(a.cta_size, b.cta_size)
    assert np.array_equal(a.num_ctas, b.num_ctas)
    if with_metrics:
        assert np.allclose(a.metrics, b.metrics)
    else:
        assert b.metrics is None


def test_sieve_profile_round_trip(toy_run, tmp_path):
    table, _ = NVBitProfiler().profile(toy_run)
    path = tmp_path / "sieve.csv"
    write_profile_csv(table, path)
    assert_tables_equal(table, read_profile_csv(path), with_metrics=False)


def test_pks_profile_round_trip(toy_run, tmp_path):
    table, _ = NsightComputeProfiler().profile(toy_run)
    path = tmp_path / "pks.csv"
    write_profile_csv(table, path)
    assert_tables_equal(table, read_profile_csv(path), with_metrics=True)


def test_csv_is_human_readable(toy_run, tmp_path):
    table, _ = NVBitProfiler().profile(toy_run)
    path = tmp_path / "readable.csv"
    write_profile_csv(table, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# workload")
    assert lines[1].split(",")[:3] == ["kernel_name", "invocation_id", "insn_count"]
    assert len(lines) == len(table) + 2


# ------------------------------------------------------------------ #
# Adversarial round trips


def tiny_table(kernel_names, rows_per_kernel=2, with_metrics=False):
    n = len(kernel_names) * rows_per_kernel
    insn = np.arange(1, n + 1, dtype=np.int64) * 1000
    metrics = None
    if with_metrics:
        metrics = np.linspace(0.0, 1.0, n * len(PKS_METRIC_NAMES)).reshape(
            n, len(PKS_METRIC_NAMES)
        )
        # The writer derives this column from insn_count, so keep them
        # consistent for byte-exact round trips.
        metrics[:, PKS_METRIC_NAMES.index("instruction_count")] = insn
    return ProfileTable(
        workload="adversarial",
        kernel_names=tuple(kernel_names),
        kernel_id=np.repeat(
            np.arange(len(kernel_names), dtype=np.int32), rows_per_kernel
        ),
        invocation_id=np.tile(
            np.arange(rows_per_kernel, dtype=np.int64), len(kernel_names)
        ),
        insn_count=insn,
        cta_size=np.full(n, 128, dtype=np.int32),
        num_ctas=np.full(n, 16, dtype=np.int64),
        metrics=metrics,
    )


@pytest.mark.parametrize(
    "name",
    [
        'kernel<float, 4>(int, float*)',
        "reduce, then scan",
        'say "hello"',
        "ядро_свёртки",  # unicode
        "tab\tand space kernel",
    ],
)
def test_round_trip_survives_hostile_kernel_names(tmp_path, name):
    table = tiny_table([name, "plain_kernel"])
    path = tmp_path / "hostile.csv"
    write_profile_csv(table, path)
    assert_tables_equal(table, read_profile_csv(path), with_metrics=False)


def test_round_trip_reordered_metric_columns(tmp_path):
    table = tiny_table(["a", "b"], with_metrics=True)
    path = tmp_path / "ordered.csv"
    write_profile_csv(table, path)
    with path.open(newline="") as handle:
        preamble, header, *rows = list(csv.reader(handle))
    base, metric_cols = header[:5], header[5:]
    order = list(reversed(range(len(metric_cols))))
    shuffled = tmp_path / "shuffled.csv"
    with shuffled.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(preamble)
        writer.writerow(base + [metric_cols[j] for j in order])
        for row in rows:
            writer.writerow(row[:5] + [row[5 + j] for j in order])
    assert_tables_equal(table, read_profile_csv(shuffled), with_metrics=True)


def test_round_trip_single_invocation_table(tmp_path):
    table = tiny_table(["only"], rows_per_kernel=1)
    path = tmp_path / "single.csv"
    write_profile_csv(table, path)
    restored = read_profile_csv(path)
    assert len(restored) == 1
    assert_tables_equal(table, restored, with_metrics=False)


# ------------------------------------------------------------------ #
# Strict-reader error reporting


def test_read_empty_file_raises_profile_error(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ProfileError, match="empty profile CSV"):
        read_profile_csv(path)


def test_read_header_only_raises(tmp_path):
    path = tmp_path / "headeronly.csv"
    path.write_text(
        "# workload,x,rows,0\n"
        "kernel_name,invocation_id,insn_count,cta_size,num_ctas\n"
    )
    with pytest.raises(ProfileError, match="no invocation rows"):
        read_profile_csv(path)


def test_read_bad_row_reports_path_and_line(tmp_path):
    table = tiny_table(["a", "b"])
    path = tmp_path / "badrow.csv"
    write_profile_csv(table, path)
    lines = path.read_text().splitlines()
    lines[4] = "a,not_an_int,5,128,16"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ProfileError) as excinfo:
        read_profile_csv(path)
    assert excinfo.value.path == str(path)
    assert excinfo.value.row == 5  # 1-based line number
    assert str(path) in str(excinfo.value)
    assert "row 5" in str(excinfo.value)


@pytest.mark.parametrize(
    "row, message",
    [
        ("a,1,99999999999999999999999,128,16", "insn_count .* out of range for int64"),
        ("a,1,5,3000000000,16", "cta_size 3000000000 is out of range for int32"),
    ],
    ids=["insn_count-int64", "cta_size-int32"],
)
def test_read_out_of_range_integer_reports_path_and_line(tmp_path, row, message):
    path = tmp_path / "overflow.csv"
    path.write_text(
        "# workload,x,rows,2\n"
        "kernel_name,invocation_id,insn_count,cta_size,num_ctas\n"
        "a,0,5,128,16\n"
        f"{row}\n"
    )
    with pytest.raises(ProfileError, match=message) as excinfo:
        read_profile_csv(path)
    assert (excinfo.value.path, excinfo.value.row) == (str(path), 4)


def test_read_truncated_file_raises(tmp_path):
    table = tiny_table(["a", "b"])
    path = tmp_path / "truncated.csv"
    write_profile_csv(table, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-2]) + "\n")
    with pytest.raises(ProfileError, match="row count mismatch"):
        read_profile_csv(path)


def test_read_unknown_metric_column_raises(tmp_path):
    path = tmp_path / "unknown.csv"
    path.write_text(
        "# workload,x,rows,1\n"
        "kernel_name,invocation_id,insn_count,cta_size,num_ctas,bogus_metric\n"
        "k,0,100,128,16,1.5\n"
    )
    with pytest.raises(ProfileError, match="unknown metric columns"):
        read_profile_csv(path)


BASE_COLUMNS = ["kernel_name", "invocation_id", "insn_count", "cta_size", "num_ctas"]
STORED_METRICS = [name for name in PKS_METRIC_NAMES if name != "instruction_count"]


def assert_header_rejected(path, message):
    """The reader, read_profile_csv and the validator reject the header."""
    for parse in (read_profile_csv, lambda p: list(ProfileTableReader(p))):
        with pytest.raises(ProfileError, match=message) as excinfo:
            parse(path)
        assert (excinfo.value.path, excinfo.value.row) == (str(path), 2)
    report, table = validate_profile_csv(path)
    assert table is None
    assert [(issue.kind, issue.row) for issue in report.issues] == [("malformed-header", 2)]


def test_read_repeated_metric_column_raises(tmp_path):
    # Reading either copy would silently drop the other's values.
    header = BASE_COLUMNS + STORED_METRICS + ["coalesced_global_loads"]
    path = tmp_path / "repeated.csv"
    path.write_text(
        "# workload,x,rows,1\n"
        + ",".join(header) + "\n"
        + "k,0,100,128,16," + ",".join(["0.5"] * 11 + ["9.0"]) + "\n"
    )
    assert_header_rejected(path, r"repeated metric columns \['coalesced_global_loads'\]")


def test_read_instruction_count_column_raises(tmp_path):
    # insn_count is the instruction_count metric; a second copy could disagree.
    header = BASE_COLUMNS + ["instruction_count"] + STORED_METRICS
    path = tmp_path / "insn.csv"
    path.write_text(
        "# workload,x,rows,1\n"
        + ",".join(header) + "\n"
        + "k,0,100,128,16,999," + ",".join(["0.5"] * 11) + "\n"
    )
    assert_header_rejected(path, "metric column 'instruction_count' repeats insn_count")
