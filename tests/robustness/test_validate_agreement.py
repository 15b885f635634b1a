"""The lenient validator agrees with the strict reader on every file.

Where ``read_profile_csv`` reads a file, ``validate_profile_csv`` reports
no malformed row or header and salvages the identical table (by pickle
digest). Where the strict reader raises at a line, the validator reports
an issue at that line; where it raises without one, the validator is not
clean either.
"""

from __future__ import annotations

import csv
import pickle

import numpy as np
import pytest

from repro.gpu.kernel import PKS_METRIC_NAMES
from repro.profiling.csv_io import read_profile_csv, write_profile_csv
from repro.profiling.nsight import NsightComputeProfiler
from repro.profiling.nvbit import NVBitProfiler
from repro.profiling.table import ProfileTable
from repro.robustness.validate import validate_profile_csv
from repro.utils.errors import ProfileError

BASE = "kernel_name,invocation_id,insn_count,cta_size,num_ctas"


def digest(table) -> bytes:
    return pickle.dumps(table, protocol=pickle.HIGHEST_PROTOCOL)


def rewrite(path, edit) -> None:
    with path.open(newline="") as handle:
        preamble, header, *rows = list(csv.reader(handle))
    with path.open("w", newline="") as handle:
        csv.writer(handle).writerows(edit(preamble, header, rows))


def reorder_metrics(preamble, header, rows):
    order = list(reversed(range(5, len(header))))
    return [preamble, header[:5] + [header[j] for j in order]] + [
        row[:5] + [row[j] for j in order] for row in rows
    ]


def hostile_table() -> ProfileTable:
    names = ('kernel<float, 4>(int, float*)', 'say "hi", then\nscan', "ядро\tkernel")
    n = 3 * len(names)
    return ProfileTable(
        workload="hostile, \"quoted\"",
        kernel_names=names,
        kernel_id=np.tile(np.arange(len(names), dtype=np.int32), 3),
        invocation_id=np.repeat(np.arange(3, dtype=np.int64), len(names)),
        insn_count=np.arange(1, n + 1, dtype=np.int64) * 100,
        cta_size=np.full(n, 128, dtype=np.int32),
        num_ctas=np.full(n, 4, dtype=np.int64),
    )


def corpus(toy_run, directory):
    sieve, _ = NVBitProfiler().profile(toy_run)
    pks, _ = NsightComputeProfiler().profile(toy_run)
    files = {}

    def written(name, table, edit=None, text=None):
        path = directory / f"{name}.csv"
        if text is not None:
            path.write_text(text)
        else:
            write_profile_csv(table, path)
            if edit is not None:
                rewrite(path, edit)
        files[name] = path

    written("clean-sieve", sieve)
    written("clean-pks", pks)
    written("reordered-metrics", pks, reorder_metrics)
    written("hostile-names", hostile_table())
    written(
        "partial-metrics",
        None,
        text="# workload,w,rows,2\n"
        f"{BASE},divergence_efficiency\nk,0,5,128,1,0.5\nk,1,6,128,1,0.25\n",
    )
    written(
        "unknown-metric",
        None,
        text=f"# workload,w,rows,1\n{BASE},bogus_metric\nk,0,5,128,1,1.5\n",
    )
    written(
        "bad-row",
        sieve,
        lambda p, h, rows: [p, h] + rows[:3] + [["garbage"]] + rows[3:],
    )
    written(
        "out-of-range",
        None,
        text=f"# workload,w,rows,3\n{BASE}\na,0,5,128,1\na,1,5,3000000000,1\n"
        "a,2,99999999999999999999999,128,1\n",
    )
    written("bad-row-and-short", sieve, lambda p, h, rows: [p, h, ["bad"]] + rows[:5])
    written("truncated", sieve, lambda p, h, rows: [p, h] + rows[:-4])
    written("header-only", None, text=f"# workload,w,rows,0\n{BASE}\n")
    written("empty", None, text="")
    return files


@pytest.fixture(scope="module")
def files(toy_run, tmp_path_factory):
    return corpus(toy_run, tmp_path_factory.mktemp("agreement"))


CASES = [
    "clean-sieve", "clean-pks", "reordered-metrics", "hostile-names",
    "partial-metrics", "unknown-metric", "bad-row", "out-of-range",
    "bad-row-and-short", "truncated", "header-only", "empty",
]


@pytest.mark.parametrize("case", CASES)
def test_validator_agrees_with_strict_reader(files, case):
    path = files[case]
    report, table = validate_profile_csv(path)
    try:
        strict = read_profile_csv(path)
    except ProfileError as error:
        if error.row is None:
            assert not report.clean
        else:
            assert error.row in {issue.row for issue in report.issues}, report.issues
        return
    structural = {"malformed-row", "malformed-header"} & set(report.counts_by_kind())
    assert not structural, report.issues
    assert table is not None and digest(table) == digest(strict)


def test_pks_salvage_carries_the_canonical_metric_matrix(files):
    _, table = validate_profile_csv(files["reordered-metrics"])
    assert table.metrics.shape == (len(table), len(PKS_METRIC_NAMES))
    assert table.metric_names == PKS_METRIC_NAMES
    insn_column = PKS_METRIC_NAMES.index("instruction_count")
    np.testing.assert_array_equal(table.metrics[:, insn_column], table.insn_count)


def test_bad_row_is_reported_before_the_short_count(files):
    with pytest.raises(ProfileError) as excinfo:
        read_profile_csv(files["bad-row-and-short"])
    assert excinfo.value.row == 3
