"""Untrusted profile text fails typed: oversized fields, bad UTF-8, deep JSON,
non-integer counts. Each case is checked on every entry point that parses
profile text: the reader, ``read_profile_csv``, the lenient validator and
the service's request parser."""

from __future__ import annotations

import io
import json

import pytest

from repro.profiling.csv_io import ProfileTableReader, read_profile_csv
from repro.robustness.validate import validate_profile_csv
from repro.service import protocol
from repro.utils.errors import BadRequestError, ProfileError

HEADER = "kernel_name,invocation_id,insn_count,cta_size,num_ctas\n"
#: One past the csv module's default field limit.
HUGE = "x" * 131_073


def strict_outcomes(path):
    """The ProfileError each strict entry point raises for ``path``."""
    errors = []
    for parse in (read_profile_csv, lambda p: list(ProfileTableReader(p, chunk_rows=2))):
        with pytest.raises(ProfileError) as excinfo:
            parse(path)
        errors.append(excinfo.value)
    return errors


@pytest.mark.parametrize(
    "text, line, kind",
    [
        (
            "# workload,w,rows,3\n" + HEADER + f"a,0,5,128,1\n{HUGE},0,5,128,1\na,1,5,128,1\n",
            4,
            "malformed-row",
        ),
        (f"# workload,{HUGE},rows,1\n" + HEADER + "a,0,5,128,1\n", 1, "malformed-header"),
    ],
    ids=["kernel-name", "preamble-workload"],
)
def test_oversized_csv_field_is_a_located_profile_error(tmp_path, text, line, kind):
    path = tmp_path / "huge.csv"
    path.write_text(text)
    for error in strict_outcomes(path):
        assert (error.path, error.row) == (str(path), line)
        assert "field limit" in error.message
    report, table = validate_profile_csv(path)
    assert [(i.kind, i.row) for i in report.issues if i.row == line] == [(kind, line)]
    if kind == "malformed-row":
        assert table is not None and len(table) == 2  # the scan skipped the row
    with pytest.raises(ProfileError) as excinfo:
        protocol.parse_request("select", {"profile_csv": text})
    assert excinfo.value.context == {"path": "profile_csv", "row": line}


def test_invalid_utf8_is_a_located_profile_error(tmp_path):
    # Past the decoder's first block, so the error surfaces mid-scan.
    rows = [f"k{i % 7},{i // 7},{100 + i},128,1\n" for i in range(3000)]
    raw = ("# workload,w,rows,3000\n" + HEADER + "".join(rows)).encode()
    at = raw.index(b"k3,300,")
    raw = raw[:at] + b"\xff" + raw[at:]
    line = raw[:at].count(b"\n") + 1
    path = tmp_path / "latin.csv"
    path.write_bytes(raw)
    for error in strict_outcomes(path):
        assert (error.path, error.row) == (str(path), line)
        assert "UTF-8" in error.message
    report, table = validate_profile_csv(path)
    assert table is None and not report.ok
    assert [(i.kind, i.row) for i in report.issues] == [("unreadable-file", line)]


def test_invalid_utf8_while_sniffing_is_a_profile_error(tmp_path):
    path = tmp_path / "feed.dat"
    path.write_bytes(b"\xff# workload,w\n")
    with pytest.raises(ProfileError, match="UTF-8") as excinfo:
        ProfileTableReader(path)
    assert excinfo.value.row == 1


def test_deeply_nested_jsonl_line_is_a_located_profile_error():
    deep = "[" * 100_000 + "]" * 100_000
    text = '{"workload": "w"}\n' + deep + "\n"
    with pytest.raises(ProfileError, match="unparseable JSON") as excinfo:
        list(ProfileTableReader(io.StringIO(text), fmt="jsonl"))
    assert excinfo.value.row == 2


@pytest.mark.parametrize("value", ["1.9", "true", "-0.5"])
def test_non_integer_json_counts_are_rejected(value):
    row = (
        '{"kernel_name": "a", "invocation_id": 0, "insn_count": %s, '
        '"cta_size": 128, "num_ctas": 4}'
    )
    text = row % 10 + "\n" + row % value + "\n"
    with pytest.raises(ProfileError, match="insn_count must be an integer") as excinfo:
        list(ProfileTableReader(io.StringIO(text), fmt="jsonl"))
    assert excinfo.value.row == 2
    rows = [json.loads(row % 10), json.loads(row % value)]
    with pytest.raises(BadRequestError, match=r"profile_rows\[1\].*insn_count must be an integer"):
        protocol.table_from_rows(rows, workload="inline")
    for field in ("cta_size", "num_ctas", "invocation_id"):
        bad = [{**rows[0], field: json.loads(value)}]
        located = rf"profile_rows\[0\].*{field} must be an integer"
        with pytest.raises(BadRequestError, match=located):
            protocol.table_from_rows(bad, workload="inline")


def test_integral_json_numbers_still_read():
    row = {"kernel_name": "a", "invocation_id": 0, "insn_count": 1e3, "cta_size": 1, "num_ctas": 4}
    [chunk] = ProfileTableReader(io.StringIO(json.dumps(row) + "\n"), fmt="jsonl")
    assert chunk.insn_count.tolist() == [1000]
    assert protocol.table_from_rows([row], workload="inline").insn_count.tolist() == [1000]
