"""Fuzz the one profile parser: every input ends typed, and chunking is exact.

Valid CSV and JSONL feeds are rendered from small random tables (hostile
kernel names, with and without metric columns), then mutated once. Each
input runs through every entry point that parses profile text: the
reader at three chunk sizes, ``read_profile_csv``, the lenient validator,
and the service's request parser with ``profile_csv`` and ``profile_rows``
bodies. The outcome must be a table, a report or a ``SieveError``; a row
error must carry its line or its ``profile_rows[i]`` field.

A second property pins the reader's column path to its row loop: every
CSV feed, edited where ``np.loadtxt`` and ``int()``/``float()`` or the
csv module could part ways, reads the same with the column path forced to
decline (chunks, errors and lines, and the validator's issues).

The default hypothesis profile keeps this to a few seconds; CI runs it
deeper with ``--hypothesis-profile=fuzz``.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import pickle
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.gpu.kernel import PKS_METRIC_NAMES
from repro.profiling.csv_io import ProfileTableReader, read_profile_csv, write_profile_csv
from repro.profiling.table import ProfileTable, concat_profile_tables
from repro.robustness.validate import validate_profile_csv
from repro.service import protocol
from repro.utils.errors import BadRequestError, ProfileError, SieveError

CHUNK_SIZES = (1, 7, 4096)
#: ProfileErrors about the whole feed rather than one line.
WHOLE_FEED = ("empty profile CSV", "row count mismatch", "profile CSV contains no invocation rows")
NAMES = st.text(alphabet='ab,"\n\r\t {[ядро<>*', min_size=1, max_size=6)
#: Names the csv module writes unquoted, so their blocks can take the
#: reader's column path.
PLAIN_NAMES = st.text(alphabet="ab_0 \t{[<>*#", min_size=1, max_size=6)
#: Unquoted names outside printable ASCII: Cyrillic, CJK, NBSP, U+0085,
#: U+2028, a combining mark and ASCII controls.
WIDE_NAMES = st.text(
    alphabet="ab_ядро核心\u00a0\u0085\u2028\u0301\x01\x0b\x0c\x1c\x1f\x7f",
    min_size=1,
    max_size=6,
)
MUTATIONS = (
    "none", "drop", "duplicate", "truncate", "splice", "swap", "delete-field",
    "quote", "huge", "deep", "rows",
)


def deep_list(depth: int) -> list:
    value: list = []
    for _ in range(depth):
        value = [value]
    return value


#: Row-level mutations of a ``profile_rows`` body.
HOSTILE_VALUES = (1.9, True, None, "x", "12", 2**70, -1, {}, deep_list(5000))


@st.composite
def tables(draw, name_text=NAMES) -> ProfileTable:
    names = draw(st.lists(name_text, min_size=1, max_size=4, unique=True))
    n = draw(st.integers(1, 25))
    kernel_id = np.array(draw(st.lists(st.integers(0, len(names) - 1), min_size=n, max_size=n)))
    seen: dict[int, int] = {}
    invocation_id = []
    for kid in kernel_id.tolist():
        invocation_id.append(seen.get(kid, 0))
        seen[kid] = invocation_id[-1] + 1
    insn = np.array(draw(st.lists(st.integers(1, 2**40), min_size=n, max_size=n)), dtype=np.int64)
    metrics = None
    if draw(st.booleans()):
        metrics = np.array(
            draw(st.lists(
                st.floats(0, 1e6, allow_nan=False), min_size=n * 12, max_size=n * 12
            ))
        ).reshape(n, len(PKS_METRIC_NAMES))
        metrics[:, PKS_METRIC_NAMES.index("instruction_count")] = insn
    return ProfileTable(
        workload="fuzz",
        kernel_names=tuple(names),
        kernel_id=kernel_id.astype(np.int32),
        invocation_id=np.array(invocation_id, dtype=np.int64),
        insn_count=insn,
        cta_size=np.full(n, 128, dtype=np.int32),
        num_ctas=np.array(draw(st.lists(st.integers(1, 64), min_size=n, max_size=n))),
        metrics=metrics,
    )


def row_dicts(table: ProfileTable) -> list[dict]:
    return [
        {
            "kernel_name": table.kernel_name_of_row(i),
            "invocation_id": int(table.invocation_id[i]),
            "insn_count": int(table.insn_count[i]),
            "cta_size": int(table.cta_size[i]),
            "num_ctas": int(table.num_ctas[i]),
        }
        for i in range(len(table))
    ]


def csv_text(table: ProfileTable, path) -> str:
    write_profile_csv(table, path)
    with open(path, newline="") as handle:
        return handle.read()


def jsonl_text(table: ProfileTable) -> str:
    lines = [json.dumps({"workload": table.workload, "rows": len(table)})]
    lines += [json.dumps(row) for row in row_dicts(table)]
    return "\n".join(lines) + "\n"


def mutate(text: str, mutation: str, data) -> str:
    lines = text.splitlines(keepends=True)
    line = data.draw(st.integers(0, len(lines) - 1))
    at = data.draw(st.integers(0, len(text)))
    if mutation == "drop":
        del lines[line]
    elif mutation == "duplicate":
        lines.insert(line, lines[line])
    elif mutation == "truncate":
        return text[:at]
    elif mutation == "splice":
        return text[:at] + data.draw(st.text(max_size=8)) + text[at:]
    elif mutation in ("swap", "delete-field"):
        fields = lines[line].split(",")
        i = data.draw(st.integers(0, len(fields) - 1))
        j = data.draw(st.integers(0, len(fields) - 1))
        if mutation == "swap":
            fields[i], fields[j] = fields[j], fields[i]
        else:
            del fields[i]
        lines[line] = ",".join(fields)
    elif mutation == "quote":
        return text[:at] + '"' + text[at:]
    elif mutation == "huge":
        return text[:at] + "x" * 131_073 + text[at:]
    elif mutation == "deep":
        lines.insert(line, "[" * 5000 + "]" * 5000 + "\n")
    elif mutation == "rows":
        wrong = data.draw(st.integers(-2, 40))
        lines[0] = re.sub(r'(rows"?[:,] ?)\d+', rf"\g<1>{wrong}", lines[0])
    return "".join(lines)


def outcome(parse):
    """The parse's result, or the SieveError it raised; nothing else escapes."""
    try:
        return parse()
    except SieveError as exc:
        return exc


def assert_located(result) -> None:
    if isinstance(result, ProfileError):
        assert result.row is not None or result.message.startswith(WHOLE_FEED), result
    elif isinstance(result, BadRequestError):
        assert "profile_" in result.message, result


def digest(table) -> bytes:
    return pickle.dumps(table, protocol=pickle.HIGHEST_PROTOCOL)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("ingest-fuzz")


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(table=tables(), fmt=st.sampled_from(["csv", "jsonl"]), mutation=st.sampled_from(MUTATIONS),
       data=st.data())
def test_every_ingest_path_ends_typed(scratch, table, fmt, mutation, data):
    clean = csv_text(table, scratch / "clean.csv") if fmt == "csv" else jsonl_text(table)
    text = clean if mutation == "none" else mutate(clean, mutation, data)
    path = scratch / "feed.txt"
    with open(path, "w", newline="") as handle:
        handle.write(text)

    def chunks(size: int) -> list[ProfileTable]:
        return list(ProfileTableReader(io.StringIO(text, newline=""), chunk_rows=size, fmt=fmt))

    chunked = {}
    for size in CHUNK_SIZES:
        result = outcome(functools.partial(chunks, size))
        assert_located(result)
        if not isinstance(result, SieveError):
            assert all(1 <= len(chunk) <= size for chunk in result)
            chunked[size] = result
    strict = outcome(lambda: read_profile_csv(io.StringIO(text, newline="")))
    assert_located(strict)
    report, salvaged = validate_profile_csv(path)
    assert all(i.row is not None for i in report.issues if i.kind == "malformed-row")
    assert_located(outcome(lambda: protocol.parse_request("select", {"profile_csv": text})))

    rows = row_dicts(table)
    if mutation != "none":
        i = data.draw(st.integers(0, len(rows) - 1))
        key = data.draw(st.sampled_from(sorted(rows[i])))
        if data.draw(st.booleans()):
            del rows[i][key]
        else:
            rows[i][key] = data.draw(st.sampled_from(HOSTILE_VALUES))
    assert_located(outcome(lambda: protocol.parse_request("select", {"profile_rows": rows})))

    if mutation == "none":
        # Chunking never changes the table: every chunk size concatenates
        # to the strict whole-file read of the same feed.
        if fmt == "csv":
            want = strict
            assert salvaged is not None and digest(salvaged) == digest(want)
        else:
            sieve_text = csv_text(table.without_metrics(), path)
            want = read_profile_csv(io.StringIO(sieve_text, newline=""))
        assert set(chunked) == set(CHUNK_SIZES)
        for chunks in chunked.values():
            assert digest(concat_profile_tables(chunks)) == digest(want)


# ------------------------------------------------------------------ #
# The column path reads every CSV as the row loop does

#: Field text on which ``np.loadtxt`` and ``int()``/``float()`` could
#: disagree: control-character padding, digit separators, non-ASCII
#: digits, int64 and int32 edges, float text in an integer column, and
#: float spellings.
FIELD_TOKENS = (
    "\x1c5", "5\x1f", "\x1d\x1e7", "\xa05", "5\u2003", "1_000", "\u0663",
    str(2**63), str(-(2**63) - 1), str(2**63 - 1), "3000000000", "-2147483649",
    "5.0", "1e3", " 7 ", "\t7", "+5", "",
    "nan", "-nan", "inf", "-Infinity", "1e400", "-0.0", "5e-324", "1_0.5", "0x10",
)
#: Edits to a whole line.
LINE_EDITS = ("blank", "extra-field", "drop-field", "bare-cr", "nul", "quote")
BASE_HEADER = "kernel_name,invocation_id,insn_count,cta_size,num_ctas"
METRIC_HEADER = ",".join([BASE_HEADER, *(n for n in PKS_METRIC_NAMES if n != "instruction_count")])


def feed(*rows: str, header: str = BASE_HEADER, end: str = "\r\n") -> str:
    head = [f"# workload,w,rows,{len(rows)}", header]
    return "".join(line + end for line in head + list(rows))


def metric_row(*values: str) -> str:
    return "k,0,5,128,1," + ",".join(values + ("1.5",) * (11 - len(values)))


@st.composite
def csv_feeds(draw) -> str:
    """A written profile CSV with mixed line ends and up to three edits."""
    with tempfile.TemporaryDirectory() as tmp:
        table = draw(tables(draw(st.sampled_from([PLAIN_NAMES, WIDE_NAMES, NAMES]))))
        # Split where the reader does: str.splitlines also breaks at
        # U+0085 and U+2028, which names may hold.
        lines = io.StringIO(csv_text(table, Path(tmp) / "feed.csv"), newline="").readlines()
    ends = draw(st.sampled_from(["\r\n", "\n", "mixed"]))
    if ends != "\r\n":
        lines = [
            line[:-2] + "\n" if ends == "\n" or draw(st.booleans()) else line
            for line in lines
        ]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(2, len(lines) - 1))
        body = lines[i].rstrip("\r\n")
        end = lines[i][len(body):]
        edit = draw(st.sampled_from(FIELD_TOKENS + LINE_EDITS))
        at = draw(st.integers(0, len(body)))
        if edit == "blank":
            body = end + body
        elif edit == "extra-field":
            body += ",9"
        elif edit == "drop-field":
            body = body.rpartition(",")[0]
        elif edit in ("bare-cr", "nul", "quote"):
            body = body[:at] + {"bare-cr": "\r", "nul": "\x00", "quote": '"'}[edit] + body[at:]
        else:
            fields = body.split(",")
            fields[draw(st.integers(0, len(fields) - 1))] = edit
            body = ",".join(fields)
        lines[i] = body + end
    return "".join(lines)


def read_everywhere(text: str, path) -> tuple:
    """What every caller sees of ``text``: strict chunks at each size, the
    whole-file read and the validator's report."""

    def seen(parse):
        try:
            return parse()
        except ProfileError as exc:
            return str(exc)

    def chunk_digests(size: int) -> list[str]:
        feed = io.StringIO(text, newline="")
        return [
            hashlib.sha256(digest(chunk)).hexdigest()
            for chunk in ProfileTableReader(feed, chunk_rows=size, fmt="csv")
        ]

    strict = [seen(functools.partial(chunk_digests, size)) for size in CHUNK_SIZES]
    whole = seen(lambda: digest(read_profile_csv(io.StringIO(text, newline=""))))
    report, salvaged = validate_profile_csv(path)
    issues = [(issue.kind, issue.message, issue.row) for issue in report.issues]
    return strict, whole, issues, salvaged is not None and digest(salvaged)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(text=csv_feeds())
@example(text=feed("a,0,5,128,1", '"b",0,6,128,1', "a,1,5,128,1"))
@example(text=feed("a,0,\x1f9,128,1", "a,1,5,128,\x1c1"))
@example(text=feed("a,0,\t5\t,128,1", "a,1, 5 ,128,1", end="\n"))
@example(text=feed("a,0,5\r,128,1", "a,1,5,128,1"))
@example(text=feed("a,0,5,128,1,7", "a,1,5,128,1"))
@example(text=feed("a,0,5,128,1", "", "a,1,5,128,1"))
@example(text=feed("a,0,5,128,1,6,7,8,9", "", "a,1,5,128,1"))  # commas still add up
@example(text=feed("x" * 131_073 + ",0,5,128,1"))
@example(text=feed("a,0,5,3000000000,1", "a,1,5,-2147483649,1", "a,2,5,2147483647,1"))
@example(text=feed("a,0,1_000,128,1", "a,1,\u0663,128,1", f"a,2,{2**63},128,1"))
@example(text=feed("a,0,5.0,128,1", "a,1,1e3,128,1"))
@example(text=feed("a\x00,0,5,128,1", "\u044f\u0434\u0440\u043e,1,5,128,1", end="\n"))
@example(text=feed("\u044f\u2028,0,5,128,1", "\u6838\u0301\u0085,1,5,128,1"))
@example(text=feed("\u044f,0,5,128,1", "\u6838,1,\u00a05,128,1", "b,0,5,128,\u0663"))
@example(text=feed("a\x0b,0,5,128,1", "b\x1f\x7f,1,5,128,1", "c,0,\x1c5,128,1"))
@example(text=feed(
    metric_row("nan", "-nan", "inf", "-inf", "1e400", "-1e400"),
    metric_row("-0.0", "5e-324", "2.5e-324", "1.7976931348623159e308"),
    metric_row("1_0.5"),
    header=METRIC_HEADER,
))
def test_column_path_reads_as_the_row_loop(scratch, text):
    path = scratch / "column.csv"
    with open(path, "w", newline="") as handle:
        handle.write(text)
    columns = read_everywhere(text, path)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ProfileTableReader, "_column_chunk", lambda self, block, text, width: None)
        rows = read_everywhere(text, path)
    assert columns == rows
