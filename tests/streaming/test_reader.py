"""ProfileTableReader: chunked CSV/JSONL feeds, sniffing, truncation."""

from __future__ import annotations

import io
import json
import pickle
import warnings

import numpy as np
import pytest

from repro.evaluation.context import build_context
from repro.observability.metrics import get_registry
from repro.profiling.csv_io import (
    ProfileTableReader,
    read_profile_csv,
    write_profile_csv,
)
from repro.profiling.table import concat_profile_tables
from repro.utils.errors import ProfileError


@pytest.fixture(scope="module")
def table():
    return build_context("cactus/gru", max_invocations=900).sieve_table


def jsonl_lines(table, header=True):
    lines = []
    if header:
        lines.append(json.dumps({"workload": table.workload, "rows": len(table)}))
    for i in range(len(table)):
        lines.append(json.dumps({
            "kernel_name": table.kernel_name_of_row(i),
            "invocation_id": int(table.invocation_id[i]),
            "insn_count": int(table.insn_count[i]),
            "cta_size": int(table.cta_size[i]),
            "num_ctas": int(table.num_ctas[i]),
        }))
    return "\n".join(lines) + "\n"


def assert_tables_equal(got, want):
    assert got.workload == want.workload
    assert len(got) == len(want)
    got_names = [got.kernel_name_of_row(i) for i in range(len(got))]
    want_names = [want.kernel_name_of_row(i) for i in range(len(want))]
    assert got_names == want_names
    for column in ("invocation_id", "insn_count", "cta_size", "num_ctas"):
        np.testing.assert_array_equal(
            getattr(got, column), getattr(want, column)
        )


@pytest.mark.parametrize("chunk_rows", [1, 64, 500, 5000])
def test_csv_feed_round_trips_through_chunks(table, tmp_path, chunk_rows):
    path = tmp_path / "feed.csv"
    write_profile_csv(table, path)
    reader = ProfileTableReader(path, chunk_rows=chunk_rows)
    chunks = list(reader)
    assert all(len(c) <= chunk_rows for c in chunks)
    assert reader.rows_read == len(table)
    assert reader.workload == table.workload
    assert_tables_equal(concat_profile_tables(chunks), read_profile_csv(path))


def test_kernel_ids_are_prefix_stable_across_chunks(table, tmp_path):
    path = tmp_path / "feed.csv"
    write_profile_csv(table, path)
    chunks = list(ProfileTableReader(path, chunk_rows=100))
    for earlier, later in zip(chunks, chunks[1:]):
        assert later.kernel_names[: len(earlier.kernel_names)] == \
            earlier.kernel_names
    # Therefore a name's id never changes once assigned.
    seen: dict[str, int] = {}
    for chunk in chunks:
        for i in range(len(chunk)):
            name = chunk.kernel_name_of_row(i)
            kid = int(chunk.kernel_id[i])
            assert seen.setdefault(name, kid) == kid


def test_jsonl_feed_with_header(table):
    reader = ProfileTableReader(
        io.StringIO(jsonl_lines(table)), chunk_rows=128, fmt="jsonl"
    )
    merged = concat_profile_tables(list(reader))
    assert_tables_equal(merged, table)
    assert reader.declared_rows == len(table)


def test_jsonl_feed_without_header_uses_default_workload(table):
    reader = ProfileTableReader(
        io.StringIO(jsonl_lines(table, header=False)), fmt="jsonl"
    )
    merged = concat_profile_tables(list(reader))
    assert merged.workload == "stream"
    assert len(merged) == len(table)


def test_format_sniffing_on_seekable_streams(table):
    jsonl = ProfileTableReader(io.StringIO(jsonl_lines(table)))
    assert jsonl._fmt == "jsonl"
    csv_text = io.StringIO(
        "# workload,wl,rows,1\n"
        "kernel_name,invocation_id,insn_count,cta_size,num_ctas\n"
        "k,0,10,128,4\n"
    )
    assert ProfileTableReader(csv_text)._fmt == "csv"


class _Pipe(io.TextIOBase):
    """A non-seekable line stream (stdin stand-in)."""

    def __init__(self, text: str):
        self._inner = io.StringIO(text)

    def seekable(self) -> bool:
        return False

    def readline(self, size: int = -1) -> str:
        return self._inner.readline(size)

    def read(self, size: int = -1) -> str:
        return self._inner.read(size)


def test_format_sniffing_on_non_seekable_streams(table):
    reader = ProfileTableReader(_Pipe(jsonl_lines(table)), chunk_rows=200)
    assert reader._fmt == "jsonl"
    merged = concat_profile_tables(list(reader))
    assert_tables_equal(merged, table)


def test_non_seekable_csv_keeps_its_first_line(table):
    text = (
        "# workload,wl,rows,2\n"
        "kernel_name,invocation_id,insn_count,cta_size,num_ctas\n"
        "a,0,10,128,4\n"
        "a,1,20,128,4\n"
    )
    reader = ProfileTableReader(_Pipe(text))
    assert reader._fmt == "csv"
    [chunk] = list(reader)
    assert len(chunk) == 2 and reader.workload == "wl"


def test_truncated_feed_raises(table, tmp_path):
    path = tmp_path / "feed.csv"
    write_profile_csv(table, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-5]) + "\n")
    reader = ProfileTableReader(path, chunk_rows=100)
    with pytest.raises(ProfileError, match="row count mismatch"):
        list(reader)


def test_malformed_csv_row_carries_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "# workload,wl,rows,2\n"
        "kernel_name,invocation_id,insn_count,cta_size,num_ctas\n"
        "a,0,10,128,4\n"
        "a,not-an-int,20,128,4\n"
    )
    with pytest.raises(ProfileError) as excinfo:
        list(ProfileTableReader(path))
    assert excinfo.value.context.get("row") == 4


def test_malformed_jsonl_row_carries_line_number():
    text = '{"workload": "wl"}\n{"kernel_name": "a", "invocation_id": 0}\n'
    with pytest.raises(ProfileError) as excinfo:
        list(ProfileTableReader(io.StringIO(text), fmt="jsonl"))
    assert excinfo.value.context.get("row") == 2


@pytest.mark.parametrize(
    "row, message",
    [
        ("a,1,99999999999999999999999,128,4", "insn_count .* out of range for int64"),
        ("a,1,20,3000000000,4", "cta_size 3000000000 is out of range for int32"),
    ],
    ids=["insn_count-int64", "cta_size-int32"],
)
def test_out_of_range_csv_integer_carries_line_number(tmp_path, row, message):
    path = tmp_path / "overflow.csv"
    path.write_text(
        "# workload,wl,rows,2\n"
        "kernel_name,invocation_id,insn_count,cta_size,num_ctas\n"
        "a,0,10,128,4\n"
        f"{row}\n"
    )
    with pytest.raises(ProfileError, match=message) as excinfo:
        list(ProfileTableReader(path))
    assert excinfo.value.context == {"path": str(path), "row": 4}


ROW = '{"kernel_name": "a", "invocation_id": 1, "insn_count": %s, "cta_size": 128, "num_ctas": 4}'


@pytest.mark.parametrize(
    "lines, message, line",
    [
        (['{"rows": "abc"}', ROW % 10], "unparseable row count 'abc'", 1),
        ([ROW % 10, ROW % "1e30"], "insn_count .* out of range for int64", 2),
        ([ROW % 10, ROW % "Infinity"], "cannot convert float infinity to integer", 2),
    ],
    ids=["header-rows", "insn_count-1e30", "insn_count-infinity"],
)
def test_bad_jsonl_number_carries_line_number(lines, message, line):
    text = "\n".join(lines) + "\n"
    with pytest.raises(ProfileError, match=message) as excinfo:
        list(ProfileTableReader(io.StringIO(text), fmt="jsonl"))
    assert excinfo.value.context.get("row") == line


def test_empty_csv_feed_raises(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ProfileError, match="empty"):
        list(ProfileTableReader(path))


def test_reader_rejects_bad_configuration():
    with pytest.raises(ProfileError):
        ProfileTableReader(io.StringIO(""), chunk_rows=0)
    with pytest.raises(ProfileError):
        ProfileTableReader(io.StringIO(""), fmt="parquet")


def test_csv_feed_drives_sieve_stream_to_batch_parity(table, tmp_path):
    """End to end: file feed -> chunks -> SieveStream == batch pipeline.

    The batch counterpart of a feed is ``read_profile_csv`` of the same
    file: both number kernels by first appearance (the original table may
    number them differently), so that is the table parity is pinned on.
    """
    import pickle

    from repro.core.config import SieveConfig
    from repro.core.pipeline import SievePipeline
    from repro.methods import get_method
    from repro.streaming.base import StreamContext

    path = tmp_path / "feed.csv"
    write_profile_csv(table, path)
    stream = get_method("sieve").begin_stream(
        StreamContext(workload=table.workload), SieveConfig()
    )
    for chunk in ProfileTableReader(path, chunk_rows=177):
        stream.observe(chunk)
    streamed = stream.finalize()
    batch = SievePipeline(SieveConfig()).select(read_profile_csv(path))
    assert pickle.dumps(streamed) == pickle.dumps(batch)


HEADER = "kernel_name,invocation_id,insn_count,cta_size,num_ctas\n"


def blocks_by_path(read) -> dict[str, float]:
    """How many blocks each path parsed while ``read()`` ran."""
    registry = get_registry()
    paths = ("column", "rows")
    before = {p: registry.counter("profiling.reader.blocks", path=p) for p in paths}
    read()
    return {p: registry.counter("profiling.reader.blocks", path=p) - before[p] for p in paths}


def test_program_feeds_take_only_the_column_path(tmp_path):
    # A stream feed as perfbench writes it: plain names, LF line ends.
    lines = [
        f"k{i % 7},{i // 7},{1000 + i},{128 + 32 * (i % 3)},{1 + i % 50}\n" for i in range(700)
    ]
    feed = tmp_path / "feed.csv"
    feed.write_text("# workload,wl,rows,700\n" + HEADER + "".join(lines))
    assert blocks_by_path(lambda: list(ProfileTableReader(feed, chunk_rows=64))) == {
        "column": 11, "rows": 0,
    }
    # write_profile_csv ends lines with CRLF, with and without metrics.
    context = build_context("cactus/gru", max_invocations=900)
    for profile in (context.sieve_table, context.pks_table):
        path = tmp_path / "written.csv"
        write_profile_csv(profile, path)
        assert b"\r\n" in path.read_bytes()
        counts = blocks_by_path(lambda: list(ProfileTableReader(path, chunk_rows=256)))
        assert counts == {"column": -(-len(profile) // 256), "rows": 0}


def test_unprintable_kernel_names_take_the_column_path(tmp_path, monkeypatch):
    names = [
        "ядро_свёртки", "核心", "k\u00a0nbsp", "k\u0085", "k\u2028", "e\u0301", "k\x1f\x7f",
    ]
    path = tmp_path / "wide.csv"
    path.write_text(
        "# workload,wl,rows,126\n" + HEADER
        + "".join(f"{names[i % 7]},{i // 7},{1000 + i},128,{1 + i % 5}\n" for i in range(126)),
        encoding="utf-8",
    )
    reader = ProfileTableReader(path, chunk_rows=32)
    assert blocks_by_path(lambda: list(reader)) == {"column": 4, "rows": 0}
    assert reader._names == names
    columns = read_profile_csv(path)
    monkeypatch.setattr(ProfileTableReader, "_column_chunk", lambda self, block, text, width: None)
    assert pickle.dumps(columns) == pickle.dumps(read_profile_csv(path))


def test_quoted_kernel_name_takes_the_row_loop_from_its_block_on(tmp_path):
    names = ["a", "b", '"c, d"', "a", "b", "a"]
    path = tmp_path / "quoted.csv"
    path.write_text(
        "# workload,wl,rows,6\n" + HEADER
        + "".join(f"{name},{i},{10 + i},128,4\n" for i, name in enumerate(names))
    )
    reader = ProfileTableReader(path, chunk_rows=2)
    assert blocks_by_path(lambda: list(reader)) == {"column": 1, "rows": 2}
    assert reader._names == ["a", "b", "c, d"]


def test_loadtxt_reading_float_text_as_an_integer_declines(tmp_path, monkeypatch):
    """NumPy 1.23's loadtxt reads ``5.0`` in an integer column as 5 and
    warns (a DeprecationWarning); later releases raise. Acting like it,
    ``np.loadtxt`` must not get the block past the column path."""
    loadtxt = np.loadtxt

    def deprecated_float_ints(lines, dtype=float, **kwargs):
        if dtype is np.int64 and any(",5.0," in line for line in lines):
            warnings.warn(
                "loadtxt(): Parsing an integer via a float is deprecated.",
                DeprecationWarning,
                stacklevel=2,
            )
            lines = [line.replace(",5.0,", ",5,") for line in lines]
        return loadtxt(lines, dtype=dtype, **kwargs)

    monkeypatch.setattr(np, "loadtxt", deprecated_float_ints)
    path = tmp_path / "float.csv"
    path.write_text("# workload,wl,rows,2\n" + HEADER + "a,0,7,128,4\na,1,5.0,128,4\n")
    for parse in (read_profile_csv, lambda p: list(ProfileTableReader(p))):
        with pytest.raises(ProfileError, match=r"invalid literal for int\(\).*'5.0'") as excinfo:
            parse(path)
        assert excinfo.value.context == {"path": str(path), "row": 4}
