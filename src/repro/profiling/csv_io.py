"""CSV and JSONL serialization of profile tables, read by one parser.

Section IV: "The data is converted into a readable CSV file which serves as
input to PKS and Sieve." This module round-trips :class:`ProfileTable`
through that CSV format.

The preamble row carries the workload name and the expected invocation-row
count (``# workload,<name>,rows,<n>``) so truncated files are detectable;
readers tolerate older files without the count. A header that names metric
columns must name each of the eleven non-instruction Table II metrics once,
in any order; such a file reads back as the canonical ``(rows, 12)`` matrix
with ``instruction_count`` taken from ``insn_count``.

:class:`ProfileTableReader` is the only code that turns profile text into
rows. CSV data is read one block of ``chunk_rows`` lines at a time, by
column: ``np.loadtxt`` converts the numeric columns and one split per line
takes the kernel names. A block whose text could parse differently that
way than through the csv module goes through the csv row loop instead,
and from the first quote the row loop reads the rest of the feed (a
quoted field may span lines). JSONL has one row loop. Row loops share
one column builder (:func:`build_profile_table`) with the service's
inline JSON rows. Every malformed data row and a short row count go
through one reader method, which raises :class:`ProfileError` with the
source and 1-based line number. :func:`read_profile_csv` is the reader
over a whole file plus a concat;
:func:`repro.robustness.validate.validate_profile_csv` is the reader with
that method overridden to record issues instead of raising.
"""

from __future__ import annotations

import csv
import itertools
import json
import sys
import warnings
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from repro.gpu.kernel import PKS_METRIC_NAMES
from repro.observability import metrics
from repro.profiling.table import ProfileTable, concat_profile_tables
from repro.utils.errors import ProfileError
from repro.utils.validation import require

_BASE_COLUMNS = ("kernel_name", "invocation_id", "insn_count", "cta_size", "num_ctas")

#: The Table II metrics a CSV stores as columns (``instruction_count`` is
#: the ``insn_count`` column), and where each sits in the canonical matrix.
_STORED_METRICS = tuple(name for name in PKS_METRIC_NAMES if name != "instruction_count")
_STORED_SLOTS = [PKS_METRIC_NAMES.index(name) for name in _STORED_METRICS]
_INSN_SLOT = PKS_METRIC_NAMES.index("instruction_count")

#: Inclusive ranges of the int32 and int64 columns a row's integers fill.
_INT32_MIN, _INT32_MAX = -(2**31), 2**31 - 1
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

#: The characters a block's converted fields may hold to take the column
#: path: printable ASCII, tab and line ends. ``np.loadtxt`` strips
#: ``\x1c``-``\x1f`` as whitespace where ``int()`` rejects them, and NUL
#: is an error to the csv module before Python 3.11.
_PLAIN_TEXT = bytes(range(0x20, 0x7F)) + b"\t\r\n"


def check_int_fields(invocation: int, insn: int, cta: int, ctas: int) -> None:
    """Raise ``ValueError`` unless a row's integers fit their columns.

    ``int()`` accepts any size, but a profile table stores ``cta_size``
    as int32 and the other three as int64, which a larger value would
    overflow.
    """
    if (
        _INT64_MIN <= invocation <= _INT64_MAX
        and _INT64_MIN <= insn <= _INT64_MAX
        and _INT32_MIN <= cta <= _INT32_MAX
        and _INT64_MIN <= ctas <= _INT64_MAX
    ):
        return
    for field, value, low, high, dtype in (
        ("invocation_id", invocation, _INT64_MIN, _INT64_MAX, "int64"),
        ("insn_count", insn, _INT64_MIN, _INT64_MAX, "int64"),
        ("cta_size", cta, _INT32_MIN, _INT32_MAX, "int32"),
        ("num_ctas", ctas, _INT64_MIN, _INT64_MAX, "int64"),
    ):
        if not low <= value <= high:
            raise ValueError(f"{field} {value} is out of range for {dtype}")


def write_profile_csv(table: ProfileTable, path: str | Path) -> None:
    """Write ``table`` to ``path`` as CSV (one row per invocation)."""
    path = Path(path)
    with_metrics = table.metrics is not None
    header = list(_BASE_COLUMNS)
    if with_metrics:
        header += [name for name in table.metric_names if name != "instruction_count"]
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["# workload", table.workload, "rows", len(table)])
        writer.writerow(header)
        for row in range(len(table)):
            record: list[object] = [
                table.kernel_name_of_row(row),
                int(table.invocation_id[row]),
                int(table.insn_count[row]),
                int(table.cta_size[row]),
                int(table.num_ctas[row]),
            ]
            if with_metrics:
                record += [
                    repr(float(table.metrics[row, j]))
                    for j, name in enumerate(table.metric_names)
                    if name != "instruction_count"
                ]
            writer.writerow(record)


def json_int(value: object, field: str) -> int:
    """A JSON value as an integer count; raises ``ValueError`` otherwise.

    ``int()`` alone would read ``true`` as 1 and truncate ``1.9`` to 1.
    Integral floats (``1e3``) and integer strings still read.
    """
    number = int(value)
    if isinstance(value, bool) or (isinstance(value, float) and number != value):
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return number


def _parse_preamble(preamble: list[str], path: Path) -> tuple[str, int | None]:
    """Extract (workload, declared row count) from the preamble row."""
    require(
        len(preamble) >= 2 and preamble[0] == "# workload",
        "missing workload preamble",
        lambda m: ProfileError(m, path=str(path), row=1),
    )
    workload = preamble[1]
    declared_rows: int | None = None
    if len(preamble) >= 4 and preamble[2] == "rows":
        try:
            declared_rows = int(preamble[3])
        except ValueError:
            raise ProfileError(
                f"unparseable row count {preamble[3]!r}", path=str(path), row=1
            ) from None
    return workload, declared_rows


def _parse_header(header: list[str], path: Path) -> tuple[int, ...]:
    """Check the header; return where each stored metric sits in a row.

    The result holds, for each of ``_STORED_METRICS``, its position among
    the row's metric fields; it is empty for a header without metrics.
    """

    def at_header(message: str) -> ProfileError:
        return ProfileError(message, path=str(path), row=2)

    require(
        tuple(header[: len(_BASE_COLUMNS)]) == _BASE_COLUMNS,
        f"unexpected CSV columns {header[:len(_BASE_COLUMNS)]!r}",
        at_header,
    )
    metric_columns = header[len(_BASE_COLUMNS):]
    unknown = [name for name in metric_columns if name not in PKS_METRIC_NAMES]
    require(not unknown, f"unknown metric columns {unknown!r}", at_header)
    # Only one column can be kept per metric; a second copy would be dropped.
    require(
        "instruction_count" not in metric_columns,
        "metric column 'instruction_count' repeats insn_count",
        at_header,
    )
    repeated = sorted({name for name in metric_columns if metric_columns.count(name) > 1})
    require(not repeated, f"repeated metric columns {repeated!r}", at_header)
    if not metric_columns:
        return ()
    position = {name: j for j, name in enumerate(metric_columns)}
    missing = [name for name in _STORED_METRICS if name not in position]
    require(not missing, f"missing metric columns {missing!r}", at_header)
    return tuple(position[name] for name in _STORED_METRICS)


def build_profile_table(
    rows: list[tuple],
    workload: str,
    names: list[str],
    index: dict[str, int],
    metric_slots: tuple[int, ...] = (),
) -> ProfileTable:
    """Assemble parsed rows into a table: the row loops' column builder.

    Each row is ``(kernel_name, invocation_id, insn_count, cta_size,
    num_ctas, metric_values)`` with range-checked integers. Kernels are
    numbered first-seen into ``names``/``index``, which the caller owns,
    so a map passed again with the next rows keeps every earlier id. With
    ``metric_slots`` (see :func:`_parse_header`) the table carries the
    canonical ``(rows, 12)`` matrix; otherwise it has no metrics.
    """
    n = len(rows)
    kernel_id = np.empty(n, dtype=np.int32)
    invocation_id = np.empty(n, dtype=np.int64)
    insn = np.empty(n, dtype=np.int64)
    cta_size = np.empty(n, dtype=np.int32)
    num_ctas = np.empty(n, dtype=np.int64)
    for i, (name, inv, count, cta, ctas, _) in enumerate(rows):
        slot = index.get(name)
        if slot is None:
            slot = index[name] = len(names)
            names.append(name)
        kernel_id[i] = slot
        invocation_id[i] = inv
        insn[i] = count
        cta_size[i] = cta
        num_ctas[i] = ctas
    stored = np.array([row[5] for row in rows], dtype=np.float64) if metric_slots else None
    return _profile_table(
        workload, names, kernel_id, invocation_id, insn, cta_size, num_ctas, stored, metric_slots
    )


def _profile_table(
    workload: str,
    names: list[str],
    kernel_id: np.ndarray,
    invocation_id: np.ndarray,
    insn: np.ndarray,
    cta_size: np.ndarray,
    num_ctas: np.ndarray,
    stored: np.ndarray | None,
    metric_slots: tuple[int, ...],
) -> ProfileTable:
    """The table over parsed columns; ``stored`` holds the metric fields."""
    matrix = None
    if metric_slots:
        matrix = np.empty((len(insn), len(PKS_METRIC_NAMES)), dtype=np.float64)
        matrix[:, _INSN_SLOT] = insn
        matrix[:, _STORED_SLOTS] = stored[:, metric_slots]
    return ProfileTable(
        workload=workload,
        kernel_names=tuple(names),
        kernel_id=kernel_id,
        invocation_id=invocation_id,
        insn_count=insn,
        cta_size=cta_size,
        num_ctas=num_ctas,
        metrics=matrix,
    )


def _then_raise(lines: list[str], exc: Exception) -> Iterator[str]:
    """``lines``, then ``exc``: a feed as far as it could be read."""
    yield from lines
    raise exc


def _plain_fields(block: list[str], text: str) -> bool:
    """Whether ``block`` (``text`` is its lines joined) holds no NUL and
    only ``_PLAIN_TEXT`` after each line's first comma.

    Kernel names are split off by ``str.partition`` and never converted,
    so they may hold any other character; NUL is an error to the csv
    module before Python 3.11. A block that is plain throughout, as a
    feed of printable-ASCII names is, passes without splitting its lines:
    the split adds about a fifth to the column path on a Sieve feed.
    """
    if text.isascii() and not text.encode("ascii").translate(None, _PLAIN_TEXT):
        return True
    numbers = "".join([line.partition(",")[2] for line in block])
    return (
        "\x00" not in text
        and numbers.isascii()
        and not numbers.encode("ascii").translate(None, _PLAIN_TEXT)
    )


def _read_columns(lines: list[str], usecols: Sequence[int], dtype: type) -> np.ndarray:
    """The ``(lines, len(usecols))`` fields of comma-separated ``lines``.

    Given a list, ``np.loadtxt`` reads each item as one line and raises
    where a line break sits anywhere but at its end; it skips blank lines.
    """
    return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, usecols=usecols, ndmin=2)


def read_profile_csv(source: str | Path | TextIO) -> ProfileTable:
    """Read a profile table previously written by :func:`write_profile_csv`.

    ``source`` is a path or an open text handle. Malformed input — empty
    files, bad headers, rows with the wrong column count or unparseable
    numbers, missing metric columns, or a row count that contradicts the
    preamble (a truncated file) — raises :class:`ProfileError` with the
    source and 1-based line number.
    """
    reader = ProfileTableReader(source, fmt="csv")
    chunks = list(reader)
    require(
        len(chunks) > 0,
        "profile CSV contains no invocation rows",
        lambda m: ProfileError(m, path=str(reader._path)),
    )
    return concat_profile_tables(chunks)


class ProfileTableReader:
    """Chunked reader over a profile feed: CSV, JSONL, file or stdin.

    Yields :class:`ProfileTable` chunks of at most ``chunk_rows`` rows,
    suitable for a method's ``begin_stream`` surface. The reader keeps one
    *growing* kernel-name map across chunks, so kernel ids are stable: a
    name's id in chunk ``k`` equals its id in every later chunk, and each
    chunk's ``kernel_names`` tuple is the map so far (a prefix-consistent
    view). Only O(chunk_rows + kernels) rows are resident at any time.

    ``source`` is a path, ``"-"`` (stdin), or an open text handle whose
    ``name``, if any, locates errors. The format is taken from ``fmt``
    (``"csv"``/``"jsonl"``), else sniffed: a ``.jsonl``/``.ndjson``
    suffix, or a first line starting with ``{``, means JSONL.

    * CSV feeds use the :func:`write_profile_csv` layout (preamble +
      header + rows). A header with metric columns yields chunks with the
      canonical ``(rows, 12)`` Table II matrix. Data is read in blocks of
      ``chunk_rows`` lines, each parsed by column (see
      :meth:`_column_chunk`) unless its text could read differently
      there; such a block goes through the row loop (:meth:`_csv_rows`)
      with the same line numbers, and from the first block holding a
      quote the row loop reads the rest of the feed. Either way the
      chunks, errors and line numbers are the row loop's.
    * JSONL feeds carry one object per row with keys ``kernel_name``,
      ``invocation_id``, ``insn_count``, ``cta_size``, ``num_ctas``; an
      optional leading ``{"workload": ..., "rows": ...}`` header object
      plays the preamble's role.

    Preamble, header and encoding errors raise :class:`ProfileError`. A
    malformed data row, and a feed that ends short of its declared row
    count, go through :meth:`_reject_row`, which raises
    :class:`ProfileError` with the 1-based line number.
    """

    def __init__(
        self,
        source: str | Path | TextIO,
        *,
        chunk_rows: int = 4096,
        fmt: str | None = None,
        workload: str | None = None,
    ):
        require(chunk_rows >= 1, "chunk_rows must be >= 1", ProfileError)
        require(
            fmt in (None, "csv", "jsonl"),
            f"unknown feed format {fmt!r} (expected 'csv' or 'jsonl')",
            ProfileError,
        )
        self.chunk_rows = chunk_rows
        self.workload = workload or "stream"
        self.declared_rows: int | None = None
        self.rows_read = 0
        self._names: list[str] = []
        self._index: dict[str, int] = {}
        #: The CSV header's metric layout (see :func:`_parse_header`).
        self._metric_slots: tuple[int, ...] = ()
        if hasattr(source, "read"):
            self._handle: TextIO = source  # type: ignore[assignment]
            self._path = Path(getattr(source, "name", "<stream>"))
            self._owns_handle = False
        elif str(source) == "-":
            self._handle = sys.stdin
            self._path = Path("<stdin>")
            self._owns_handle = False
        else:
            self._path = Path(source)
            self._handle = self._path.open(newline="")
            self._owns_handle = True
        self._lines: Iterator[str] = iter(self._handle)
        self._fmt = fmt or self._sniff()

    def _sniff(self) -> str:
        suffix = self._path.suffix.lower()
        if suffix in (".jsonl", ".ndjson"):
            return "jsonl"
        if suffix == ".csv":
            return "csv"
        try:
            first = self._handle.readline()
        except UnicodeDecodeError as exc:
            if self._owns_handle:
                self._handle.close()
            raise self._undecodable(exc, 0) from exc
        self._lines = itertools.chain((first,), self._lines)
        return "jsonl" if first.lstrip()[:1] == "{" else "csv"

    def _reject_row(self, message: str, line: int | None) -> None:
        """Handle a malformed data row, or a short count (``line`` None)."""
        raise ProfileError(message, path=str(self._path), row=line)

    def _undecodable(self, exc: UnicodeDecodeError, lines_read: int) -> ProfileError:
        # The decoder fails on a whole block of bytes that starts on the
        # line after the last one read; count lines up to the bad byte.
        line = lines_read + 1 + exc.object[: exc.start].count(b"\n")
        return ProfileError(
            f"not valid UTF-8: {exc.reason}", path=str(self._path), row=line
        )

    def __iter__(self) -> Iterator[ProfileTable]:
        try:
            if self._fmt == "csv":
                chunks = self._csv_chunks()
            else:
                chunks = self._row_chunks(self._jsonl_rows())
            for chunk in chunks:
                self.rows_read += len(chunk)
                yield chunk
            if self.declared_rows is not None and self.rows_read != self.declared_rows:
                self._reject_row(
                    f"row count mismatch: declared {self.declared_rows} rows, "
                    f"found {self.rows_read} (truncated file or dropped rows?)",
                    None,
                )
        finally:
            if self._owns_handle:
                self._handle.close()

    def _row_chunks(self, rows: Iterator[tuple]) -> Iterator[ProfileTable]:
        """A row loop's rows as tables of at most ``chunk_rows`` rows."""
        while batch := list(itertools.islice(rows, self.chunk_rows)):
            metrics.inc("profiling.reader.blocks", path="rows")
            yield build_profile_table(
                batch, self.workload, self._names, self._index, self._metric_slots
            )
            del batch  # free these rows before parsing the next batch

    def _csv_chunks(self) -> Iterator[ProfileTable]:
        """Preamble and header, then the data one block at a time."""
        reader = csv.reader(self._lines)
        try:
            preamble = next(reader, None)
            if preamble is None:
                raise ProfileError("empty profile CSV", path=str(self._path))
            self.workload, self.declared_rows = _parse_preamble(preamble, self._path)
            header = next(reader, None)
            if header is None:
                raise ProfileError("missing header row", path=str(self._path), row=2)
        except csv.Error as exc:
            raise ProfileError(str(exc), path=str(self._path), row=reader.line_num) from None
        except UnicodeDecodeError as exc:
            raise self._undecodable(exc, reader.line_num) from exc
        self._metric_slots = _parse_header(header, self._path)
        width = len(header)
        before = reader.line_num  # lines read so far
        while True:
            block: list[str] = []
            try:
                # extend keeps the lines read before a decode error.
                block.extend(itertools.islice(self._lines, self.chunk_rows))
            except UnicodeDecodeError as exc:
                # The row loop meets those lines before the bad bytes, so it
                # raises for a bad row among them first, else for the bytes.
                for _ in self._csv_rows(_then_raise(block, exc), width, before):
                    pass
            if not block:
                return
            text = "".join(block)
            if '"' in text:
                # A quoted field may span lines; the csv module reads the rest.
                rest = itertools.chain(block, self._lines)
                yield from self._row_chunks(self._csv_rows(rest, width, before))
                return
            chunk = self._column_chunk(block, text, width)
            if chunk is None:
                yield from self._row_chunks(self._csv_rows(block, width, before))
            else:
                metrics.inc("profiling.reader.blocks", path="column")
                yield chunk
            before += len(block)

    def _column_chunk(self, block: list[str], text: str, width: int) -> ProfileTable | None:
        """``block`` (quote-free lines) parsed by column, or None to decline.

        The chunk equals what the row loop builds from these lines. A block
        declines wherever the two could differ: a line without exactly
        ``width`` fields, a blank line, a character :func:`_plain_fields`
        rejects, a line longer than the csv module's field limit, an
        integer ``int()`` or its column would reject, or any warning
        from ``np.loadtxt`` (since NumPy 1.23 it reads ``5.0`` in an
        integer column as 5 with a DeprecationWarning, until a later
        release raises instead). The row loop then reads the block and
        reports each bad row.
        """
        n = len(block)
        if (
            text.count(",") != n * (width - 1)
            or not _plain_fields(block, text)
            or max(map(len, block)) > csv.field_size_limit()
        ):
            return None
        try:
            # catch_warnings is process-wide: another thread's warning
            # raised meanwhile is recorded here, not shown, and declines
            # this block. No warning is turned into an error.
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                ints = _read_columns(block, (1, 2, 3, 4), np.int64)
                stored = (
                    _read_columns(block, range(5, width), np.float64)
                    if self._metric_slots
                    else None
                )
        except ValueError:
            return None
        # Fewer rows than lines: loadtxt skipped a blank line.
        if caught or len(ints) != n:
            return None
        cta_size = ints[:, 2]
        if cta_size.min() < _INT32_MIN or cta_size.max() > _INT32_MAX:
            return None
        names = [line.partition(",")[0] for line in block]
        index = self._index
        for name in dict.fromkeys(names):
            if name not in index:
                index[name] = len(self._names)
                self._names.append(name)
        return _profile_table(
            self.workload,
            self._names,
            np.fromiter(map(index.__getitem__, names), dtype=np.int32, count=n),
            ints[:, 0].copy(),
            ints[:, 1].copy(),
            cta_size.astype(np.int32),
            ints[:, 3].copy(),
            stored,
            self._metric_slots,
        )

    def _csv_rows(self, lines: Iterable[str], width: int, before: int) -> Iterator[tuple]:
        """The row loop over data ``lines`` that follow line ``before``."""
        reader = csv.reader(lines)
        slots = self._metric_slots
        # csv.Error (an oversized field) is caught around the row loop, not
        # per row; the csv reader resumes at the next line.
        while True:
            try:
                for row in reader:
                    try:
                        if len(row) != width:
                            raise ValueError(f"expected {width} columns, found {len(row)}")
                        invocation = int(row[1])
                        insn = int(row[2])
                        cta = int(row[3])
                        ctas = int(row[4])
                        check_int_fields(invocation, insn, cta, ctas)
                        # () for no metrics: no per-row list on Sieve feeds.
                        values = [float(v) for v in row[5:]] if slots else ()
                    except ValueError as exc:
                        self._reject_row(str(exc), before + reader.line_num)
                        continue
                    yield row[0], invocation, insn, cta, ctas, values
                return
            except csv.Error as exc:
                self._reject_row(str(exc), before + reader.line_num)
            except UnicodeDecodeError as exc:
                raise self._undecodable(exc, before + reader.line_num) from exc

    def _jsonl_rows(self) -> Iterator[tuple]:
        line_num = 0
        try:
            for line_num, line in enumerate(self._lines, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except (ValueError, RecursionError) as exc:
                    self._reject_row(f"unparseable JSON: {exc}", line_num)
                    continue
                if not isinstance(record, dict):
                    self._reject_row(
                        f"expected a JSON object, got {type(record).__name__}", line_num
                    )
                    continue
                if "kernel_name" not in record:
                    # Leading header object: workload / declared row count.
                    if line_num == 1 and ("workload" in record or "rows" in record):
                        self._jsonl_header(record)
                        continue
                    self._reject_row("row object missing 'kernel_name'", line_num)
                    continue
                try:
                    name = str(record["kernel_name"])
                    fields = (
                        json_int(record["invocation_id"], "invocation_id"),
                        json_int(record["insn_count"], "insn_count"),
                        json_int(record["cta_size"], "cta_size"),
                        json_int(record["num_ctas"], "num_ctas"),
                    )
                    check_int_fields(*fields)
                except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
                    self._reject_row(f"bad row object: {exc!r}", line_num)
                    continue
                yield (name, *fields, ())
        except UnicodeDecodeError as exc:
            raise self._undecodable(exc, line_num) from exc

    def _jsonl_header(self, record: dict) -> None:
        self.workload = str(record.get("workload", self.workload))
        if "rows" in record:
            try:
                self.declared_rows = json_int(record["rows"], "rows")
            except (TypeError, ValueError, OverflowError):
                raise ProfileError(
                    f"unparseable row count {record['rows']!r}", path=str(self._path), row=1
                ) from None
