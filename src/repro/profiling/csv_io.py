"""CSV serialization of profile tables.

Section IV: "The data is converted into a readable CSV file which serves as
input to PKS and Sieve." This module round-trips :class:`ProfileTable`
through that CSV format.

The preamble row carries the workload name and the expected invocation-row
count (``# workload,<name>,rows,<n>``) so truncated files are detectable;
readers tolerate older files without the count. :func:`read_profile_csv`
is strict: any malformed row raises :class:`ProfileError` carrying the
file path and 1-based line number. For a lenient scan that salvages the
good rows and reports everything wrong, see
:func:`repro.robustness.validate.validate_profile_csv`.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from pathlib import Path
from typing import Iterator, TextIO

import numpy as np

from repro.gpu.kernel import PKS_METRIC_NAMES
from repro.profiling.table import ProfileTable
from repro.utils.errors import ProfileError
from repro.utils.validation import require

_BASE_COLUMNS = ("kernel_name", "invocation_id", "insn_count", "cta_size", "num_ctas")

#: Inclusive ranges of the int32 and int64 columns a row's integers fill.
_INT32_MIN, _INT32_MAX = -(2**31), 2**31 - 1
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


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


def parse_preamble(preamble: list[str], path: Path) -> tuple[str, int | None]:
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


def parse_header(header: list[str], path: Path) -> list[str]:
    """Check the base columns and return the trailing metric columns."""
    require(
        tuple(header[: len(_BASE_COLUMNS)]) == _BASE_COLUMNS,
        f"unexpected CSV columns {header[:len(_BASE_COLUMNS)]!r}",
        lambda m: ProfileError(m, path=str(path), row=2),
    )
    metric_columns = header[len(_BASE_COLUMNS):]
    unknown = [name for name in metric_columns if name not in PKS_METRIC_NAMES]
    require(
        not unknown,
        f"unknown metric columns {unknown!r}",
        lambda m: ProfileError(m, path=str(path), row=2),
    )
    return metric_columns


def parse_data_row(
    row: list[str], num_metrics: int
) -> tuple[str, int, int, int, int, list[float]]:
    """Parse one data row; raises plain ``ValueError`` on any bad field."""
    expected = len(_BASE_COLUMNS) + num_metrics
    if len(row) != expected:
        raise ValueError(f"expected {expected} columns, found {len(row)}")
    name = row[0]
    invocation = int(row[1])
    insn = int(row[2])
    cta = int(row[3])
    ctas = int(row[4])
    check_int_fields(invocation, insn, cta, ctas)
    # Most feeds carry no metrics: skip the per-row comprehension there,
    # which costs about what the range check adds.
    metric_values = [float(v) for v in row[5:]] if num_metrics else []
    return name, invocation, insn, cta, ctas, metric_values


def read_profile_csv(path: str | Path) -> ProfileTable:
    """Read a profile table previously written by :func:`write_profile_csv`.

    Malformed input — empty files, bad headers, rows with the wrong column
    count or unparseable numbers, missing metric columns, or a row count
    that contradicts the preamble (a truncated file) — raises
    :class:`ProfileError` with the file path and 1-based row number.
    """
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            preamble = next(reader)
        except StopIteration:
            raise ProfileError("empty profile CSV", path=str(path)) from None
        workload, declared_rows = parse_preamble(preamble, path)
        try:
            header = next(reader)
        except StopIteration:
            raise ProfileError(
                "missing header row", path=str(path), row=2
            ) from None
        metric_columns = parse_header(header, path)
        rows = []
        line_numbers = []
        for row in reader:
            rows.append(row)
            line_numbers.append(reader.line_num)

    require(
        len(rows) > 0,
        "profile CSV contains no invocation rows",
        lambda m: ProfileError(m, path=str(path)),
    )
    if declared_rows is not None and declared_rows != len(rows):
        raise ProfileError(
            f"row count mismatch: preamble declares {declared_rows} rows, "
            f"found {len(rows)} (file truncated or rows dropped?)",
            path=str(path),
        )

    kernel_names: list[str] = []
    kernel_index: dict[str, int] = {}
    kernel_id = np.empty(len(rows), dtype=np.int32)
    invocation_id = np.empty(len(rows), dtype=np.int64)
    insn = np.empty(len(rows), dtype=np.int64)
    cta_size = np.empty(len(rows), dtype=np.int32)
    num_ctas = np.empty(len(rows), dtype=np.int64)
    metric_values = (
        np.empty((len(rows), len(metric_columns)), dtype=np.float64)
        if metric_columns
        else None
    )
    for i, row in enumerate(rows):
        try:
            name, inv, count, cta, ctas, values = parse_data_row(
                row, len(metric_columns)
            )
        except ValueError as exc:
            raise ProfileError(
                str(exc), path=str(path), row=line_numbers[i]
            ) from None
        if name not in kernel_index:
            kernel_index[name] = len(kernel_names)
            kernel_names.append(name)
        kernel_id[i] = kernel_index[name]
        invocation_id[i] = inv
        insn[i] = count
        cta_size[i] = cta
        num_ctas[i] = ctas
        if metric_values is not None:
            metric_values[i] = values

    metrics = None
    if metric_values is not None:
        # Reassemble the full Table II matrix in canonical column order,
        # reinserting instruction_count from its dedicated column. The
        # stored columns may appear in any order; all non-instruction
        # metrics must be present.
        stored = {name: j for j, name in enumerate(metric_columns)}
        missing = [
            name
            for name in PKS_METRIC_NAMES
            if name != "instruction_count" and name not in stored
        ]
        require(
            not missing,
            f"missing metric columns {missing!r}",
            lambda m: ProfileError(m, path=str(path), row=2),
        )
        metrics = np.empty((len(rows), len(PKS_METRIC_NAMES)), dtype=np.float64)
        for j, name in enumerate(PKS_METRIC_NAMES):
            if name == "instruction_count":
                metrics[:, j] = insn.astype(np.float64)
            else:
                metrics[:, j] = metric_values[:, stored[name]]

    return ProfileTable(
        workload=workload,
        kernel_names=tuple(kernel_names),
        kernel_id=kernel_id,
        invocation_id=invocation_id,
        insn_count=insn,
        cta_size=cta_size,
        num_ctas=num_ctas,
        metrics=metrics,
    )


#: JSONL feed fields, one object per invocation row. ``workload`` and
#: ``rows`` may appear in an optional leading header object instead.
_JSONL_FIELDS = _BASE_COLUMNS


class ProfileTableReader:
    """Chunked reader over a profile feed: CSV, JSONL, file or stdin.

    Yields :class:`ProfileTable` chunks of at most ``chunk_rows`` rows,
    suitable for a method's ``begin_stream`` surface. The reader keeps one
    *growing* kernel-name map across chunks, so kernel ids are stable: a
    name's id in chunk ``k`` equals its id in every later chunk, and each
    chunk's ``kernel_names`` tuple is the map so far (a prefix-consistent
    view). Only O(chunk_rows + kernels) rows are resident at any time.

    ``source`` is a path, ``"-"`` (stdin), or an open text handle. The
    format is taken from ``fmt`` (``"csv"``/``"jsonl"``), else sniffed:
    a ``.jsonl``/``.ndjson`` suffix or a first byte of ``{`` means JSONL.

    * CSV feeds use the :func:`write_profile_csv` layout (preamble +
      header + rows); trailing metric columns are accepted and dropped —
      streams consume the Sieve-visible columns.
    * JSONL feeds carry one object per row with keys ``kernel_name``,
      ``invocation_id``, ``insn_count``, ``cta_size``, ``num_ctas``; an
      optional leading ``{"workload": ..., "rows": ...}`` header object
      plays the preamble's role.

    Malformed rows raise :class:`ProfileError` with the 1-based line
    number. When the feed declared a row count, exhausting it early
    raises the same truncation error as :func:`read_profile_csv`.
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
        self._fmt = fmt or self._sniff()

    def _sniff(self) -> str:
        suffix = self._path.suffix.lower()
        if suffix in (".jsonl", ".ndjson"):
            return "jsonl"
        if suffix == ".csv":
            return "csv"
        if self._handle.seekable():
            pos = self._handle.tell()
            first = self._handle.read(1)
            self._handle.seek(pos)
            return "jsonl" if first == "{" else "csv"
        # Non-seekable (a pipe): peek by buffering the first line.
        first_line = self._handle.readline()
        rest = self._handle
        self._handle = _ChainedText(first_line, rest)
        return "jsonl" if first_line.lstrip()[:1] == "{" else "csv"

    def _register(self, name: str) -> int:
        slot = self._index.get(name)
        if slot is None:
            slot = len(self._names)
            self._index[name] = slot
            self._names.append(name)
        return slot

    def _chunk_from(
        self, parsed: list[tuple[str, int, int, int, int]]
    ) -> ProfileTable:
        n = len(parsed)
        kernel_id = np.empty(n, dtype=np.int32)
        invocation_id = np.empty(n, dtype=np.int64)
        insn = np.empty(n, dtype=np.int64)
        cta_size = np.empty(n, dtype=np.int32)
        num_ctas = np.empty(n, dtype=np.int64)
        for i, (name, inv, count, cta, ctas) in enumerate(parsed):
            kernel_id[i] = self._register(name)
            invocation_id[i] = inv
            insn[i] = count
            cta_size[i] = cta
            num_ctas[i] = ctas
        self.rows_read += n
        return ProfileTable(
            workload=self.workload,
            kernel_names=tuple(self._names),
            kernel_id=kernel_id,
            invocation_id=invocation_id,
            insn_count=insn,
            cta_size=cta_size,
            num_ctas=num_ctas,
        )

    def __iter__(self) -> Iterator[ProfileTable]:
        try:
            rows = self._iter_csv() if self._fmt == "csv" else self._iter_jsonl()
            pending: list[tuple[str, int, int, int, int]] = []
            for record in rows:
                pending.append(record)
                if len(pending) >= self.chunk_rows:
                    yield self._chunk_from(pending)
                    pending = []
            if pending:
                yield self._chunk_from(pending)
            if (
                self.declared_rows is not None
                and self.rows_read != self.declared_rows
            ):
                raise ProfileError(
                    f"row count mismatch: feed declares {self.declared_rows} "
                    f"rows, delivered {self.rows_read} (truncated feed?)",
                    path=str(self._path),
                )
        finally:
            if self._owns_handle:
                self._handle.close()

    def _iter_csv(self) -> Iterator[tuple[str, int, int, int, int]]:
        reader = csv.reader(self._handle)
        try:
            preamble = next(reader)
        except StopIteration:
            raise ProfileError("empty profile feed", path=str(self._path)) from None
        self.workload, self.declared_rows = parse_preamble(preamble, self._path)
        try:
            header = next(reader)
        except StopIteration:
            raise ProfileError(
                "missing header row", path=str(self._path), row=2
            ) from None
        metric_columns = parse_header(header, self._path)
        for row in reader:
            try:
                name, inv, count, cta, ctas, _ = parse_data_row(
                    row, len(metric_columns)
                )
            except ValueError as exc:
                raise ProfileError(
                    str(exc), path=str(self._path), row=reader.line_num
                ) from None
            yield name, inv, count, cta, ctas

    def _iter_jsonl(self) -> Iterator[tuple[str, int, int, int, int]]:
        for line_num, line in enumerate(self._handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise ProfileError(
                    f"unparseable JSON: {exc}", path=str(self._path), row=line_num
                ) from None
            if not isinstance(record, dict):
                raise ProfileError(
                    f"expected a JSON object, got {type(record).__name__}",
                    path=str(self._path),
                    row=line_num,
                )
            if "kernel_name" not in record:
                # Leading header object: workload / declared row count.
                if line_num == 1 and ("workload" in record or "rows" in record):
                    self.workload = str(record.get("workload", self.workload))
                    if "rows" in record:
                        try:
                            self.declared_rows = int(record["rows"])
                        except (TypeError, ValueError, OverflowError):
                            raise ProfileError(
                                f"unparseable row count {record['rows']!r}",
                                path=str(self._path),
                                row=line_num,
                            ) from None
                    continue
                raise ProfileError(
                    "row object missing 'kernel_name'",
                    path=str(self._path),
                    row=line_num,
                )
            try:
                fields = (
                    int(record["invocation_id"]),
                    int(record["insn_count"]),
                    int(record["cta_size"]),
                    int(record["num_ctas"]),
                )
                check_int_fields(*fields)
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ProfileError(
                    f"bad row object: {exc!r}", path=str(self._path), row=line_num
                ) from None
            yield (str(record["kernel_name"]), *fields)


class _ChainedText(io.TextIOBase):
    """Re-prefix a consumed first line onto a non-seekable text stream."""

    def __init__(self, head: str, rest: TextIO):
        self._head = head
        self._rest = rest

    def readline(self, size: int = -1) -> str:  # pragma: no cover - trivial
        if self._head:
            line, self._head = self._head, ""
            return line
        return self._rest.readline(size)

    def read(self, size: int = -1) -> str:
        if size is None or size < 0:
            data, self._head = self._head, ""
            return data + self._rest.read()
        if self._head:
            data, self._head = self._head[:size], self._head[size:]
            return data
        return self._rest.read(size)

    def __iter__(self):
        while True:
            line = self.readline()
            if not line:
                return
            yield line
