"""The per-invocation profile table both samplers consume.

Section III-A: "the profile essentially is a big table with as many rows as
there are kernel invocations". Rows are stored in chronological order, the
order a real profiler emits them. A Sieve profile carries only instruction
counts and launch shapes; a PKS profile additionally carries the full
12-column Table II metric matrix.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.gpu.kernel import PKS_METRIC_NAMES
from repro.utils.validation import require


@dataclass
class ProfileTable:
    """Chronologically ordered per-invocation profile of one workload.

    ``kernel_names[kernel_id[i]]`` is row ``i``'s kernel;
    ``invocation_id[i]`` is the row's per-kernel invocation index (the
    paper's "kernel invocation ID"). ``metrics`` is either ``None`` (Sieve
    profile) or the ``(rows, 12)`` Table II matrix (PKS profile).
    """

    workload: str
    kernel_names: tuple[str, ...]
    kernel_id: np.ndarray  # int32, per row
    invocation_id: np.ndarray  # int64, per-kernel chronological index
    insn_count: np.ndarray  # int64
    cta_size: np.ndarray  # int32
    num_ctas: np.ndarray  # int64
    metrics: np.ndarray | None = None
    metric_names: tuple[str, ...] = field(default=PKS_METRIC_NAMES)

    def __post_init__(self) -> None:
        n = len(self.kernel_id)
        for column in (self.invocation_id, self.insn_count, self.cta_size,
                       self.num_ctas):
            require(len(column) == n, "profile columns must align")
        require(bool(np.all(self.kernel_id >= 0)), "kernel ids must be >= 0")
        require(
            bool(np.all(self.kernel_id < len(self.kernel_names))),
            "kernel id out of range",
        )
        if self.metrics is not None:
            require(self.metrics.shape == (n, len(self.metric_names)),
                    "metric matrix shape mismatch")

    def __len__(self) -> int:
        return len(self.kernel_id)

    @property
    def num_kernels(self) -> int:
        return len(self.kernel_names)

    @property
    def total_instructions(self) -> int:
        return int(self.insn_count.sum())

    def digest(self) -> str:
        """Content digest of every column and name: a cache key for results
        computed from this table.

        It covers every byte, not a prefix, so two tables share a digest
        only if they hold the same rows under the same names. Names go in
        as one ``repr``, which no choice of separator characters inside a
        name can make ambiguous; each column goes in with its dtype and
        shape.
        """
        hasher = hashlib.blake2b(digest_size=20)
        metric_names = self.metric_names if self.metrics is not None else None
        hasher.update(repr((self.workload, self.kernel_names, metric_names)).encode())
        columns = ["kernel_id", "invocation_id", "insn_count", "cta_size", "num_ctas"]
        if self.metrics is not None:
            columns.append("metrics")
        for name in columns:
            column = np.ascontiguousarray(getattr(self, name))
            hasher.update(f"\x1f{name}:{column.dtype.str}:{column.shape}\x1f".encode())
            hasher.update(column)
        return hasher.hexdigest()

    def rows_for_kernel(self, kernel_id: int) -> np.ndarray:
        """Row indices (chronological) of one kernel's invocations."""
        return np.flatnonzero(self.kernel_id == kernel_id)

    def kernel_name_of_row(self, row: int) -> str:
        return self.kernel_names[int(self.kernel_id[row])]

    def without_metrics(self) -> "ProfileTable":
        """A copy stripped to the Sieve-visible columns."""
        return ProfileTable(
            workload=self.workload,
            kernel_names=self.kernel_names,
            kernel_id=self.kernel_id,
            invocation_id=self.invocation_id,
            insn_count=self.insn_count,
            cta_size=self.cta_size,
            num_ctas=self.num_ctas,
            metrics=None,
        )

    def slice_rows(self, start: int, stop: int) -> "ProfileTable":
        """Rows ``[start, stop)`` as a view-backed chunk.

        The chunk shares ``kernel_names`` (and therefore kernel ids) with
        the parent table, so streaming consumers can merge chunks without
        remapping ids. Columns are numpy views, not copies.
        """
        return ProfileTable(
            workload=self.workload,
            kernel_names=self.kernel_names,
            kernel_id=self.kernel_id[start:stop],
            invocation_id=self.invocation_id[start:stop],
            insn_count=self.insn_count[start:stop],
            cta_size=self.cta_size[start:stop],
            num_ctas=self.num_ctas[start:stop],
            metrics=None if self.metrics is None else self.metrics[start:stop],
        )


def concat_profile_tables(chunks: "list[ProfileTable]") -> ProfileTable:
    """Concatenate chunks back into one chronologically ordered table.

    Kernel names are unioned in first-seen order and each chunk's kernel
    ids are remapped onto the union, so chunks produced by independent
    readers (whose name tables grow as kernels appear) concatenate as
    cleanly as slices of one parent table. All chunks must agree on the
    workload name and on whether they carry the metric matrix.
    """
    require(len(chunks) >= 1, "need at least one chunk to concatenate")
    workload = chunks[0].workload
    with_metrics = chunks[0].metrics is not None
    names: list[str] = []
    index: dict[str, int] = {}
    remapped: list[np.ndarray] = []
    for chunk in chunks:
        require(chunk.workload == workload, "chunks disagree on workload")
        require(
            (chunk.metrics is not None) == with_metrics,
            "chunks disagree on metric columns",
        )
        mapping = np.empty(len(chunk.kernel_names), dtype=np.int32)
        for i, name in enumerate(chunk.kernel_names):
            if name not in index:
                index[name] = len(names)
                names.append(name)
            mapping[i] = index[name]
        remapped.append(mapping[chunk.kernel_id])
    return ProfileTable(
        workload=workload,
        kernel_names=tuple(names),
        kernel_id=np.concatenate(remapped).astype(np.int32),
        invocation_id=np.concatenate([c.invocation_id for c in chunks]),
        insn_count=np.concatenate([c.insn_count for c in chunks]),
        cta_size=np.concatenate([c.cta_size for c in chunks]),
        num_ctas=np.concatenate([c.num_ctas for c in chunks]),
        metrics=(
            np.concatenate([c.metrics for c in chunks]) if with_metrics else None
        ),
    )
