"""Tests for ProfileTable."""

import numpy as np
import pytest

from repro.profiling.table import ProfileTable


def make_table(with_metrics=True):
    n = 6
    metrics = np.arange(n * 12, dtype=np.float64).reshape(n, 12) if with_metrics else None
    return ProfileTable(
        workload="suite/x",
        kernel_names=("a", "b"),
        kernel_id=np.array([0, 1, 0, 1, 0, 0], dtype=np.int32),
        invocation_id=np.array([0, 0, 1, 1, 2, 3], dtype=np.int64),
        insn_count=np.array([10, 20, 10, 25, 12, 10], dtype=np.int64),
        cta_size=np.full(6, 128, dtype=np.int32),
        num_ctas=np.full(6, 64, dtype=np.int64),
        metrics=metrics,
    )


def test_len_and_num_kernels():
    table = make_table()
    assert len(table) == 6
    assert table.num_kernels == 2


def test_total_instructions():
    assert make_table().total_instructions == 87


def test_rows_for_kernel():
    table = make_table()
    assert table.rows_for_kernel(0).tolist() == [0, 2, 4, 5]
    assert table.rows_for_kernel(1).tolist() == [1, 3]


def test_kernel_name_of_row():
    table = make_table()
    assert table.kernel_name_of_row(0) == "a"
    assert table.kernel_name_of_row(3) == "b"


def test_without_metrics_strips_matrix():
    stripped = make_table().without_metrics()
    assert stripped.metrics is None
    assert stripped.total_instructions == 87


def test_rejects_kernel_id_out_of_range():
    with pytest.raises(ValueError):
        ProfileTable(
            workload="w",
            kernel_names=("a",),
            kernel_id=np.array([0, 1], dtype=np.int32),
            invocation_id=np.zeros(2, dtype=np.int64),
            insn_count=np.ones(2, dtype=np.int64),
            cta_size=np.full(2, 64, dtype=np.int32),
            num_ctas=np.ones(2, dtype=np.int64),
        )


def test_rejects_metric_shape_mismatch():
    with pytest.raises(ValueError):
        ProfileTable(
            workload="w",
            kernel_names=("a",),
            kernel_id=np.zeros(2, dtype=np.int32),
            invocation_id=np.zeros(2, dtype=np.int64),
            insn_count=np.ones(2, dtype=np.int64),
            cta_size=np.full(2, 64, dtype=np.int32),
            num_ctas=np.ones(2, dtype=np.int64),
            metrics=np.zeros((2, 3)),
        )


def replaced(table, **changes):
    fields = {name: getattr(table, name) for name in (
        "workload", "kernel_names", "kernel_id", "invocation_id", "insn_count",
        "cta_size", "num_ctas", "metrics",
    )}
    fields.update(changes)
    return ProfileTable(**fields)


def test_digest_is_content_not_identity():
    assert make_table().digest() == make_table().digest()
    assert make_table().digest() != make_table(with_metrics=False).digest()


@pytest.mark.parametrize("column", ["kernel_id", "invocation_id", "insn_count", "cta_size", "num_ctas"])
def test_digest_covers_every_column(column):
    table = make_table()
    changed = getattr(table, column).copy()
    changed[-1] = 1 - changed[-1] if column == "kernel_id" else changed[-1] + 1
    assert replaced(table, **{column: changed}).digest() != table.digest()
    metrics = table.metrics.copy()
    metrics[-1, -1] += 0.5
    assert replaced(table, metrics=metrics).digest() != table.digest()


def test_digest_covers_names_unambiguously():
    table = make_table(with_metrics=False)
    digests = {
        table.digest(),
        replaced(table, workload="suite/y").digest(),
        replaced(table, kernel_names=("a", "c")).digest(),
        # One name holding the separator of two others must not collide.
        replaced(table, kernel_names=("a\x00b", "b"), kernel_id=np.zeros(6, np.int32)).digest(),
        replaced(table, kernel_names=("a", "b\x00b"), kernel_id=np.zeros(6, np.int32)).digest(),
        # Lone surrogates (legal in decoded JSON) hash rather than raise.
        replaced(table, kernel_names=("a", "\ud800")).digest(),
    }
    assert len(digests) == 6


def test_digest_covers_dtype_and_shape():
    table = make_table(with_metrics=False)
    wide = replaced(table, cta_size=table.cta_size.astype(np.int64))
    assert wide.digest() != table.digest()
