"""Tests for KernelTraits and InvocationBatch."""

import numpy as np
import pytest

from repro.gpu.kernel import PKS_METRIC_NAMES, InvocationBatch, KernelTraits


def make_batch(n=4, **overrides):
    columns = dict(
        insn_count=np.full(n, 1_000_000, dtype=np.int64),
        cta_size=np.full(n, 256, dtype=np.int32),
        num_ctas=np.full(n, 100, dtype=np.int64),
        coalesced_global_loads=np.full(n, 1000, dtype=np.int64),
        coalesced_global_stores=np.full(n, 500, dtype=np.int64),
        coalesced_local_loads=np.zeros(n, dtype=np.int64),
        thread_global_loads=np.full(n, 32_000, dtype=np.int64),
        thread_global_stores=np.full(n, 16_000, dtype=np.int64),
        thread_local_loads=np.zeros(n, dtype=np.int64),
        thread_shared_loads=np.full(n, 8_000, dtype=np.int64),
        thread_shared_stores=np.full(n, 4_000, dtype=np.int64),
        thread_global_atomics=np.zeros(n, dtype=np.int64),
        divergence_efficiency=np.full(n, 0.9),
        chrono_index=np.arange(n, dtype=np.int64),
    )
    columns.update(overrides)
    return InvocationBatch(**columns)


class TestKernelTraits:
    def test_int_ratio_complements_fp_and_sfu(self):
        traits = KernelTraits(name="k", fp_ratio=0.6, sfu_ratio=0.1)
        assert traits.int_ratio == pytest.approx(0.3)

    def test_arch_efficiency_defaults_to_one(self):
        traits = KernelTraits(name="k", arch_efficiency={"turing": 0.8})
        assert traits.efficiency_on("turing") == 0.8
        assert traits.efficiency_on("ampere") == 1.0

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            KernelTraits(name="")

    def test_rejects_mix_exceeding_one(self):
        with pytest.raises(ValueError):
            KernelTraits(name="k", fp_ratio=0.9, sfu_ratio=0.2)

    def test_rejects_hit_rate_out_of_range(self):
        with pytest.raises(ValueError):
            KernelTraits(name="k", l1_hit_rate=1.5)


class TestInvocationBatch:
    def test_length(self):
        assert len(make_batch(7)) == 7

    def test_warps_per_cta_rounds_up(self):
        batch = make_batch(cta_size=np.array([1, 32, 33, 256], dtype=np.int32))
        assert batch.warps_per_cta.tolist() == [1, 1, 2, 8]

    def test_total_threads(self):
        batch = make_batch(2, cta_size=np.array([128, 128], dtype=np.int32),
                           num_ctas=np.array([4, 8], dtype=np.int64))
        assert batch.total_threads.tolist() == [512, 1024]

    def test_pks_metric_matrix_column_order(self):
        batch = make_batch(3)
        matrix = batch.pks_metric_matrix()
        assert matrix.shape == (3, 12)
        insn_column = PKS_METRIC_NAMES.index("instruction_count")
        assert np.all(matrix[:, insn_column] == 1_000_000)
        blocks_column = PKS_METRIC_NAMES.index("num_thread_blocks")
        assert np.all(matrix[:, blocks_column] == 100)

    def test_rejects_misaligned_columns(self):
        with pytest.raises(ValueError):
            make_batch(4, cta_size=np.full(3, 256, dtype=np.int32))

    def test_rejects_nonpositive_instruction_counts(self):
        with pytest.raises(ValueError):
            make_batch(2, insn_count=np.array([100, 0], dtype=np.int64))

    def test_rejects_divergence_out_of_range(self):
        with pytest.raises(ValueError):
            make_batch(2, divergence_efficiency=np.array([0.9, 1.2]))

    def test_batches_compare_by_dtype_and_value(self):
        batch = make_batch(4)
        assert batch == make_batch(4) and batch != make_batch(5)
        assert batch != make_batch(4, cta_size=np.full(4, 256, dtype=np.int64))
        assert batch != make_batch(4, divergence_efficiency=np.array([0.9, 0.9, 0.9, 0.8]))

    def test_rows_are_views(self):
        batch = make_batch(6)
        rows = batch.rows(slice(2, 5))
        assert len(rows) == 3 and rows.chrono_index.tolist() == [2, 3, 4]
        rows.thread_shared_loads[0] = 1
        assert batch.thread_shared_loads[2] == 1
