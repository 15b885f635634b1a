"""Property tests: the execution record equals the per-kernel original.

One :class:`~repro.gpu.hardware.ExecutionRecord` per (run, architecture)
times every invocation of a run in a single ``invocation_timing`` call,
in row blocks, with per-row trait columns. The golden measurement and
both profilers read it. Accuracy, PKS's clusters and the fig3/4/6
goldens all follow from these numbers, so the record must reproduce
:mod:`repro.core.reference`'s per-kernel code bit for bit: cycles and
DRAM bytes compared as int64 bit patterns, and the measurement, both
profile tables and both profiling costs compared by pickle digest.
"""

from __future__ import annotations

import hashlib
import pickle
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reference import (
    ReferenceHardwareExecutor,
    reference_invocation_timing,
    reference_memory_traffic,
    reference_nsight_profile,
    reference_nvbit_profile,
)
from repro.evaluation.context import build_context
from repro.gpu import hardware, timing
from repro.gpu.arch import AMPERE_RTX3080, TURING_RTX2080TI
from repro.gpu.hardware import HardwareExecutor, execution_record
from repro.gpu.kernel import InvocationBatch, KernelTraits
from repro.profiling.nsight import NsightComputeProfiler
from repro.profiling.nvbit import NVBitProfiler
from repro.workloads.generator import GeneratedKernel, WorkloadRun, generate
from repro.workloads.spec import Tier, WorkloadSpec
from tests.conftest import make_spec

ARCHS = (AMPERE_RTX3080, TURING_RTX2080TI)
CTA_SIZES = (32, 64, 96, 128, 256, 384, 512, 1024)


def digest(obj) -> str:
    return hashlib.sha256(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)).hexdigest()


def outcome(fn, *args):
    """``("ok", pickle digest)`` or ``("error", message)`` of ``fn(*args)``."""
    try:
        return "ok", digest(fn(*args))
    except ValueError as exc:
        return "error", str(exc)


@st.composite
def kernel_traits(draw, index):
    fp = draw(st.floats(min_value=0.0, max_value=0.9))
    efficiency = draw(
        st.sampled_from(({}, {"turing": 0.8}, {"ampere": 1.15, "turing": 0.93}))
    )
    return KernelTraits(
        name=f"k{index}",
        regs_per_thread=draw(st.integers(min_value=32, max_value=64)),
        smem_per_cta=draw(st.sampled_from((0, 8 * 1024, 16 * 1024, 30 * 1024, 48 * 1024))),
        ilp=draw(st.floats(min_value=0.5, max_value=6.0)),
        l1_hit_rate=draw(st.floats(min_value=0.0, max_value=1.0)),
        l2_hit_rate=draw(st.floats(min_value=0.0, max_value=1.0)),
        fp_ratio=fp,
        sfu_ratio=draw(st.floats(min_value=0.0, max_value=1.0 - fp)),
        personality=draw(st.floats(min_value=0.2, max_value=4.0)),
        measurement_noise_cov=draw(st.sampled_from((0.0, 0.0, 0.01, 0.2))),
        arch_efficiency=efficiency,
    )


def random_batch(rng, n, cta_choices, chrono):
    insn = rng.integers(1, 10**10, size=n)
    loads = (insn * rng.uniform(0.0, 0.3, size=n)).astype(np.int64)

    def share(total, low, high):
        return (total * rng.uniform(low, high, size=n)).astype(np.int64)

    return InvocationBatch(
        insn_count=insn,
        cta_size=rng.choice(cta_choices, size=n).astype(np.int32),
        num_ctas=rng.integers(1, 200_000, size=n),
        coalesced_global_loads=share(loads, 0.0, 0.2),
        coalesced_global_stores=share(loads, 0.0, 0.1),
        coalesced_local_loads=share(loads, 0.0, 0.05),
        thread_global_loads=loads,
        thread_global_stores=share(loads, 0.0, 0.5),
        thread_local_loads=share(loads, 0.0, 0.1),
        thread_shared_loads=share(loads, 0.0, 0.8),
        thread_shared_stores=share(loads, 0.0, 0.4),
        thread_global_atomics=share(loads, 0.0, 0.01),
        divergence_efficiency=rng.uniform(0.3, 1.0, size=n),
        chrono_index=chrono,
    )


@st.composite
def runs(draw):
    """A multi-kernel run: one-invocation kernels, mixed CTA sizes."""
    num_kernels = draw(st.integers(min_value=1, max_value=8))
    sizes = [draw(st.integers(min_value=1, max_value=60)) for _ in range(num_kernels)]
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    chrono = rng.permutation(sum(sizes))
    kernels = []
    start = 0
    for index, n in enumerate(sizes):
        traits = draw(kernel_traits(index))
        choices = draw(
            st.lists(st.sampled_from(CTA_SIZES), min_size=1, max_size=3, unique=True)
        )
        batch = random_batch(rng, n, choices, np.sort(chrono[start : start + n]))
        start += n
        kernels.append(GeneratedKernel(traits, batch, Tier.TIER3, choices[0]))
    return WorkloadRun.from_kernels(
        name=f"rec{num_kernels}",
        suite="prop",
        spec=make_spec(name=f"rec{num_kernels}", profiling_complexity=1.4),
        kernels=kernels,
    )


def bits(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.float64).view(np.int64)


def assert_matches_reference(run, arch):
    record = execution_record(arch, run)
    timings = [reference_invocation_timing(arch, k.traits, k.batch) for k in run.kernels]
    traffic = [reference_memory_traffic(arch, k.traits, k.batch) for k in run.kernels]
    assert np.array_equal(
        bits(record.cycles), bits(np.concatenate([t.total_cycles for t in timings]))
    )
    assert np.array_equal(
        bits(record.dram_bytes), bits(np.concatenate([t.dram_bytes for t in traffic]))
    )
    assert digest(HardwareExecutor(arch).measure(run)) == digest(
        ReferenceHardwareExecutor(arch).measure(run)
    )
    assert digest(NVBitProfiler(arch).profile(run)) == digest(
        reference_nvbit_profile(run, arch)
    )
    assert digest(NsightComputeProfiler(arch).profile(run)) == digest(
        reference_nsight_profile(run, arch)
    )


@settings(max_examples=60, deadline=None)
@given(run=runs(), block_rows=st.sampled_from((1, 7, 64, timing.BLOCK_ROWS)))
def test_record_matches_per_kernel_reference(run, block_rows):
    with mock.patch.object(timing, "BLOCK_ROWS", block_rows):
        for arch in ARCHS:
            assert_matches_reference(run, arch)


@settings(max_examples=30, deadline=None)
@given(
    run=runs(),
    culprits=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=7),
            st.sampled_from(("shared_memory", "registers")),
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_unlaunchable_kernel_raises_the_reference_error(run, culprits):
    kernels = list(run.kernels)
    for index, limit in culprits:
        kernel = kernels[index % len(kernels)]
        if limit == "shared_memory":  # fits Ampere's 100 KiB, not Turing's 64 KiB
            traits = KernelTraits(name=kernel.traits.name, smem_per_cta=80 * 1024)
        else:  # a 1024-thread CTA needs 73,728 registers of 65,536
            traits = KernelTraits(name=kernel.traits.name, regs_per_thread=72)
            kernel.batch.cta_size[-1] = 1024
        kernels[index % len(kernels)] = GeneratedKernel(
            traits, kernel.batch, kernel.intended_tier, kernel.dominant_cta_size
        )
    run = WorkloadRun.from_kernels(run.name, run.suite, run.spec, kernels)
    for arch in ARCHS:
        expected = outcome(ReferenceHardwareExecutor(arch).measure, run)
        assert outcome(HardwareExecutor(arch).measure, run) == expected
        assert outcome(NVBitProfiler(arch).profile, run) == outcome(
            reference_nvbit_profile, run, arch
        )
        assert outcome(NsightComputeProfiler(arch).profile, run) == outcome(
            reference_nsight_profile, run, arch
        )
    assert expected[0] == "error" and "cannot launch on rtx2080ti" in expected[1]


def test_record_is_memoized_read_only_and_outside_equality(toy_run):
    record = execution_record(AMPERE_RTX3080, toy_run)
    assert execution_record(AMPERE_RTX3080, toy_run) is record
    assert execution_record(TURING_RTX2080TI, toy_run) is not record
    for values in (record.starts, record.order, record.cycles, record.dram_bytes):
        assert not values.flags.writeable
    fresh = WorkloadRun.from_kernels(toy_run.name, toy_run.suite, toy_run.spec, toy_run.kernels)
    assert fresh == toy_run and "_records" not in repr(toy_run)


def test_threads_racing_on_one_run_share_equal_records(toy_spec):
    run = generate(toy_spec, max_invocations=900)
    results: list = []

    def work():
        for arch in ARCHS * 3:
            results.append((arch, execution_record(arch, run)))

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 8 * 3 * len(ARCHS)
    assert set(run._records) == set(ARCHS)
    for arch, record in results:
        kept = run._records[arch]
        assert np.array_equal(bits(record.cycles), bits(kept.cycles))
        assert np.array_equal(bits(record.dram_bytes), bits(kept.dram_bytes))


@pytest.mark.parametrize(
    "label, cap, spec",
    [
        ("cactus/lmc", 2311, None),
        ("mlperf/bert", 3307, None),
        (
            "synthetic/record-256",
            None,
            WorkloadSpec(
                name="record-256",
                suite="synthetic",
                num_kernels=256,
                num_invocations=20_000,
                tier_fractions=(0.5, 0.5, 0.0),
            ),
        ),
    ],
)
def test_context_build_times_each_invocation_once(label, cap, spec):
    with mock.patch.object(
        hardware, "invocation_timing", wraps=timing.invocation_timing
    ) as timed:
        context = build_context(label, max_invocations=cap, spec=spec)
        assert timed.call_count == 1
        turing = context.measure_on(TURING_RTX2080TI)
        context.measure_on(TURING_RTX2080TI)
        assert timed.call_count == 2
    run = context.run
    sieve = reference_nvbit_profile(run, AMPERE_RTX3080)
    pks = reference_nsight_profile(run, AMPERE_RTX3080)
    assert digest(context.golden) == digest(
        ReferenceHardwareExecutor(AMPERE_RTX3080).measure(run)
    )
    assert digest((context.sieve_table, context.sieve_profiling)) == digest(sieve)
    assert digest((context.pks_table, context.pks_profiling)) == digest(pks)
    assert digest(turing) == digest(ReferenceHardwareExecutor(TURING_RTX2080TI).measure(run))
