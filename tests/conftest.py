"""Shared fixtures: small, fast workloads reused across the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.evaluation.context import WorkloadContext, build_context
from repro.gpu import AMPERE_RTX3080, HardwareExecutor, WorkloadMeasurement
from repro.workloads.generator import WorkloadRun, generate
from repro.workloads.spec import KernelBehavior, WorkloadSpec

#: ``--hypothesis-profile=fuzz`` runs property tests that leave
#: ``max_examples`` to the profile (the ingest fuzz) far deeper.
settings.register_profile("fuzz", max_examples=2000, deadline=None)


@pytest.fixture(scope="session", autouse=True)
def _isolated_result_cache(tmp_path_factory):
    """Point the engine's default on-disk cache at a per-run temp dir.

    CLI commands enable the result cache by default; tests must neither
    read stale entries from nor write into the user's real cache.
    """
    path = tmp_path_factory.mktemp("sieve-cache")
    previous = os.environ.get("SIEVE_REPRO_CACHE_DIR")
    os.environ["SIEVE_REPRO_CACHE_DIR"] = str(path)
    yield
    if previous is None:
        os.environ.pop("SIEVE_REPRO_CACHE_DIR", None)
    else:
        os.environ["SIEVE_REPRO_CACHE_DIR"] = previous


def make_spec(**overrides) -> WorkloadSpec:
    """A compact challenging-style spec; override any field per test."""
    defaults = dict(
        name="toy",
        suite="testsuite",
        num_kernels=8,
        num_invocations=1200,
        tier_fractions=(0.4, 0.4, 0.2),
        behavior=KernelBehavior(
            tier2_cov=0.3, tier3_modes=4, tier3_spread=20.0, tier3_mode_cov=0.1
        ),
        insn_scale=4.0e8,
        alias_groups=3,
        heterogeneity=0.3,
        drift_fraction=0.2,
        drift_factor=0.3,
        chrono_size_correlation=0.8,
        metric_direction_sigma=0.5,
    )
    defaults.update(overrides)
    return WorkloadSpec(**defaults)


def make_measurement(kernels: dict[str, tuple[list[int], list[int]]]) -> WorkloadMeasurement:
    """``{name: (cycles, insns)}`` -> a WorkloadMeasurement, kernels in order."""
    sizes = np.array([len(cycles) for cycles, _ in kernels.values()], dtype=np.int64)
    return WorkloadMeasurement(
        workload_name="toy",
        architecture="test-arch",
        clock_ghz=1.0,
        kernel_names=tuple(kernels),
        starts=np.cumsum(sizes) - sizes,
        cycles=np.array([c for cycles, _ in kernels.values() for c in cycles], dtype=np.int64),
        insn_count=np.array([i for _, insns in kernels.values() for i in insns], dtype=np.int64),
    )


def kernel_rows(measurement: WorkloadMeasurement, kernel_name: str) -> slice:
    """One kernel's rows of a measurement's whole-run columns."""
    [k] = measurement.kernel_index([kernel_name])
    assert k >= 0, f"{kernel_name!r} is not measured"
    start = int(measurement.starts[k])
    return slice(start, start + int(measurement.counts[k]))


@pytest.fixture(scope="session")
def toy_spec() -> WorkloadSpec:
    return make_spec()


@pytest.fixture(scope="session")
def toy_run(toy_spec) -> WorkloadRun:
    return generate(toy_spec)


@pytest.fixture(scope="session")
def toy_measurement(toy_run):
    return HardwareExecutor(AMPERE_RTX3080).measure(toy_run)


@pytest.fixture(scope="session")
def small_context() -> WorkloadContext:
    """A capped catalog workload exercised through the full context path."""
    return build_context("cactus/gru", max_invocations=1500)
