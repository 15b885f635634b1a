"""Tests for the Table I workload catalog."""

import dataclasses
import json
import os

import pytest

from repro.workloads import adversarial
from repro.workloads.catalog import (
    CHALLENGING_SUITES,
    SIMPLE_SUITES,
    all_specs,
    spec_for,
    specs_for_suites,
    workload_names,
)

#: Table I ground truth: (suite, workload, kernels, invocations).
TABLE1 = [
    ("parboil", "bfs_ny", 2, 11),
    ("parboil", "histo", 4, 252),
    ("parboil", "lbm", 1, 3000),
    ("parboil", "mri-g", 9, 51),
    ("parboil", "stencil", 1, 100),
    ("rodinia", "cfd", 4, 14003),
    ("rodinia", "dwt2d", 4, 10),
    ("rodinia", "gaussian", 2, 16382),
    ("rodinia", "heartwall", 1, 20),
    ("rodinia", "hotspot3d", 1, 100),
    ("rodinia", "huffman", 6, 46),
    ("rodinia", "lud", 3, 22),
    ("rodinia", "nw", 2, 255),
    ("rodinia", "srad", 6, 502),
    ("sdk", "blackscholes", 1, 512),
    ("sdk", "cholesky", 25, 143),
    ("sdk", "gradient", 7, 84),
    ("sdk", "dct8x8", 8, 118),
    ("sdk", "histogram", 4, 68),
    ("sdk", "hsopticalflow", 6, 7576),
    ("sdk", "mergesort", 4, 49),
    ("sdk", "nvjpeg", 2, 32),
    ("sdk", "random", 2, 42),
    ("sdk", "sortingnet", 4, 290),
    ("cactus", "gru", 8, 43_837),
    ("cactus", "gst", 15, 175),
    ("cactus", "gms", 14, 92_520),
    ("cactus", "lmc", 58, 248_548),
    ("cactus", "lmr", 62, 74_765),
    ("cactus", "dcg", 59, 414_585),
    ("cactus", "lgt", 74, 532_707),
    ("cactus", "nst", 50, 1_072_246),
    ("cactus", "rfl", 57, 206_407),
    ("cactus", "spt", 43, 112_668),
    ("mlperf", "3d-unet", 20, 113_183),
    ("mlperf", "bert", 11, 141_964),
    ("mlperf", "resnet50", 20, 78_825),
    ("mlperf", "rnnt", 39, 205_440),
    ("mlperf", "ssd-mobilenet", 33, 64_138),
    ("mlperf", "ssd-resnet34", 26, 57_267),
]


def test_catalog_has_all_40_workloads():
    assert len(all_specs()) == 40


@pytest.mark.parametrize("suite,name,kernels,invocations", TABLE1)
def test_table1_counts_exact(suite, name, kernels, invocations):
    spec = spec_for(f"{suite}/{name}")
    assert spec.num_kernels == kernels
    assert spec.num_invocations == invocations


def test_suite_partition():
    simple = specs_for_suites(SIMPLE_SUITES)
    challenging = specs_for_suites(CHALLENGING_SUITES)
    assert len(simple) == 24
    assert len(challenging) == 16
    assert {s.label for s in simple}.isdisjoint({s.label for s in challenging})


def test_lookup_by_bare_name():
    assert spec_for("lmc").label == "cactus/lmc"


def test_lookup_unknown_raises():
    with pytest.raises(KeyError):
        spec_for("nonexistent")


def test_workload_names_filtering():
    assert "bert" in workload_names(["mlperf"])
    assert "bert" not in workload_names(["cactus"])
    assert len(workload_names()) == 40


def test_mlperf_profiles_are_costlier():
    """The paper attributes MLPerf's profiling gap to instruction-type
    richness; the catalog must encode that."""
    for spec in specs_for_suites(("mlperf",)):
        assert spec.profiling_complexity > 2.0
    for spec in specs_for_suites(("parboil",)):
        assert spec.profiling_complexity == 1.0


def test_gst_has_dominant_variable_kernel():
    spec = spec_for("cactus/gst")
    assert spec.dominant_kernel_share >= 0.5


def test_lmc_lmr_favor_turing():
    for name in ("cactus/lmc", "cactus/lmr"):
        spec = spec_for(name)
        assert spec.turing_factor < 1.0
        assert spec.turing_biased_fraction > 0.5


def _promoted(name: str) -> adversarial.AdversarialEntry:
    entry = adversarial._STATIC_ENTRIES[0]
    return dataclasses.replace(entry, spec=dataclasses.replace(entry.spec, name=name))


def test_lookups_parse_the_promoted_catalog_only_when_it_changes(tmp_path, monkeypatch):
    catalog = tmp_path / "promoted.json"
    monkeypatch.setenv(adversarial.PROMOTED_ENV, str(catalog))
    first = _promoted("memo-first")
    adversarial.save_promoted_entries([first])
    loads = []
    load = adversarial.load_promoted_entries
    monkeypatch.setattr(
        adversarial, "load_promoted_entries", lambda path=None: loads.append(path) or load(path)
    )
    for _ in range(1000):
        assert spec_for("adversarial/memo-first") == first.spec
    assert len(loads) <= 1

    # A promotion written by this process...
    second = _promoted("memo-second")
    adversarial.save_promoted_entries([first, second])
    assert spec_for("adversarial/memo-second") == second.spec
    # ...and one another writer puts in the file's place.
    third = _promoted("memo-third")
    staged = tmp_path / "staged.json"
    staged.write_text(json.dumps(
        {"schema": adversarial.PROMOTED_SCHEMA, "entries": [third.to_dict()]}
    ))
    os.replace(staged, catalog)
    assert spec_for("memo-third") == third.spec
    with pytest.raises(KeyError):
        spec_for("adversarial/memo-first")
