"""Tests for representative invocation selection."""

import numpy as np
import pytest

from repro.core.config import SieveConfig
from repro.core.selection import select_representative_rows
from repro.core.stratify import stratify_table
from repro.profiling.nvbit import NVBitProfiler
from repro.workloads.spec import Tier


def select_representative_row(table, stratum, policy):
    """One stratum's pick, through the grouped pass over every stratum."""
    return int(select_representative_rows(table, [stratum], policy)[0])


@pytest.fixture(scope="module")
def table_and_strata(toy_run):
    table, _ = NVBitProfiler().profile(toy_run)
    return table, stratify_table(table, SieveConfig())


def test_tier1_selects_first_chronological(table_and_strata):
    table, strata = table_and_strata
    for stratum in strata:
        if stratum.tier is Tier.TIER1:
            row = select_representative_row(table, stratum, "dominant_cta")
            assert row == stratum.rows[0]


def test_dominant_cta_policy_picks_modal_size(table_and_strata):
    table, strata = table_and_strata
    for stratum in strata:
        if stratum.tier is Tier.TIER1 or stratum.size < 10:
            continue
        row = select_representative_row(table, stratum, "dominant_cta")
        sizes, counts = np.unique(table.cta_size[stratum.rows], return_counts=True)
        assert table.cta_size[row] == sizes[np.argmax(counts)]
        # First-chronological among matching rows.
        matching = stratum.rows[table.cta_size[stratum.rows] == table.cta_size[row]]
        assert row == matching[0]


def test_max_cta_policy(table_and_strata):
    table, strata = table_and_strata
    for stratum in strata:
        if stratum.tier is Tier.TIER1:
            continue
        row = select_representative_row(table, stratum, "max_cta")
        assert table.cta_size[row] == table.cta_size[stratum.rows].max()


def test_first_policy(table_and_strata):
    table, strata = table_and_strata
    for stratum in strata:
        assert select_representative_row(table, stratum, "first") == stratum.rows[0]


def test_random_policy_is_deterministic(table_and_strata):
    table, strata = table_and_strata
    stratum = max(strata, key=lambda s: s.size)
    a = select_representative_row(table, stratum, "random")
    b = select_representative_row(table, stratum, "random")
    assert a == b
    assert a in stratum.rows


def test_centroid_policy_minimizes_insn_distance(table_and_strata):
    table, strata = table_and_strata
    for stratum in strata:
        if stratum.tier is Tier.TIER1 or stratum.size < 5:
            continue
        row = select_representative_row(table, stratum, "centroid")
        insn = table.insn_count[stratum.rows].astype(float)
        best = np.abs(insn - insn.mean()).min()
        assert abs(table.insn_count[row] - insn.mean()) == pytest.approx(best)


def test_unknown_policy_rejected(table_and_strata):
    table, strata = table_and_strata
    with pytest.raises(ValueError):
        select_representative_row(table, strata[0], "nearest-neighbor")


def test_selected_row_belongs_to_stratum(table_and_strata):
    table, strata = table_and_strata
    for stratum in strata:
        for policy in ("first", "dominant_cta", "max_cta", "random", "centroid"):
            assert select_representative_row(table, stratum, policy) in stratum.rows
