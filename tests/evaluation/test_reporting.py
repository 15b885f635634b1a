"""Tests for text-table reporting."""

from repro.evaluation.reporting import FIGURE_TABLES, format_table, percent, times


def test_format_table_alignment():
    text = format_table(["name", "value"], [("a", 1), ("longer", 22)])
    lines = text.splitlines()
    assert lines[0].startswith("name")
    assert set(lines[1]) <= {"-", " "}
    assert len(lines) == 4
    # Columns align: 'value' entries start at the same offset.
    assert lines[2].index("1") == lines[3].index("2")


def test_float_formatting():
    text = format_table(["x"], [(0.123456,), (123456.0,), (0.000123,)])
    assert "0.12" in text
    assert "1.23e+05" in text


def test_percent_and_times():
    assert percent(0.1234) == "12.34%"
    assert times(1272.4) == "1,272x"


def test_figure_tables_rename_format_and_expand_columns():
    fig9 = FIGURE_TABLES["fig9"].render([{
        "workload": "cactus/lmc", "hardware": 0.9, "sieve": 0.91, "pks": 1.2,
        "sieve_error": 0.011, "pks_error": 0.33,
    }]).splitlines()
    assert fig9[0].split() == ["workload", "hardware", "sieve", "pks", "sieve_err", "pks_err"]
    assert fig9[2].split() == ["cactus/lmc", "0.900", "0.910", "1.200", "1.10%", "33.00%"]
    # Figure 2's columns are whatever tier keys its rows carry, in order.
    fig2 = FIGURE_TABLES["fig2"].render(
        [{"workload": "cactus/gru", "tier1@0.1": 0.5, "tier2@0.1": 0.25}]
    ).splitlines()
    assert fig2[0].split() == ["workload", "tier1@0.1", "tier2@0.1"]
    assert fig2[2].split() == ["cactus/gru", "50.00%", "25.00%"]
