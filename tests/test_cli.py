"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.robustness.diagnostics import capture_diagnostics


def test_parser_knows_all_experiments():
    parser = build_parser()
    for command in ["table1", "table2", "fig2", "fig3", "fig5", "fig7",
                    "fig8", "fig9", "fig10", "sample"]:
        args = parser.parse_args(
            [command] if command != "sample" else [command, "cactus/gru"]
        )
        assert callable(args.handler)


def test_sample_command_runs(capsys):
    assert main(["--cap", "800", "sample", "cactus/gru"]) == 0
    out = capsys.readouterr().out
    assert "sieve" in out
    assert "pks-first" in out
    assert "800" in out


@pytest.mark.parametrize("command", [["sample", "cactus/lmc"], ["table1"]])
def test_cap_below_the_kernel_count_is_a_one_line_error(capsys, command):
    assert main(["--no-cache", "--cap", "10", *command]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: cap below one per kernel")
    assert "cap=10" in err[0]


def cli_warnings(caught) -> list[str]:
    return [record.message for record in caught if record.source == "cli"]


def test_trace_export_applies_faults_without_a_warning(tmp_path, capsys):
    argv = ["--inject-faults", "nan:0.2,zero_cycles:0.2", "--cap", "1200",
            "trace", "export", "cactus/lmc", "--methods", "sieve",
            "--format", "jsonl", "--out", str(tmp_path / "trace.jsonl")]
    with capture_diagnostics() as caught:
        assert main(argv) == 0
    assert cli_warnings(caught) == []
    # The faults reached the pipeline: its degraded paths reported them.
    assert any(record.source == "sieve.predict" for record in caught)


def test_each_shared_flag_a_command_never_read_draws_one_warning(capsys):
    with capture_diagnostics() as caught:
        assert main(["--jobs", "2", "--no-cache", "--cap", "600", "fig2"]) == 0
    assert cli_warnings(caught) == [
        "--jobs was ignored by 'fig2'",
        "--no-cache was ignored by 'fig2'",
    ]


def test_fig3_prints_what_compare_prints(capsys):
    assert main(["--cap", "800", "--no-cache", "fig3"]) == 0
    fig3 = capsys.readouterr().out
    assert main(["--cap", "800", "--no-cache", "compare"]) == 0
    assert capsys.readouterr().out == fig3


def test_fig10_prints_the_same_table_at_two_jobs(capsys):
    assert main(["--jobs", "1", "--no-cache", "--cap", "600", "fig10"]) == 0
    serial = capsys.readouterr().out
    with capture_diagnostics() as caught:
        assert main(["--jobs", "2", "--no-cache", "--cap", "600", "fig10"]) == 0
    assert capsys.readouterr().out == serial
    assert cli_warnings(caught) == []


def test_pks_on_a_fully_duplicated_profile_exits():
    # duplicate:1.0 leaves clusters of identical rows, whose bisection
    # used to repeat one split forever; a subprocess bounds the wait.
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    argv = ["--no-cache", "--cap", "16", "--inject-faults", "duplicate:1.0",
            "sample", "cactus/gst", "--method", "pks"]
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "pks-first" in proc.stdout


def test_table2_command_runs(capsys):
    assert main(["table2"]) == 0
    out = capsys.readouterr().out
    assert "instruction_count" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["not-a-command"])


def test_methods_list_shows_every_registered_method(capsys):
    assert main(["methods", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("sieve", "pks", "pks-two-level", "periodic", "random"):
        assert name in out
    assert "SieveConfig" in out


def test_sample_with_method_selection(capsys):
    assert main(["--cap", "800", "sample", "cactus/gru", "--method", "random"]) == 0
    out = capsys.readouterr().out
    assert "random" in out
    assert "pks" not in out


def test_compare_with_custom_methods(capsys):
    assert main(
        ["--cap", "800", "--no-cache", "compare", "cactus/gru",
         "--methods", "sieve,periodic"]
    ) == 0
    out = capsys.readouterr().out
    assert "periodic_err" in out
    assert "sieve_err" in out
    # Metric-major columns and per-method aggregates, as fig3 prints them.
    header = out.splitlines()[0].split()
    assert header == [
        "workload", "sieve_err", "periodic_err", "sieve_cov", "periodic_cov",
        "sieve_speedup", "periodic_speedup",
    ]
    assert "periodic_avg:" in out and "sieve_max:" in out


def test_compare_unknown_method_fails_cleanly(capsys):
    assert main(
        ["--cap", "800", "compare", "cactus/gru", "--methods", "bogus"]
    ) == 2
    err = capsys.readouterr().err
    assert "unknown sampling method 'bogus'" in err


def test_parser_knows_service_commands():
    parser = build_parser()
    serve = parser.parse_args(["serve", "--port", "0"])
    assert callable(serve.handler) and serve.port == 0
    loadgen = parser.parse_args(
        ["loadgen", "--spawn", "--pattern", "static:10", "--requests", "4"]
    )
    assert callable(loadgen.handler) and loadgen.spawn


def test_loadgen_dry_run_records_deterministic_trace(capsys, tmp_path):
    trace_a = tmp_path / "a.jsonl"
    trace_b = tmp_path / "b.jsonl"
    argv = [
        "--cap", "200", "loadgen", "--dry-run", "--pattern", "poisson:50",
        "--requests", "10", "--seed", "9",
        "--workloads", "rodinia/nw,rodinia/lud", "--methods", "periodic",
    ]
    assert main(argv + ["--record", str(trace_a)]) == 0
    assert main(argv + ["--record", str(trace_b)]) == 0
    assert "generated 10 requests" in capsys.readouterr().out
    assert trace_a.read_bytes() == trace_b.read_bytes()


def test_loadgen_requires_port_without_spawn(capsys):
    assert main(["loadgen", "--requests", "2"]) == 2
    assert "--port is required" in capsys.readouterr().err


def test_loadgen_spawn_round_trip(capsys):
    assert main(
        ["--cap", "150", "loadgen", "--spawn", "--pattern", "static:100",
         "--requests", "6", "--clients", "3",
         "--workloads", "rodinia/nw", "--methods", "periodic,random"]
    ) == 0
    out = capsys.readouterr().out
    assert "http_5xx: 0" in out
    assert "requests: 6" in out
