"""CLI `sample --stream`: catalog streaming, feeds, stdin, error codes."""

from __future__ import annotations

import io

import pytest

from repro.cli import main
from repro.evaluation.context import build_context
from repro.profiling.csv_io import write_profile_csv


@pytest.fixture(scope="module")
def feed_path(tmp_path_factory):
    table = build_context("cactus/gru", max_invocations=600).sieve_table
    path = tmp_path_factory.mktemp("feed") / "gru.csv"
    write_profile_csv(table, path)
    return path


def test_catalog_sample_stream_matches_batch_output(capsys):
    assert main(["--cap", "800", "sample", "cactus/gru",
                 "--method", "sieve"]) == 0
    batch_out = capsys.readouterr().out
    assert main(["--cap", "800", "sample", "cactus/gru",
                 "--method", "sieve", "--stream", "--chunk-rows", "200"]) == 0
    stream_out = capsys.readouterr().out
    [batch_line] = [l for l in batch_out.splitlines() if l.startswith("sieve")]
    [stream_line] = [l for l in stream_out.splitlines() if l.startswith("sieve")]
    assert stream_line == batch_line
    assert any("stream high-water:" in l for l in stream_out.splitlines())


def test_feed_sample_streams_a_csv_file(capsys, feed_path):
    assert main(["sample", "--stream", "--from", str(feed_path),
                 "--chunk-rows", "150"]) == 0
    out = capsys.readouterr().out
    assert "incremental stream" in out
    assert "streamed rows" in out
    assert "sieve" in out


def test_feed_sample_verbose_prints_events_and_picks(capsys, feed_path):
    assert main(["sample", "--stream", "--verbose",
                 "--from", str(feed_path), "--chunk-rows", "97"]) == 0
    out = capsys.readouterr().out
    assert "emit" in out
    assert "  pick " in out


def test_feed_sample_reads_stdin(capsys, monkeypatch, feed_path):
    monkeypatch.setattr(
        "sys.stdin", io.StringIO(feed_path.read_text())
    )
    assert main(["sample", "--stream", "--from", "-",
                 "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert "streamed rows" in out


def test_feed_without_stream_is_an_error(capsys, feed_path):
    assert main(["sample", "--from", str(feed_path)]) == 2
    assert "--from requires --stream" in capsys.readouterr().err


def test_feed_with_multiple_methods_is_an_error(capsys, feed_path):
    assert main(["sample", "--stream", "--from", str(feed_path),
                 "--method", "sieve,periodic"]) == 2
    assert "exactly one method" in capsys.readouterr().err


def test_sample_without_workload_or_feed_is_an_error(capsys):
    assert main(["sample"]) == 2
    assert "workload label" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["sieve", "periodic", "pks", "random"])
def test_a_negative_reservoir_is_a_one_line_error(capsys, method):
    assert main(["--cap", "600", "sample", "cactus/gru", "--stream",
                 "--method", method, "--reservoir", "-5"]) == 2
    err = capsys.readouterr().err
    assert err.strip().splitlines() == [
        "error: reservoir_rows must be at least 1, got -5"
    ]
