"""The benchmark's own tests: tiny runs of every workload, end to end.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
The tiny sizes run every code path of the full benchmark in seconds.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import inputs, probe, tracing  # noqa: E402
from perfbench.harness import END_TO_END, PER_LAYER  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["compare", "scale", "stream", "serve"])
def test_tiny_workload_end_to_end(workload, trace):
    proc = bench("--workload", workload, "--trace", str(trace), "--sizes", "tiny")
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = PER_LAYER if trace else END_TO_END
    assert list(result["metrics"]) == [name for name, _, _ in wanted]
    assert all(m["unit"] == unit for m, (_, unit, _) in zip(result["metrics"].values(), wanted))
    if trace:
        assert "total (= window)" in proc.stdout and "predicted:" in proc.stdout
        layers = {k: v["value"] for k, v in result["metrics"].items()}
        summed = sum(layers[f"{layer}_s"] for layer in tracing.LAYERS) + layers["unattributed_s"]
        assert summed == pytest.approx(layers["trace.window_s"], rel=1e-9)
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wrong_expected_output_is_a_failed_op(tmp_path):
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    pinned = expected["tiny"]["compare"]["cactus/gru"]
    pinned["pks"]["predicted_cycles"] *= 1.001
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(expected))
    result = result_of(bench("--workload", "compare", "--trace", "0", "--sizes", "tiny",
                             "--expected", str(path)))
    assert not result["correct"]
    per_pass = sum(expected["tiny"]["compare"][k]["invocations"] for k in inputs.TINY.compare_labels)
    passes = result["attempted"] // per_pass
    assert result["failed"] == passes * pinned["invocations"]


def test_wrapper_with_zero_calls_fails_the_traced_run():
    proc = bench("--workload", "stream", "--trace", "1", "--sizes", "tiny",
                 "--require-layer", "baselines.kmeans")
    assert proc.returncode != 0
    assert "BisectingKMeans.fit_all" in proc.stderr
    assert '"correct"' not in proc.stdout


def test_serve_stops_its_servers_under_a_parent_that_ignores_sigint():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1",
         "--workload", "serve", "--trace", "0", "--sizes", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
    )
    assert result_of(proc)["correct"]
    assert "killed" not in proc.stdout


def session_members(sid: int) -> dict[int, int]:
    """Pid -> parent pid of every process, zombies too, in session ``sid``."""
    members = {}
    for entry in Path("/proc").iterdir():
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[3]) == sid:
            members[int(entry.name)] = int(fields[1])
    return members


@pytest.mark.parametrize("trace", [0, 1])
def test_no_process_outlives_a_serve_run(trace):
    args = [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1",
            "--workload", "serve", "--trace", str(trace), "--sizes", "tiny"]
    with subprocess.Popen(args, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        out, err = proc.communicate(timeout=170)
    left = session_members(proc.pid)
    assert result_of(subprocess.CompletedProcess(args, proc.returncode, out, err))["correct"]
    assert left == {}
    # Nothing was left for the last-resort sweep in run.py to stop either.
    assert "leftover" not in err


def test_sigterm_stops_the_run_and_every_descendant():
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1",
         "--workload", "compare", "--trace", "0", "--sizes", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        # Wait until a pass runs, with pool workers below its child.
        while proc.poll() is None:
            members = session_members(proc.pid)
            if any(ppid not in (proc.pid, 1) and ppid in members for ppid in members.values()):
                break
            time.sleep(0.01)
        else:
            pytest.fail("the run ended before a pool worker was seen")
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 128 + signal.SIGTERM, err[-3000:]
    assert '"correct"' not in out
    assert session_members(proc.pid) == {}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = bench("--workload", "compare", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_inputs_come_from_the_seed(tmp_path):
    a = inputs.stream_feed(5, 3000, tmp_path / "a.csv")
    b = inputs.stream_feed(5, 3000, tmp_path / "b.csv")
    c = inputs.stream_feed(6, 3000, tmp_path / "c.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert a.digest == b.digest != c.digest
    warm, schedule = inputs.serve_schedule(5, 400, inputs.FULL)
    assert inputs.serve_schedule(5, 400, inputs.FULL) == (warm, schedule)
    sweeps = [r.body for r in warm + schedule if r.cls == "sweep"]
    inline = [r.body for r in warm + schedule if r.cls == "inline"]
    assert len(set(sweeps)) == len(sweeps) and len(set(inline)) == len(inline)
    assert [r.cls for r in schedule].count("sweep") == 4 * dict(inputs.MIX)["sweep"]
    names = inputs.scale_names(5, 24, 24)
    assert sorted(names) == [inputs.scale_name(i) for i in range(24)]
    assert names != inputs.scale_names(6, 24, 24)
    orders = [inputs.compare_order(5, i, inputs.COMPARE_LABELS) for i in range(3)]
    assert all(sorted(o) == sorted(inputs.COMPARE_LABELS) for o in orders)
    assert len({tuple(o) for o in orders}) == 3
    assert orders[0] == inputs.compare_order(5, 0, inputs.COMPARE_LABELS)


def test_layer_table_splits_the_window():
    # parent span in process 1 with a child in a forked process 2, plus
    # an unrelated span overlapping in process 3; two lanes.
    parent, child, other = (1 << 32) | 1, (2 << 32) | 1, (3 << 32) | 1
    spans = [
        [parent, 0, "evaluation.isolated", 0.0, 10.0],
        [child, parent, "evaluation.score", 2.0, 6.0],
        [other, 0, "core.kde", 4.0, 8.0],
    ]
    table = tracing.layer_table(spans, 0.0, 12.0, lanes=2)
    assert table["raw"]["evaluation.isolated"] == pytest.approx(6.0)
    assert table["raw"]["evaluation.score"] == pytest.approx(4.0)
    total = sum(table["share"].values()) + table["unattributed_s"]
    assert total == pytest.approx(12.0)
    # One of two lanes busy over 0-4 and 8-10 (half to unattributed),
    # both busy over 4-8, none over 10-12.
    assert table["share"]["evaluation.isolated"] == pytest.approx(3.0)
    assert table["share"]["evaluation.score"] == pytest.approx(2.0)
    assert table["share"]["core.kde"] == pytest.approx(2.0)
    assert table["unattributed_s"] == pytest.approx(5.0)


def test_host_slowdown_over_an_interval():
    ref = probe.REFERENCE_S
    # 40 samples 0.1 s apart: the host runs at reference speed, then at
    # half speed from t = 2; one sample is hit by an interrupt.
    samples = [(i / 10, i % 2, ref if i < 20 else 2 * ref) for i in range(40)]
    samples[5] = (0.5, 1, 50 * ref)
    assert probe.slowdown(samples, 0.0, 1.95) == pytest.approx(1.0)
    assert probe.slowdown(samples, 2.0, 3.9) == pytest.approx(2.0)
    # Too few samples inside: the nearest MIN_SAMPLES around the middle.
    assert probe.slowdown(samples, 3.0, 3.05) == pytest.approx(2.0)
    assert probe.slowdown(samples, 1.95, 2.05) == pytest.approx(1.5)


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == ["compare", "scale", "stream", "serve"]
