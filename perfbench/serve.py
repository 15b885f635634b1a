"""The serve workload: a closed loop against the service in its own process.

One load-generator process (this one) keeps two keep-alive connections
busy; each sends its next request when the previous reply has arrived,
because service clients are scripts that wait for each reply. Request
bytes are encoded before timing and the hot set is cached by a warm-up.
Latency runs from the first byte sent to the last byte received.

After the window every response is checked: status 200 and a
``pickle_sha256`` equal to a direct in-process evaluation of the same
request at the same commit, worked out in fresh interpreters
(``python3 -m perfbench.serve JOB``).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import pickle
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

from perfbench import inputs, tracing
from perfbench.batch import layer_metrics
from perfbench.harness import BenchError, Outcome, Run, median, percentile, plural
from perfbench.system import cpu_ticks, unstolen, unstolen_since, vm_hwm_mb

CONNECTIONS = 2
#: Fresh interpreters that work out the expected answers after the window.
CHECKERS = 2
CHECK_TIMEOUT_S = 120.0
#: Requests a second at the commit that defined the benchmark.
REQUESTS_PER_S = 95
LISTENING = re.compile(rb"listening on http://([0-9.]+):(\d+)")
DIGEST = b'"pickle_sha256":"'


class Connection:
    """A minimal HTTP/1.1 keep-alive client over one socket."""

    def __init__(self, host: str, port: int):
        self.sock = socket.create_connection((host, port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def _more(self) -> None:
        chunk = self.sock.recv(1 << 18)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buf += chunk

    def exchange(self, request: bytes) -> tuple[int, bytes]:
        self.sock.sendall(request)
        while (end := self.buf.find(b"\r\n\r\n")) < 0:
            self._more()
        head, self.buf = self.buf[:end], self.buf[end + 4:]
        lines = head.split(b"\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        while len(self.buf) < length:
            self._more()
        body, self.buf = self.buf[:length], self.buf[length:]
        return status, body

    def close(self) -> None:
        self.sock.close()


def encode(host: str, port: int, method: str, route: str, body: bytes = b"") -> bytes:
    head = (
        f"{method} {route} HTTP/1.1\r\nHost: {host}:{port}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


class Server:
    """``sieve-repro serve`` in its own process, via the launcher."""

    def __init__(self, run: Run, trace_dir=None):
        self.err_path = run.path("server.err")
        argv = [sys.executable, "-m", "perfbench.launcher"]
        if trace_dir is not None:
            argv += ["--trace-dir", str(trace_dir)]
        argv += ["--", "--cache-dir", str(run.path("server-cache")), "serve", "--port", "0"]
        spawn, spawn_ticks = time.monotonic(), cpu_ticks()
        with open(self.err_path, "wb") as err:
            self.proc = subprocess.Popen(
                argv, cwd=run.root, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err,
            )
        try:
            self.host, self.port = self._wait_listening(spawn + 60.0)
            self._wait_healthy(spawn + 60.0)
        except BaseException:
            self.stop()
            raise
        self.spawn, self.ready = spawn, time.monotonic()
        self.setup_s = (self.ready - spawn) * unstolen_since(spawn_ticks, cpu_ticks())

    def _alive(self, deadline: float) -> None:
        if self.proc.poll() is not None:
            tail = self.err_path.read_bytes()[-2000:].decode(errors="replace")
            raise BenchError(f"server exited with {self.proc.returncode}:\n{tail}")
        if time.monotonic() > deadline:
            raise BenchError("server did not become healthy within 60 s")

    def _wait_listening(self, deadline: float) -> tuple[str, int]:
        while True:
            match = LISTENING.search(self.err_path.read_bytes())
            if match:
                return match.group(1).decode(), int(match.group(2))
            self._alive(deadline)
            time.sleep(0.002)

    def _wait_healthy(self, deadline: float) -> None:
        while True:
            try:
                if self.get("/v1/healthz")[0] == 200:
                    return
            except OSError:
                pass
            self._alive(deadline)
            time.sleep(0.002)

    def get(self, route: str) -> tuple[int, bytes]:
        conn = Connection(self.host, self.port)
        try:
            return conn.exchange(encode(self.host, self.port, "GET", route))
        finally:
            conn.close()

    def counters(self) -> dict:
        """Dispatcher stats (``/v1/healthz``) and engine counters (``/v1/metrics``)."""
        stats = json.loads(self.get("/v1/healthz")[1])["dispatcher"]
        for line in self.get("/v1/metrics")[1].decode().splitlines():
            if line and not line.startswith("#"):
                name, value = line.split("{")[0].split(" ")[0], line.rsplit(" ", 1)[1]
                stats[name] = stats.get(name, 0.0) + float(value)
        return stats

    def stop(self) -> str:
        """SIGINT, the server's graceful stop; a server still running 10 s
        later is killed. Returns ``signal`` or ``killed``."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(10.0)
            return "signal"
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            return "killed"


def _digest(body: bytes) -> str | None:
    """The response's ``pickle_sha256``, found without decoding the JSON."""
    at = body.find(DIGEST)
    return body[at + len(DIGEST):at + len(DIGEST) + 64].decode() if at >= 0 else None


def drive(server: Server, schedule: list[inputs.Request]) -> tuple[list, float, float]:
    """Send the whole schedule in a closed loop over ``CONNECTIONS``
    connections; returns the records ``(index, cls, sent, done, status,
    digest)`` and the window."""
    wire = [encode(server.host, server.port, "POST", r.route, r.body) for r in schedule]
    records: list = []
    turn = itertools.count()
    errors: list[BaseException] = []

    def client() -> None:
        conn = Connection(server.host, server.port)
        try:
            while (i := next(turn)) < len(wire):
                sent = time.monotonic()
                try:
                    status, body = conn.exchange(wire[i])
                except OSError as exc:
                    records.append((i, schedule[i].cls, sent, time.monotonic(), None, repr(exc)))
                    conn.close()
                    conn = Connection(server.host, server.port)
                    continue
                done = time.monotonic()
                records.append((i, schedule[i].cls, sent, done, status, _digest(body)))
        except BaseException as exc:  # surfaced after join
            errors.append(exc)
        finally:
            conn.close()

    threads = [threading.Thread(target=client) for _ in range(CONNECTIONS)]
    start = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise BenchError(f"load generator failed: {errors[0]!r}")
    records.sort()
    return records, start, max(r[3] for r in records)


def expected_digest(route: str, body: bytes) -> tuple[str, float]:
    """The digest a direct in-process evaluation gives, and its seconds."""
    from repro.evaluation.context import build_context
    from repro.evaluation.runner import evaluate_method
    from repro.service import protocol

    kind = "select" if route == "/v1/select" else "predict"
    request = protocol.parse_request(kind, json.loads(body))
    if request.inline:
        t0 = time.monotonic()
        obj = protocol.select_inline(request)
    else:
        context = build_context(request.workload, request.cap, fault_plan=request.fault_plan)
        t0 = time.monotonic()
        result = evaluate_method(request.method, context, request.config)
        obj = result if kind == "predict" else result.selection
    seconds = time.monotonic() - t0
    return hashlib.sha256(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)).hexdigest(), seconds


def verify(run: Run, requests: list[inputs.Request], responses: list) -> tuple[int, list[str], dict]:
    """Failed count, first problems, and in-process seconds per class."""
    unique = sorted({(r.route, r.body) for r in requests})
    # Plain child processes rather than a multiprocessing pool: a
    # "spawn" pool also starts a resource tracker that outlives this
    # process, and forking this one would copy its state.
    jobs, procs = [], []
    try:
        for k in range(CHECKERS):
            jobs.append(run.path("check.json"))
            jobs[-1].write_text(json.dumps(
                [[route, body.decode("latin-1")] for route, body in unique[k::CHECKERS]]))
            procs.append(subprocess.Popen(
                [sys.executable, "-m", "perfbench.serve", str(jobs[-1])],
                cwd=run.root, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            ))
        for proc in procs:
            proc.wait(CHECK_TIMEOUT_S)
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    answers = {}
    for k, (job, proc) in enumerate(zip(jobs, procs)):
        out = job.with_suffix(".out.json")
        if proc.returncode != 0 or not out.exists():
            raise BenchError(f"response checker exited {proc.returncode} without answers")
        answers.update(zip(unique[k::CHECKERS], map(tuple, json.loads(out.read_text()))))
    failed, problems = 0, []
    inproc: dict[str, list[float]] = {}
    for request, (status, digest) in zip(requests, responses):
        want, seconds = answers[(request.route, request.body)]
        inproc.setdefault(request.cls, []).append(seconds)
        if status != 200 or digest != want:
            failed += 1
            if len(problems) < 5:
                problems.append(f"{request.cls} {request.route}: status {status}, "
                                f"digest {digest} != {want}")
    return failed, problems, inproc


def session(run: Run, warm, schedule, trace_dir=None) -> dict:
    """One server: start, warm, drive the timed window, stop."""
    server = Server(run, trace_dir)
    try:
        conn = Connection(server.host, server.port)
        warm_responses = []
        try:
            for request in warm:
                status, body = conn.exchange(
                    encode(server.host, server.port, "POST", request.route, request.body))
                warm_responses.append((status, _digest(body)))
        finally:
            conn.close()
        before = server.counters() if trace_dir else {}
        if trace_dir:
            server.proc.send_signal(signal.SIGUSR1)
        steal0, busy0, total0 = cpu_ticks()
        records, w0, w1 = drive(server, schedule)
        steal1, busy1, total1 = cpu_ticks()
        if trace_dir:
            server.proc.send_signal(signal.SIGUSR1)
        rss = vm_hwm_mb(server.proc.pid)
        after = server.counters() if trace_dir else {}
    finally:
        stopped = server.stop()
    return {
        "stopped": stopped,
        "cold": (server.setup_s, server.spawn, server.ready),
        "warm": warm_responses, "records": records,
        "w0": w0, "w1": w1, "rss_mb": rss, "before": before, "after": after,
        "steal_ticks": steal1 - steal0, "busy_ticks": busy1 - busy0,
        "cpu_ticks": total1 - total0,
        "trace_dir": trace_dir, "schedule": schedule,
    }


def run_serve(run: Run) -> Outcome:
    out = Outcome()
    sizes = run.sizes
    # A fixed request count, sized to take about --seconds at this
    # commit, so every run of a seed sends the same requests.
    count = max(sizes.serve_min_requests, round(run.seconds * REQUESTS_PER_S))
    warm, schedule = inputs.serve_schedule(run.seed, count, sizes)
    out.record["input_digests"] = {
        "serve_schedule": inputs.digest(*(r.route + r.cls for r in schedule), *(r.body for r in schedule)),
    }

    cold, stops = [], []  # cold: (seconds less steal, spawn, ready)
    if run.trace:
        # An untraced and a traced server, half the schedule each.
        half = len(schedule) // 2
        trace_dir = run.path("trace")
        trace_dir.mkdir()
        sessions = [session(run, warm, schedule[:half]),
                    session(run, warm, schedule[half:], trace_dir)]
    else:
        for _ in range(sizes.setup_samples - 1):
            server = Server(run)
            stops.append(server.stop())
            cold.append((server.setup_s, server.spawn, server.ready))
        sessions = [session(run, warm, schedule)]
    run.host.stop()
    stops += [s["stopped"] for s in sessions]
    out.record["server_stops"] = stops
    if any(how != "signal" for how in stops):
        out.lines.append(f"server stops after SIGINT: {', '.join(stops)}")

    sent, responses = [], []
    for s in sessions:
        sent += warm + [s["schedule"][r[0]] for r in s["records"]]
        responses += s["warm"] + [(r[4], r[5]) for r in s["records"]]
    failed, problems, inproc = verify(run, sent, responses)
    out.attempted, out.failed = len(sent), failed
    out.lines += [f"check failed: {p}" for p in problems]

    plain = sessions[0]
    records = plain["records"]
    # Every time is scaled by the share of the window the hypervisor did
    # not steal from the VM; a cold start (one process) is also divided
    # by the host slowdown over it. The raw figures are printed and recorded.
    share = unstolen(plain["steal_ticks"], plain["busy_ticks"])
    latency = [(r[3] - r[2]) * 1000.0 * share for r in records]
    by_class = {
        cls: [ms for r, ms in zip(records, latency) if r[1] == cls] for cls, _ in inputs.MIX
    }
    window = plain["w1"] - plain["w0"]
    cold.append(plain["cold"])
    setup = [seconds / run.host.slowdown(t0, t1) for seconds, t0, t1 in cold]
    out.metrics = {
        "setup_s": median(setup),
        "ops_per_s": len(records) / (window * share),
        "p50_ms": percentile(latency, 50),
        "p99_ms": percentile(latency, 99),
        "peak_rss_mb": plain["rss_mb"],
    }
    out.record.update(
        setup_samples_s=setup, setup_less_steal_s=[c[0] for c in cold],
        requests=len(records), window_s=window,
        window_host_slowdown=run.host.slowdown(plain["w0"], plain["w1"]),
        steal_ticks=plain["steal_ticks"], busy_ticks=plain["busy_ticks"],
        cpu_ticks=plain["cpu_ticks"],
        latency_ms={cls: [round(v, 3) for v in values] for cls, values in by_class.items()},
    )
    out.lines.append(
        f"{len(records)} timed requests over {window:.2f} s wall ({window * share:.2f} s less "
        f"steal) on {CONNECTIONS} connections (closed loop); raw p50 "
        f"{out.metrics['p50_ms'] / share:.2f} ms, p99 {out.metrics['p99_ms'] / share:.2f} ms; "
        f"{plural(len(setup), 'cold start')}; server peak RSS {plain['rss_mb']:.1f} MiB"
    )
    for cls, values in by_class.items():
        if values:
            ip = inproc.get(cls, [0.0])
            out.lines.append(
                f"  {cls:<7}{len(values):>6} req  p50 {percentile(values, 50):8.2f} ms  "
                f"p90 {percentile(values, 90):8.2f} ms  p99 {percentile(values, 99):8.2f} ms  "
                f"(in-process evaluation p50 {median(ip) * 1000:.2f} ms)"
            )
    if run.trace:
        _trace_report(run, out, plain, sessions[1], by_class)
    return out


def _trace_report(run: Run, out: Outcome, plain: dict, traced: dict, by_class) -> None:
    processes = tracing.load(traced["trace_dir"])
    tracing.check_required("serve", tracing.total_calls(processes), run.extra_required)
    w0, w1 = traced["w0"], traced["w1"]
    spans = [s for proc in processes for s in proc["spans"]]
    table = tracing.layer_table(spans, w0, w1, lanes=1)
    counts = tracing.counts_in([(processes, w0, w1)])
    program_spans = sum(proc["extra"].get("program_spans", 0) for proc in processes)
    rate_plain, rate_traced = (
        len(s["records"]) / ((s["w1"] - s["w0"]) * unstolen(s["steal_ticks"], s["busy_ticks"]))
        for s in (plain, traced)
    )
    layers = layer_metrics(table, counts, program_spans, rate_plain / rate_traced - 1.0)
    before, after = traced["before"], traced["after"]

    def delta(name: str) -> float:
        return after.get(name, 0.0) - before.get(name, 0.0)

    hits, misses = delta("engine_cache_hit_total"), delta("engine_cache_miss_total")
    waits = [w for proc in processes for t0, t1, w in proc["waits"] if w0 <= t0 and t1 <= w1]
    layers.update({
        "service.queue_wait_s": sum(waits),
        "service.batches": delta("batches"),
        "service.coalesced_ratio": delta("coalesced") / max(1.0, delta("requests")),
        "evaluation.isolated_failures": delta("engine_isolated_failures_total"),
        "evaluation.cache_hit_ratio": hits / max(1.0, hits + misses),
        "service.hot_p50_ms": percentile(by_class["hot"], 50),
        "service.inline_p50_ms": percentile(by_class["inline"], 50),
        "service.sweep_p50_ms": percentile(by_class["sweep"], 50),
    })
    out.layers = layers
    out.lines.append(tracing.format_table(table, 1))
    out.lines.append(
        f"tracing overhead: {layers['trace.overhead_pct']:+.1f}% ops_per_s vs the untraced "
        f"session of this run; queue wait median {median(waits) * 1000 if waits else 0:.2f} ms "
        f"over {len(waits)} catalog requests"
    )
    p50, p99 = out.metrics["p50_ms"], out.metrics["p99_ms"]
    fast_top = max(percentile(by_class["hot"], 90), percentile(by_class["inline"], 90))
    sweep_low = percentile(by_class["sweep"], 10)
    out.lines.append(
        f"predicted: p50 {p50:.2f} ms in the hot/inline mode (<= their p90 {fast_top:.2f} ms): "
        f"{'yes' if p50 <= fast_top else 'NO'}; p99 {p99:.2f} ms in the sweep mode "
        f"(>= sweep p10 {sweep_low:.2f} ms): {'yes' if p99 >= sweep_low else 'NO'}"
    )


def check(job_path: str) -> int:
    """Write the expected digest and in-process seconds of each request
    in a job file; an evaluation that raises gives an unmatchable digest."""
    job = Path(job_path)
    answers = []
    for route, body in json.loads(job.read_text()):
        try:
            answers.append(expected_digest(route, body.encode("latin-1")))
        except Exception:
            answers.append((f"raised: {traceback.format_exc(limit=1)}", 0.0))
    job.with_suffix(".out.json").write_text(json.dumps(answers))
    return 0


if __name__ == "__main__":
    sys.exit(check(sys.argv[1]))
