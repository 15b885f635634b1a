"""How fast the host runs this VM's vCPUs, sampled over a run.

On a shared host a vCPU's speed changes from one second to the next
with what other guests run on the same physical core; the steal
counters in ``/proc/stat`` do not show it, because the vCPU keeps
running, only slower. ``python3 -m perfbench.probe OUT`` times a fixed
pure-Python task in thread CPU time (so waiting for a busy vCPU does not
count), on each vCPU in turn every ``INTERVAL_S``, until its standard
input closes; then it writes ``[[monotonic_s, cpu, task_s], ...]`` to
OUT. :func:`slowdown` turns the samples taken over an interval into
the factor an interval's time is divided by to give its time at the
reference speed.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time
from bisect import bisect_left, bisect_right
from pathlib import Path

#: Seconds between two samples (each on the next vCPU).
INTERVAL_S = 0.02
#: Thread CPU seconds :func:`task` takes at the reference speed: the
#: median on the 2-vCPU VM the benchmark was defined on.
REFERENCE_S = 370e-6
#: Fewest samples a factor rests on; short intervals borrow neighbours.
MIN_SAMPLES = 16


def task() -> None:
    """About a third of a millisecond of dictionary and integer work."""
    table: dict[int, int] = {}
    for i in range(1500):
        key = i % 97
        table[key] = table.get(key, 0) + (i * 7) // 3


def main(out: str) -> int:
    cpus = sorted(os.sched_getaffinity(0))
    closed = threading.Event()

    def watch() -> None:
        sys.stdin.buffer.read()
        closed.set()

    threading.Thread(target=watch, daemon=True).start()
    for _ in range(20):
        task()  # past the interpreter's warm-up
    samples = []
    for cpu in itertools.cycle(cpus):
        if closed.wait(INTERVAL_S):
            break
        os.sched_setaffinity(0, {cpu})
        start = time.thread_time()
        task()
        samples.append((time.monotonic(), cpu, time.thread_time() - start))
    Path(out).write_text(json.dumps(samples))
    return 0


def slowdown(samples: list, t0: float, t1: float) -> float:
    """Measured over reference task time in ``[t0, t1]``: above 1 when
    the host ran the vCPUs slower than the reference.

    ``samples`` are sorted by time. The mean drops the highest and
    lowest tenth (a sample hit by an interrupt). An interval holding
    fewer than ``MIN_SAMPLES`` uses the ones nearest its middle.
    """
    times = [s[0] for s in samples]
    lo, hi = bisect_left(times, t0), bisect_right(times, t1)
    if hi - lo < MIN_SAMPLES:
        mid = bisect_left(times, (t0 + t1) / 2)
        lo = max(0, min(mid - MIN_SAMPLES // 2, len(samples) - MIN_SAMPLES))
        hi = min(len(samples), lo + MIN_SAMPLES)
    costs = sorted(s[2] for s in samples[lo:hi])
    cut = len(costs) // 10
    kept = costs[cut:len(costs) - cut] or costs
    return sum(kept) / len(kept) / REFERENCE_S


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
