"""Machine and process facts a run records: environment, CPU steal, peak RSS."""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import signal
import time
from pathlib import Path

#: ``prctl`` option that makes a process the reaper of its orphans (Linux).
PR_SET_CHILD_SUBREAPER = 36

#: Environment variables that set the BLAS/OpenMP thread count.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cpu_ticks() -> tuple[int, int, int]:
    """(steal, busy, total) jiffies summed over all CPUs, from ``/proc/stat``.

    Busy is user + nice + system + irq + softirq: time a vCPU ran work.
    Steal is time a vCPU wanted to run while the hypervisor ran another
    guest.
    """
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()[1:]
    except OSError:
        return 0, 0, 0
    v = [int(x) for x in fields] + [0] * 8
    user, nice, system, idle, iowait, irq, softirq, steal = v[:8]
    # guest and guest_nice are already counted inside user and nice.
    return steal, user + nice + system + irq + softirq, sum(v[:8])


def unstolen(steal: int, busy: int) -> float:
    """Share of the vCPU time the VM asked for that the hypervisor gave it.

    Timed intervals are multiplied by this, so time the host spent
    running another guest on our vCPUs is not charged to the program.
    """
    return busy / (busy + steal) if busy + steal else 1.0


def unstolen_since(start: tuple, end: tuple) -> float:
    """:func:`unstolen` between two :func:`cpu_ticks` readings."""
    return unstolen(end[0] - start[0], end[1] - start[1])


def environment() -> dict:
    """What a reader needs to tell a noisy run from a slow commit."""
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {
            name: os.environ.get(name, "default") for name in BLAS_THREAD_VARS
        },
        "sieve_obs": os.environ.get("SIEVE_OBS", "on (default)"),
    }


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set of a live process, from ``/proc/<pid>/status``.

    Unlike ``ru_maxrss``, this is the peak of the process's own address
    space: after fork and exec, ``ru_maxrss`` can still report the
    parent's peak.
    """
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def peak_rss_mb() -> float:
    """Peak resident set of this process or of its largest reaped child."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0  # KiB
    return max(vm_hwm_mb(), children)


def adopt_orphans() -> bool:
    """Become the reaper of this process's orphaned descendants.

    A descendant whose parent dies (a pool worker of a killed child, an
    isolated child of a killed server) is then re-parented to this
    process instead of to init, so :func:`stop_children` can stop it and
    wait for it. Returns False where the kernel does not offer this.
    """
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return False
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    return prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0


def children() -> list[int]:
    """Pids whose parent is this process, exited-but-unreaped ones too."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        # The command name may hold spaces and ")"; the fields after the
        # last ")" are state, then the parent pid.
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            found.append(int(entry))
    return found


def stop_children(grace_s: float = 5.0) -> list[int]:
    """Stop every child still around and wait for each to end.

    Children get SIGTERM, and SIGKILL if they are still there after
    ``grace_s``. Orphans re-parented here while this runs are stopped
    too. Returns the pids that were still running or unreaped.
    """
    found: list[int] = []
    deadline = time.monotonic() + grace_s
    while pids := children():
        late = time.monotonic() > deadline
        for pid in pids:
            try:
                if pid not in found:
                    found.append(pid)
                    os.kill(pid, signal.SIGTERM)
                elif late:
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0 if late else os.WNOHANG)
            except (ProcessLookupError, ChildProcessError):
                pass
        time.sleep(0.01)
    return found
