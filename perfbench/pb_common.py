"""Helpers shared by the workloads: percentiles, provenance, memory, digests,
and the processes a run starts."""

from __future__ import annotations

import ctypes
import gc
import hashlib
import os
import platform
import resource
import signal
import statistics
import time
from multiprocessing import resource_tracker

import numpy as np


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation."""
    if not values:
        raise ValueError("percentile of no samples")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def reset_peak_rss() -> bool:
    """Hand memory the program has freed back to the OS, then reset this
    process's RSS high-water mark to its current RSS (Linux ``clear_refs``);
    False where the kernel does not allow the reset.

    Without the hand-back, the allocator keeps the pages set-up freed
    resident, later jobs allocate inside them, and the high-water mark
    stays at set-up's peak whatever the jobs use."""
    gc.collect()
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):
        pass  # not glibc: freed pages may stay resident
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
            fh.write("5")
    except OSError:
        return False
    return True


def peak_rss_mb() -> float:
    """This process's RSS high-water mark (since :func:`reset_peak_rss`)
    plus the largest peak of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    own = int(line.split()[1])
    except OSError:
        pass
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def cpu_ticks() -> list[int]:
    """The machine's CPU time counters (``/proc/stat``); empty where absent."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return [int(x) for x in fh.readline().split()[1:]]
    except OSError:
        return []


def steal_share(before: list[int], after: list[int]) -> float | None:
    """Share of CPU time between two :func:`cpu_ticks` readings that the
    hypervisor ran something else while this guest wanted to run (the
    eighth counter, ``steal``); None where it is not counted."""
    delta = [b - a for a, b in zip(before, after)]
    if len(delta) < 8 or sum(delta) <= 0:
        return None
    return delta[7] / sum(delta)


def points_digest(points) -> str:
    """sha256 over a PointSet's coordinates, times and values (by name)."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(points.coords).tobytes())
    if points.time is not None:
        h.update(np.ascontiguousarray(points.time).tobytes())
    for name in sorted(points.values):
        h.update(name.encode())
        h.update(np.ascontiguousarray(points.values[name]).tobytes())
    return h.hexdigest()


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def git_commit(root: str) -> str:
    """HEAD commit read from ``.git`` without running git; ``unknown`` when
    the checkout is not a git repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def provenance(root: str, workload: str, seed: int, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(root),
    }


_PR_SET_CHILD_SUBREAPER = 36


def own_descendants() -> None:
    """Make this process the reaper of its orphaned descendants and start
    the multiprocessing resource tracker from it.

    The process backend's shared-memory segments start a resource tracker,
    which multiprocessing leaves running past the end of the program (it
    exits some time after its last writer).  Started here, before any rank
    forks, it is one child of this process that every rank shares, and
    :func:`stop_children` can stop it and wait for it."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: orphans go to init, only direct children are stopped
    resource_tracker.ensure_running()


def _child_pids() -> list[int]:
    """Pids of this process's children (Linux ``/proc``); empty elsewhere."""
    me = os.getpid()
    pids = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return pids
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                stat = fh.read()
        except OSError:
            continue
        # "pid (comm) state ppid ...": comm may hold spaces and parentheses.
        fields = stat[stat.rfind(")") + 2:].split()
        if len(fields) > 1 and int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def _wait_gone(pid: int, timeout: float) -> bool:
    """Reap ``pid`` within ``timeout`` seconds; True once it is gone."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            done, _ = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            return True
        if done:
            return True
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.01)


def _stop_pid(pid: int, grace: float) -> None:
    """SIGTERM, then SIGKILL after ``grace`` seconds; waits for the end."""
    for sig, wait in ((signal.SIGTERM, grace), (signal.SIGKILL, 10.0)):
        try:
            os.kill(pid, sig)
        except ProcessLookupError:
            pass
        if _wait_gone(pid, wait):
            return


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended:
    its children and adopted orphans first, then the resource tracker
    (closing its pipe ends it once no other writer holds the pipe)."""
    tracker = resource_tracker._resource_tracker
    for pid in _child_pids():
        if pid != tracker._pid:
            _stop_pid(pid, 2.0)
    if tracker._fd is not None:
        os.close(tracker._fd)
        tracker._fd = None
    if tracker._pid is not None:
        pid, tracker._pid = tracker._pid, None
        if not _wait_gone(pid, 5.0):
            _stop_pid(pid, 0.0)
