"""What a run must leave behind: nothing.

Child processes reaped, none of the run's shared-memory segments left in
``/dev/shm``, file descriptors back to where they were; plus the ``/proc``
readers for CPU time and resident memory of the processes under test.
"""

from __future__ import annotations

import gc
import os
from multiprocessing import resource_tracker
from typing import Dict, Iterable, List, Optional, Set

__all__ = ["Baseline", "children", "cpu_seconds", "mapped_segments",
           "peak_rss_mb", "pin_to_one_cpu", "stop_resource_tracker"]

_TICKS = os.sysconf("SC_CLK_TCK")
_SHM_DIR = "/dev/shm"


def pin_to_one_cpu() -> Optional[int]:
    """Keep this process, its threads and every daemon it starts on the
    first cpu it is allowed; returns that cpu, or None where the sandbox
    forbids pinning and the run goes on unpinned (noisier: the caller
    records which, so the two kinds of run can be told apart).

    The loads here are ping-pong (a request, a reply; a tick, a poll): on
    one cpu each hand-over is a context switch, on two it is a cross-cpu
    wake-up — and in a two-vCPU sandbox the host does not keep both vCPUs
    running, so the wake-up latency (and with it every client-side metric)
    swung 50-150 % between runs and doubled for minutes at a time.  One
    cpu gives up parallelism between generator and daemon, which a closed
    loop does not use, for a repeatable instrument.
    """
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except OSError:
        return None
    return cpu


def children() -> List[int]:
    """Live child processes of this process."""
    found: List[int] = []
    for task in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{task}/children") as fh:
                found.extend(int(p) for p in fh.read().split())
        except OSError:
            continue
    return found


def _stat_fields(pid: int) -> List[str]:
    with open(f"/proc/{pid}/stat") as fh:
        return fh.read().rsplit(")", 1)[1].split()


def cpu_seconds(pids: Iterable[int]) -> float:
    """utime + stime, summed over ``pids`` (exited ones count nothing)."""
    total = 0.0
    for pid in pids:
        try:
            fields = _stat_fields(pid)
        except OSError:
            continue
        total += (int(fields[11]) + int(fields[12])) / _TICKS
    return total


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Sum of the processes' peak resident set sizes (VmHWM)."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def mapped_segments(pids: Iterable[int]) -> Set[str]:
    """Names of the ``/dev/shm`` segments these processes have mapped."""
    names: Set[str] = set()
    for pid in pids:
        try:
            with open(f"/proc/{pid}/maps") as fh:
                for line in fh:
                    if _SHM_DIR + "/" in line:
                        names.add(line.split(_SHM_DIR + "/", 1)[1].split()[0])
        except OSError:
            continue
    return names


def _stem(segment: str) -> str:
    """What every segment of one owner starts with: a snapshot writer
    names its control block and each layout generation's buffers
    ``aqshm_<token>_...``; anything else stands for itself."""
    parts = segment.split("_")
    return "_".join(parts[:2]) + "_" if parts[0] == "aqshm" else segment


def stop_resource_tracker() -> None:
    """Reap multiprocessing's resource-tracker child, if one was started.

    Creating a shared-memory segment starts it; it exits only when its
    parent closes the pipe, which the interpreter does not wait for.  The
    benchmark must not leave a process behind, so it stops it explicitly.
    """
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


class Baseline:
    """Process state before any system was built, to compare against."""

    def __init__(self) -> None:
        self.fds = len(os.listdir("/proc/self/fd"))
        #: stems of the shared-memory segments the run's systems used
        self.stems: Set[str] = set()

    def claim(self, pids: Iterable[int]) -> None:
        """Note which segments a freshly built system has mapped: only
        those (and their later generations) are this run's to clean up —
        ``/dev/shm`` is system-wide and other processes use it too."""
        self.stems.update(_stem(name) for name in mapped_segments(pids))

    def problems(self) -> Dict[str, object]:
        """What is left over now; empty when the run cleaned up."""
        gc.collect()
        stop_resource_tracker()
        out: Dict[str, object] = {}
        left = children()
        if left:
            out["children"] = left
        try:
            present = os.listdir(_SHM_DIR)
        except OSError:
            present = []
        shm = sorted(name for name in present
                     if any(name.startswith(stem) for stem in self.stems))
        if shm:
            out["shm"] = shm
        fds = len(os.listdir("/proc/self/fd"))
        if fds > self.fds:
            out["fds"] = fds - self.fds
        return out
