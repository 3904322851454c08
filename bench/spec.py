"""Workloads as data: one JSON file per workload under ``bench/workloads``.

A workload file says which system is booted (``chain``: two sites in this
process on loopback TCP, driven in lock-step; ``grid``: real ``grid-node``
daemons under :class:`~repro.grid.harness.GridHarness`; ``daemon``: one
bench-launched ``AequusDaemon`` subprocess), at what size and tempo, and
what traffic it gets.  Nothing in a file names a code path: the program
runs at its shipped defaults and sees only the generated inputs.

A field exists only where two workloads need different values; everything
the four share (histogram bins, pass size, pipeline depth, warm-up, phase
split, poll period) is a constant beside the code that uses it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Union

__all__ = ["WorkloadSpec", "WORKLOAD_DIR", "load_workload", "workload_names"]

WORKLOAD_DIR = Path(__file__).resolve().parent / "workloads"


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str
    system: str
    users: int
    #: USS exchange / UMS+FCS refresh period (virtual seconds)
    exchange_interval: float
    refresh_interval: float
    #: chain: share of s0's users completing a job per round, or "active"
    dirty: Union[float, str] = 0.0
    #: daemon: background job completions reported per second
    writer_rate: float = 0.0
    #: how many times the system is built to take ``setup_s``'s median
    setup_repeats: int = 3


def workload_names() -> List[str]:
    return sorted(p.stem for p in WORKLOAD_DIR.glob("*.json"))


def load_workload(name: str) -> WorkloadSpec:
    path = WORKLOAD_DIR / f"{name}.json"
    if not path.is_file():
        raise SystemExit(f"unknown workload {name!r}; have "
                         f"{', '.join(workload_names())}")
    data: Dict[str, Any] = json.loads(path.read_text(encoding="utf-8"))
    if data.get("name") != name:
        raise SystemExit(f"{path}: name {data.get('name')!r} != file name")
    return WorkloadSpec(**data)
