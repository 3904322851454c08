"""A session: every workload, untraced then traced, one subprocess per run.

``python3 -m bench`` with no ``--workload`` is the one command: it runs
the four workloads at their shipped settings, prints every metric by name
with its unit, repeats each workload once with the benchmark's spans on
for the per-layer budget, lists every run it made (discarded warm-ups are
declared inside each run), writes ``bench/out/session-<stamp>.json`` and
appends one line per run to ``bench/history/<host>.jsonl``.

``--compare A.json B.json`` reads two session files and prints, for every
(workload, end-to-end metric) pair, whether B is better, worse, unchanged
or unresolved against the metric's bound (choosing-metrics §6 and §8).
"""

from __future__ import annotations

import json
import os
import platform
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from . import hygiene
from .metrics import END_TO_END, by_name
from .spec import workload_names
from .stats import percentile, spread

__all__ = ["fingerprint", "run_session", "compare_sessions", "verdict"]

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
HISTORY_DIR = BENCH_DIR / "history"
OUT_DIR = BENCH_DIR / "out"


def fingerprint() -> Dict[str, Any]:
    """Where these numbers were taken."""
    import numpy
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"host": socket.gethostname(), "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "cpu_model": model, "python": platform.python_version(),
            "numpy": numpy.__version__,
            "loadavg_at_start": list(os.getloadavg()),
            "platform": platform.platform()}


def _one_run(workload: str, seed: int, seconds: float, trace: int,
             setup_repeats: Optional[int]) -> Dict[str, Any]:
    cmd = [sys.executable, "-m", "bench", "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}",
           "--trace", str(trace)]
    if setup_repeats:
        cmd += ["--setup-repeats", str(setup_repeats)]
    t0 = time.time()
    proc = subprocess.run(cmd, cwd=str(REPO_ROOT), capture_output=True,
                          text=True)
    wall = time.time() - t0
    lines = proc.stdout.strip().splitlines()
    record: Dict[str, Any] = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "wall_s": round(wall, 3), "exit": proc.returncode,
        "at": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(t0))}
    if proc.returncode == 0 and lines:
        record.update(json.loads(lines[-1]))
        record["report"] = lines[:-1]
    else:
        record.update(correct=False, attempted=0, failed=0, metrics={},
                      report=lines, stderr=proc.stderr[-2000:])
    return record


def run_session(seconds: float, runs: int, seed: int,
                setup_repeats: Optional[int] = None,
                record_history: bool = True) -> int:
    # pinned here so every run inherits it and the fingerprint records
    # whether these numbers come from pinned runs (null: the sandbox forbids
    # it, and unpinned timings are not comparable with pinned ones)
    cpu = hygiene.pin_to_one_cpu()
    info = {**fingerprint(), "pinned_cpu": cpu}
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    print(f"# bench session {stamp}: {seconds:g}s per run, {runs} untraced "
          f"+ 1 traced run per workload")
    print(f"# machine: {json.dumps(info)}")
    all_runs: List[Dict[str, Any]] = []
    for workload in workload_names():
        for k in range(runs):
            all_runs.append(_one_run(workload, seed + k, seconds, 0,
                                     setup_repeats))
        all_runs.append(_one_run(workload, seed, seconds, 1, setup_repeats))
        for record in all_runs[-(runs + 1):]:
            print(f"\n## {record['workload']} seed={record['seed']} "
                  f"trace={record['trace']} wall={record['wall_s']}s "
                  f"exit={record['exit']} correct={record['correct']}")
            for line in record["report"]:
                print(line)
            if record.get("stderr"):
                print(record["stderr"])
    print("\n# every run of this session")
    for record in all_runs:
        print(f"#   {record['at']} {record['workload']:13s} "
              f"seed={record['seed']:<4d} trace={record['trace']} "
              f"wall={record['wall_s']:7.2f}s exit={record['exit']} "
              f"correct={record['correct']} attempted={record['attempted']} "
              f"failed={record['failed']}")
    slim = [{k: v for k, v in r.items() if k not in ("report", "stderr")}
            for r in all_runs]
    session = {"stamp": stamp, "machine": info, "seconds": seconds,
               "runs": slim}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"session-{stamp}.json"
    path.write_text(json.dumps(session, indent=1))
    print(f"# session written to {path.relative_to(REPO_ROOT)}")
    if record_history:
        HISTORY_DIR.mkdir(parents=True, exist_ok=True)
        history = HISTORY_DIR / f"{info['host']}.jsonl"
        with open(history, "a", encoding="utf-8") as fh:
            for record in slim:
                fh.write(json.dumps({"session": stamp, "machine": info,
                                     **record}) + "\n")
        print(f"# history appended to {history.relative_to(REPO_ROOT)}")
    return 0 if all(r["exit"] == 0 and r["correct"] for r in all_runs) else 1


# -- comparison ---------------------------------------------------------------

def verdict(base: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> str:
    """better / worse / unchanged / unresolved for one metric on one
    workload, from the untraced runs of two sessions.

    ``worse``: the change's median is worse than the base's by more than
    the bound.  ``unresolved``: the base's own run-to-run spread
    (interquartile range over median) is wider than the bound — unless
    every run of the change reads better than every run of the base.
    ``better``: the medians differ, the right way, by more than that
    spread.  With fewer than four base runs the spread is unknown and only
    a difference beyond the bound is called.
    """
    if not base or not change:
        return "missing"
    sign = 1.0 if better == "lower" else -1.0
    b50, c50 = percentile(base, 50.0), percentile(change, 50.0)
    worse_by = sign * (c50 - b50) / abs(b50) if b50 else 0.0
    dominated = all(sign * (c - b) < 0 for c in change for b in base)
    noise = spread(list(base)) if len(base) >= 4 else None
    if noise is not None and noise > bound:
        return "better" if dominated else "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > (noise if noise is not None else bound):
        return "better"
    return "unchanged"


def _untraced(session: Dict[str, Any]) -> Dict[str, Dict[str, List[float]]]:
    out: Dict[str, Dict[str, List[float]]] = {}
    for run in session["runs"]:
        if run["trace"] or run["exit"] != 0:
            continue
        per = out.setdefault(run["workload"], {})
        for name, entry in run["metrics"].items():
            per.setdefault(name, []).append(float(entry["value"]))
    return out


def compare_sessions(path_a: str, path_b: str) -> int:
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    base, change = _untraced(a), _untraced(b)
    catalogue = by_name()
    print(f"# A = {path_a} ({a['stamp']})   B = {path_b} ({b['stamp']})")
    print(f"{'workload':14s} {'metric':24s} {'A p50':>12s} {'B p50':>12s} "
          f"{'B vs A':>8s} {'bound':>6s} {'runs':>7s}  verdict")
    worse = 0
    for workload in sorted(set(base) | set(change)):
        for metric in END_TO_END:
            xs = base.get(workload, {}).get(metric.name, [])
            ys = change.get(workload, {}).get(metric.name, [])
            word = verdict(xs, ys, metric.better, metric.bound)
            worse += word == "worse"
            a50 = percentile(xs, 50.0) if xs else float("nan")
            b50 = percentile(ys, 50.0) if ys else float("nan")
            rel = (b50 - a50) / a50 if xs and ys and a50 else float("nan")
            print(f"{workload:14s} {metric.name:24s} {a50:12.4f} {b50:12.4f} "
                  f"{rel:+8.1%} {catalogue[metric.name].bound:6.0%} "
                  f"{len(xs):3d}/{len(ys):<3d}  {word}")
    return 1 if worse else 0
