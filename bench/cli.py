"""Command line of the benchmark."""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .metrics import by_name
from .run import RunResult, WorkloadInvalid, run_workload
from .session import compare_sessions, run_session
from .spec import workload_names

#: measured seconds of one run; BENCHMARK.json's run_seconds
RUN_SECONDS = 15.0


def _print_run(res: RunResult) -> None:
    catalogue = by_name()
    mode = "traced (per-layer)" if res.trace else "untraced (end-to-end)"
    print(f"# {res.workload} seed={res.seed} seconds={res.seconds:g} {mode}")
    for key, note in res.notes.items():
        print(f"#   {key}: {note}")
    for name, entry in res.metrics().items():
        meta = catalogue[name]
        if name in res.not_applicable:
            print(f"{name:32s} {'n/a':>14s} {entry['unit']:6s}"
                  f" (no such layer on a {res.system} system)")
            continue
        bound = f" bound {meta.bound:.0%}" if meta.bound is not None else ""
        print(f"{name:32s} {entry['value']:14.4f} {entry['unit']:6s}"
              f" ({meta.better} is better{bound})")
    for name, summary in res.summaries.items():
        if summary.get("n"):
            tail = f" p{summary['tail_q']:g}={summary['tail']:.4g}" \
                if "tail" in summary else ""
            print(f"#   {name}: n={summary['n']} p50={summary['p50']:.4g} "
                  f"q1={summary['q1']:.4g} q3={summary['q3']:.4g} "
                  f"min={summary['min']:.4g} max={summary['max']:.4g}{tail}")
    if res.table:
        print("#   where the time goes (self time per layer, traced updates):")
        for row in res.table:
            print(f"#     {row['name']:20s} {row['share']:6.1%} "
                  f"{1e3 * row['self_s'] / max(1, row['count']):10.3f} ms/call"
                  f"  x{row['count']}")
    for problem in res.problems:
        print(f"#   FAILED: {problem}")


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python3 -m bench",
        description="Aequus end-to-end benchmark (see bench/README.md). "
                    "With --workload: one run, result as the last line. "
                    "Without: a session over every workload.")
    ap.add_argument("--workload", choices=workload_names(),
                    help="run this workload once (the driver's contract)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help=f"measured seconds per run (default {RUN_SECONDS})")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: benchmark spans on, per-layer metrics out")
    ap.add_argument("--setup-repeats", type=int, default=None,
                    help="times the system is built for setup_s's median")
    ap.add_argument("--runs", type=int, default=1,
                    help="session: untraced runs per workload (seeds "
                         "seed..seed+runs-1)")
    ap.add_argument("--quick", action="store_true",
                    help="session at 1/10 length, one set-up per run, "
                         "nothing appended to the history")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                    help="compare two session files against the bounds")
    args = ap.parse_args(argv)
    if args.compare:
        return compare_sessions(*args.compare)
    seconds = args.seconds or RUN_SECONDS
    if args.workload is None:
        if args.quick:
            return run_session(seconds / 10.0, 1, args.seed, setup_repeats=1,
                               record_history=False)
        return run_session(seconds, args.runs, args.seed,
                           setup_repeats=args.setup_repeats)
    try:
        res = run_workload(args.workload, args.seed, seconds,
                           bool(args.trace), args.setup_repeats)
        last = res.last_line()
    except WorkloadInvalid as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 3
    _print_run(res)
    print(last)
    return 0
