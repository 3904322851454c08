"""Seeded inputs: the grid policy, the usage history, and the job stream.

Everything the program under test sees is generated here from the workload
file and ``--seed``; the program receives only these inputs.  Sites are
built through the repo's public constructors — not ``build_demo_site``,
whose seeded jobs start at t=0 and end up to ten hours later, leaving
every active user with a histogram bin whose midpoint lies in the future,
which keeps the UMS recomputing every user on every refresh (its "young"
set) and never lets the incremental steady state engage.

Usage history here lies **strictly in the past**: engines start at
``START`` (30 days), history jobs end at least an hour before that, and a
job reported during the run ended at least half a histogram bin before
"now" — the resource manager's reporting delay (paper delay source I) —
so the bin it lands in already has its midpoint behind the clock.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.policy import PolicyTree
from repro.core.usage import UsageHistogram, UsageRecord
from repro.serve.daemon import build_grid_policy

__all__ = ["START", "HISTOGRAM_INTERVAL", "ACTIVE_FRACTION", "PASS_USERS",
           "grid_policy", "site_slices", "history_records",
           "scheduler_accounts", "job_record", "assert_history_in_past"]

#: virtual time every bench-built engine starts at
START = 30 * 86400.0
#: usage histogram bin width (virtual seconds) of every site
HISTOGRAM_INTERVAL = 600.0
#: share of a site's users that hold usage history
ACTIVE_FRACTION = 0.7
#: shortest / longest job (seconds)
JOB_SECONDS = (60, 7200)
#: distinct owners among the pending jobs of one RMS queue pass
PASS_USERS = 1000


def grid_policy(users: int, seed: int) -> PolicyTree:
    """The VO -> project -> user hierarchy every workload shares."""
    return build_grid_policy(users, seed=seed)


def site_slices(policy: PolicyTree, sites: int) -> List[List[str]]:
    """User names per site: leaf *i* (sorted by path) belongs to ``i mod N``."""
    slices: List[List[str]] = [[] for _ in range(sites)]
    for i, path in enumerate(sorted(policy.leaf_paths())):
        slices[i % sites].append(path.rsplit("/", 1)[-1])
    return slices


def history_records(users: Sequence[str], site: str,
                    rng: np.random.Generator, now: float = START
                    ) -> Tuple[List[UsageRecord], List[str], List[str]]:
    """One past job per active user -> (records, active, idle users)."""
    records: List[UsageRecord] = []
    active: List[str] = []
    idle: List[str] = []
    draws = rng.random(len(users))
    for user, draw in zip(users, draws):
        if draw >= ACTIVE_FRACTION:
            idle.append(user)
            continue
        active.append(user)
        duration = float(rng.integers(*JOB_SECONDS))
        end = now - 3600.0 - float(rng.integers(0, 20 * 86400))
        records.append(UsageRecord(user=user, site=site,
                                   start=end - duration, end=end))
    return records, active, idle


def scheduler_accounts(users: Sequence[str], rng: np.random.Generator
                       ) -> Dict[str, str]:
    """The serving site's IRS table: local account -> grid identity, for
    ``PASS_USERS`` users drawn from ``users`` (all of them if fewer)."""
    picks = rng.choice(len(users), size=min(PASS_USERS, len(users)),
                       replace=False)
    return {f"acct{n:05d}": users[int(k)] for n, k in enumerate(picks)}


def job_record(user: str, site: str, now: float,
               rng: np.random.Generator) -> UsageRecord:
    """A job completing now, reported half a bin to a full bin late."""
    lag = HISTOGRAM_INTERVAL * (0.5 + 0.5 * float(rng.random()))
    duration = float(rng.integers(*JOB_SECONDS))
    end = now - lag
    return UsageRecord(user=user, site=site, start=end - duration, end=end)


def assert_history_in_past(histograms: Dict[str, UsageHistogram],
                           now: float) -> None:
    """Validity guard: no bin's midpoint may lie in the future."""
    for owner, hist in histograms.items():
        mids = hist.newest_midpoints()
        if mids and max(mids.values()) > now:
            late = sum(1 for m in mids.values() if m > now)
            raise AssertionError(
                f"workload invalid: {late} users of {owner!r} hold a "
                f"histogram bin whose midpoint is in the future")
