"""Run-time policy change adaptation (paper Section II-A).

"Previous work has shown the stability of the algorithm and its ability to
isolate subgroups and adapt to events such as changing policies during
run-time."  The PDS supports replacing the policy while the system runs;
the FCS picks the new tree up on its next refresh and priorities re-steer
scheduling toward the new targets with no restart.

The experiment runs the baseline workload, swaps the policy mid-run (U65's
and U30's entitlements are exchanged), and measures:

* the priority *crossover*: U30 — suddenly underserved against its new
  large target — must out-prioritize U65 right after the switch;
* re-convergence: the decayed usage shares move toward the new targets in
  the second half (to the extent the fixed workload mix allows).

A second driver exercises *dynamic sub-policy mounting* on the live grid:
a remotely administered VO subtree is mounted into every site's policy
mid-run, and the new users start being prioritized without any restart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..core.policy import PolicyTree
from ..obs.evaluate import share_deviation
from ..workload.reference import GRID_IDENTITIES, USAGE_SHARES, build_testbed_trace
from .common import LEAF_FOR_IDENTITY, TestbedConfig, Testbed, build_testbed

__all__ = ["PolicyChangeResult", "runtime_policy_change", "runtime_mount"]


@dataclass
class PolicyChangeResult:
    switch_time: float
    span: float
    #: per-user FCS priority just before / just after the switch settles
    priorities_before: Dict[str, float]
    priorities_after: Dict[str, float]
    #: decayed-share deviation vs the NEW targets, sampled over time
    deviation_times: List[float]
    deviation_values: List[float]
    #: decayed usage shares per user at the switch and at the end
    shares_at_switch: Dict[str, float]
    shares_at_end: Dict[str, float]
    jobs_completed: int

    def deviation_at_switch(self) -> float:
        return next(v for t, v in zip(self.deviation_times, self.deviation_values)
                    if t >= self.switch_time)

    def final_deviation(self) -> float:
        return self.deviation_values[-1]

    def rows(self) -> List[str]:
        rows = [f"policy switched at {self.switch_time / 60:.0f} min "
                f"of {self.span / 60:.0f}"]
        for user in sorted(self.priorities_before):
            rows.append(f"  {user:<5} priority {self.priorities_before[user]:.3f}"
                        f" -> {self.priorities_after[user]:.3f}")
        for user in sorted(self.shares_at_switch):
            rows.append(
                f"  {user:<5} decayed share {self.shares_at_switch[user]:.3f}"
                f" -> {self.shares_at_end[user]:.3f}")
        rows.append(f"deviation vs new targets: {self.deviation_at_switch():.3f}"
                    f" at switch -> {self.final_deviation():.3f} at end")
        return rows


def _swapped_targets() -> Dict[str, float]:
    targets = {GRID_IDENTITIES[u]: s for u, s in USAGE_SHARES.items()}
    u65, u30 = GRID_IDENTITIES["U65"], GRID_IDENTITIES["U30"]
    targets[u65], targets[u30] = targets[u30], targets[u65]
    return targets


def _policy_for(targets: Dict[str, float]) -> PolicyTree:
    tree = PolicyTree()
    for identity, share in targets.items():
        tree.set_share(f"/{LEAF_FOR_IDENTITY[identity]}", share)
    return tree


def runtime_policy_change(n_jobs: int = 6000, span: float = 7200.0,
                          n_sites: int = 2, hosts_per_site: int = 20,
                          seed: int = 3,
                          load: float = 1.25) -> PolicyChangeResult:
    """Swap U65's and U30's entitlements halfway through a baseline run.

    The workload is over-subscribed (default 125% of capacity): priorities
    only move usage shares when the schedulers face a backlog and must
    choose — at the paper's 95% load every job runs eventually and the
    share response to a policy change is invisible.
    """
    config = TestbedConfig(span=span, seed=seed, n_sites=n_sites,
                           hosts_per_site=hosts_per_site)
    testbed = build_testbed(config)
    trace = build_testbed_trace(n_jobs=n_jobs, span=span,
                                total_cores=n_sites * hosts_per_site,
                                load=load, seed=seed)
    testbed.host.schedule_trace(trace)

    switch_time = span / 2.0
    new_targets = _swapped_targets()

    testbed.engine.run_until(switch_time)
    priorities_before = {u: testbed.sites[0].fcs.priority(dn)
                         for u, dn in GRID_IDENTITIES.items()}
    for site in testbed.sites:
        # run-time policy replacement through the PDS, per site admin
        site.pds.set_policy(_policy_for(new_targets))
    # let one FCS refresh cycle pass so the new tree is in effect
    settle = config.site_config.fcs_refresh_interval + \
        config.site_config.ums_refresh_interval + 1.0
    testbed.engine.run_until(switch_time + settle)
    priorities_after = {u: testbed.sites[0].fcs.priority(dn)
                        for u, dn in GRID_IDENTITIES.items()}
    testbed.engine.run_until(span)

    # deviation vs the new targets, over the whole run (pre-switch samples
    # show how far from the new policy the system was)
    dev_t, dev_v = [], []
    series = {dn: testbed.metrics[f"decayed_share/{dn}"]
              for dn in new_targets}
    times = next(iter(series.values())).times
    for i, t in enumerate(times):
        shares = {dn: s.values[i] for dn, s in series.items()}
        dev_t.append(t)
        dev_v.append(share_deviation(shares, new_targets))
    reverse = {dn: u for u, dn in GRID_IDENTITIES.items()}
    shares_at_switch = {reverse[dn]: s.at(switch_time)
                        for dn, s in series.items()}
    shares_at_end = {reverse[dn]: s.values[-1] for dn, s in series.items()}
    completed = sum(s.jobs_completed for s in testbed.schedulers)
    testbed.stop()
    return PolicyChangeResult(
        switch_time=switch_time, span=span,
        priorities_before=priorities_before,
        priorities_after=priorities_after,
        deviation_times=dev_t, deviation_values=dev_v,
        shares_at_switch=shares_at_switch,
        shares_at_end=shares_at_end,
        jobs_completed=completed,
    )


def runtime_mount(span: float = 1800.0, seed: int = 3) -> Dict[str, float]:
    """Mount a remote VO sub-policy into a live site and watch it take.

    Returns the FCS values for the newly mounted users after one refresh —
    present and ordered by their mounted weights, without any restart.
    """
    config = TestbedConfig(span=span, seed=seed, n_sites=1, hosts_per_site=4)
    testbed = build_testbed(config)
    testbed.engine.run_until(span / 3)
    site = testbed.sites[0]
    vo_policy = PolicyTree.from_dict({"climate": 3, "physics": 1})
    site.pds.policy().set_share("/VO", 0.5)
    site.pds.policy().mount("/VO", vo_policy, source="vo-pds")
    settle = config.site_config.fcs_refresh_interval + 1.0
    testbed.engine.run_until(span / 3 + settle)
    values = {path: value for path, value in site.fcs.values().items()
              if path.startswith("/VO/")}
    testbed.stop()
    return values
