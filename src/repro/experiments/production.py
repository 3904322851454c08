"""Production-deployment experiment (paper Section IV, opening).

Aequus ran alongside SLURM 2.4.3 at HPC2N on a 68-node cluster with dual
quad-core Xeons (544 cores) from the start of 2013, executing about 40,000
jobs per month: "the system has shown to be stable and the transition from
using local fairshare to global fairshare as performed by Aequus has had no
noticeable impact on the performance or the stability of the cluster."

We reproduce the measurable half of that claim: a single production-scale
cluster driven for simulated months through the full Aequus stack, checking

* throughput holds at the expected jobs/month level,
* no user starves (every user keeps completing jobs in every period),
* fairshare priorities stay within bounds and keep responding to usage, and
* switching from local fairshare to Aequus changes per-user shares only
  marginally (the "no noticeable impact" claim), since the local policy
  equals the global one for a single site.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..client.libaequus import LibAequus
from ..core.policy import PolicyTree
from ..rms.cluster import Cluster
from ..rms.plugins import LocalFairsharePlugin
from ..rms.priority import FactorWeights
from ..rms.slurm import SlurmScheduler
from ..services.network import Network
from ..services.site import AequusSite, SiteConfig
from ..sim.engine import SimulationEngine
from ..workload.reference import GRID_IDENTITIES, USAGE_SHARES, build_production_trace
from ..workload.trace import Trace

__all__ = ["ProductionResult", "run_production", "run_production_comparison"]

DAY = 86400.0
MONTH = 30.0 * DAY


@dataclass
class ProductionResult:
    months: float
    jobs_submitted: int
    jobs_completed: int
    jobs_per_month: float
    mean_utilization: float
    per_user_shares: Dict[str, float]
    monthly_completions: List[Dict[str, int]]
    priority_bounds: Dict[str, tuple]

    def starvation_free(self) -> bool:
        """Every user completes jobs in every month of the run."""
        return all(all(count > 0 for count in month.values())
                   for month in self.monthly_completions)

    def summary_rows(self) -> List[str]:
        rows = [
            f"{self.months:.0f} months simulated on 544 cores",
            f"jobs/month: {self.jobs_per_month:.0f} (paper: ~40,000)",
            f"mean utilization: {self.mean_utilization:.1%}",
            f"starvation-free: {self.starvation_free()}",
        ]
        for user, (lo, hi) in sorted(self.priority_bounds.items()):
            rows.append(f"  {user}: priority range [{lo:.3f}, {hi:.3f}]")
        return rows


def _build_single_site(engine: SimulationEngine, use_aequus: bool,
                       n_nodes: int = 68, cores_per_node: int = 8):
    """One production cluster, either Aequus-integrated or local-fairshare."""
    network = Network(engine, base_latency=0.05)
    policy = PolicyTree()
    for user, share in USAGE_SHARES.items():
        policy.set_share(f"/{user}", share)
    config = SiteConfig(
        histogram_interval=3600.0,
        uss_exchange_interval=600.0,
        ums_refresh_interval=600.0,
        fcs_refresh_interval=600.0,
        libaequus_cache_ttl=120.0,
        decay_half_life=7 * DAY,
    )
    site = AequusSite("hpc2n", engine, network, policy=policy, config=config)
    for user, dn in GRID_IDENTITIES.items():
        site.fcs.register_identity(dn, user)
        site.irs.store_mapping(f"sys_{user.lower()}", dn)
    cluster = Cluster("hpc2n", n_nodes=n_nodes, cores_per_node=cores_per_node)
    sched = SlurmScheduler("hpc2n", engine, cluster,
                           weights=FactorWeights(fairshare=1.0),
                           sched_interval=30.0,
                           reprioritize_interval=300.0)
    if use_aequus:
        lib = LibAequus.for_site(site)
        sched.integrate_aequus(lib)
    else:
        local = LocalFairsharePlugin(
            shares={f"sys_{u.lower()}": s for u, s in USAGE_SHARES.items()},
            half_life=7 * DAY)
        sched.register_priority_plugin(local)
        sched.register_completion_plugin(local)
    return site, sched


def _submit(trace: Trace, sched: SlurmScheduler, engine: SimulationEngine) -> None:
    from ..rms.job import Job

    identity_to_user = {dn: f"sys_{u.lower()}" for u, dn in GRID_IDENTITIES.items()}
    for tj in trace:
        user = identity_to_user.get(tj.user, tj.user)
        engine.schedule_at(tj.submit, lambda tj=tj, user=user: sched.submit(
            Job(system_user=user, duration=tj.duration, cores=tj.cores)))


def run_production(months: float = 3.0, seed: int = 0,
                   use_aequus: bool = True,
                   jobs_per_month: int = 40_000) -> ProductionResult:
    """Run the production-scale stability experiment."""
    engine = SimulationEngine()
    site, sched = _build_single_site(engine, use_aequus=use_aequus)
    trace = build_production_trace(months=months, seed=seed,
                                   jobs_per_month=jobs_per_month)
    _submit(trace, sched, engine)
    span = months * MONTH

    n_months = max(1, int(months + 0.999))
    monthly: List[Dict[str, int]] = [dict() for _ in range(n_months)]
    reverse = {f"sys_{u.lower()}": GRID_IDENTITIES[u] for u in USAGE_SHARES}

    def on_complete(job, now):
        month = min(int(now // MONTH), len(monthly) - 1)
        identity = reverse.get(job.system_user, job.system_user)
        monthly[month][identity] = monthly[month].get(identity, 0) + 1

    sched.add_completion_hook(on_complete)

    prio_bounds: Dict[str, List[float]] = {u: [1.0, 0.0] for u in USAGE_SHARES}

    def sample():
        for user in USAGE_SHARES:
            p = site.fcs.priority(GRID_IDENTITIES[user])
            prio_bounds[user][0] = min(prio_bounds[user][0], p)
            prio_bounds[user][1] = max(prio_bounds[user][1], p)

    engine.periodic(3600.0, sample, start_offset=3600.0)
    engine.run_until(span)

    usage: Dict[str, float] = {}
    for job in sched.completed:
        identity = reverse.get(job.system_user, job.system_user)
        usage[identity] = usage.get(identity, 0.0) + job.charge
    total = sum(usage.values()) or 1.0
    shares = {u: usage.get(GRID_IDENTITIES[u], 0.0) / total
              for u in USAGE_SHARES}
    site.stop()
    sched.stop()
    return ProductionResult(
        months=months,
        jobs_submitted=sched.jobs_submitted,
        jobs_completed=sched.jobs_completed,
        jobs_per_month=sched.jobs_completed / months,
        mean_utilization=sched.cluster.utilization(engine.now),
        per_user_shares=shares,
        monthly_completions=monthly,
        priority_bounds={u: (lo, hi) for u, (lo, hi) in prio_bounds.items()},
    )


def run_production_comparison(months: float = 2.0, seed: int = 0,
                              jobs_per_month: int = 40_000) -> Dict[str, ProductionResult]:
    """Local-fairshare vs Aequus on the same workload.

    The transition claim: moving from local to global fairshare on a single
    cluster should have "no noticeable impact" — per-user shares and
    throughput must agree closely (for one site, the global view *is* the
    local view, modulo update delays).
    """
    return {
        "local": run_production(months=months, seed=seed, use_aequus=False,
                                jobs_per_month=jobs_per_month),
        "aequus": run_production(months=months, seed=seed, use_aequus=True,
                                 jobs_per_month=jobs_per_month),
    }
