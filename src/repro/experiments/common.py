"""Shared test-bed construction and scenario execution (paper Section IV-A).

The national-grid test bed: "six of the hosts are configured to represent
one cluster with 40 virtual hosts each for a total of 240 hosts,
corresponding roughly to 10% of the national grid capacity ...  Each of the
simulated clusters hosts its own Aequus installation, and they communicate
only by exchanging data through the USS services ...  A unified name
resolution service used by all clusters is co-hosted on the job submission
host."  Fairshare is the only scheduling factor; the percental projection
is used (the production configuration).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from ..client.libaequus import LibAequus
from ..core.policy import PolicyTree
from ..obs.evaluate import convergence_time, share_deviation
from ..obs.timeseries import RingSeries, SeriesStore
from ..rms.cluster import Cluster
from ..rms.maui import MauiScheduler, MauiWeights
from ..rms.priority import FactorWeights
from ..rms.scheduler import BaseScheduler
from ..rms.slurm import SlurmScheduler
from ..services.network import Network
from ..services.site import AequusSite, ParticipationMode, SiteConfig, connect_sites
from ..sim.engine import SimulationEngine
from ..sim.grid import GridIdentityMapper, GridSubmissionHost
from ..sim.random import RandomStreams
from ..workload.reference import GRID_IDENTITIES, USAGE_SHARES
from ..workload.trace import Trace

__all__ = ["TestbedConfig", "Testbed", "ScenarioResult", "build_testbed",
           "run_scenario"]

#: A leaf name per grid identity (DNs cannot be tree node names).
LEAF_FOR_IDENTITY = {dn: name for name, dn in GRID_IDENTITIES.items()}


@dataclass
class TestbedConfig:
    """Everything that defines one evaluation run."""

    n_sites: int = 6
    hosts_per_site: int = 40
    cores_per_host: int = 1
    span: float = 21_600.0
    #: target policy share per grid identity; defaults to the workload's
    #: actual usage shares ("the actual share from the workloads are used
    #: as targets for most of the tests").
    policy_targets: Optional[Dict[str, float]] = None
    site_config: SiteConfig = field(default_factory=lambda: SiteConfig(
        histogram_interval=60.0,
        uss_exchange_interval=30.0,
        ums_refresh_interval=30.0,
        fcs_refresh_interval=30.0,
        pds_refresh_interval=600.0,
        libaequus_cache_ttl=15.0,
        decay_half_life=7_200.0,
        projection="percental",
    ))
    participation: Dict[str, ParticipationMode] = field(default_factory=dict)
    weights: FactorWeights = field(default_factory=lambda: FactorWeights(fairshare=1.0))
    #: which resource manager runs each cluster: "slurm", "maui", or
    #: "mixed" (alternating) — grids are heterogeneous by nature, and the
    #: whole point of Aequus is that prioritization stays consistent across
    #: different underlying scheduler systems (paper Section I)
    rms: str = "slurm"
    dispatch: str = "stochastic"
    sched_interval: float = 5.0
    reprioritize_interval: float = 30.0
    report_delay: float = 2.0
    sample_interval: float = 60.0
    network_latency: float = 0.1
    seed: int = 0

    def site_names(self) -> List[str]:
        return [f"site{i + 1}" for i in range(self.n_sites)]

    def targets(self) -> Dict[str, float]:
        return dict(self.policy_targets
                    or {GRID_IDENTITIES[u]: s for u, s in USAGE_SHARES.items()})


@dataclass
class Testbed:
    """Live handles of a constructed test bed."""

    config: TestbedConfig
    engine: SimulationEngine
    network: Network
    sites: List[AequusSite]
    schedulers: List[BaseScheduler]
    libs: List[LibAequus]
    host: GridSubmissionHost
    metrics: SeriesStore
    usage_by_identity: Dict[str, float] = field(default_factory=dict)

    def stop(self) -> None:
        for site in self.sites:
            site.stop()
        for sched in self.schedulers:
            sched.stop()


def _policy_for_targets(targets: Mapping[str, float]) -> PolicyTree:
    """Flat policy tree: one leaf per identity, weights = target shares."""
    tree = PolicyTree()
    for identity, share in targets.items():
        leaf = LEAF_FOR_IDENTITY.get(identity, identity.rsplit("=", 1)[-1])
        tree.set_share(f"/{leaf}", share)
    return tree


def build_testbed(config: TestbedConfig) -> Testbed:
    """Construct the full multi-site test bed on a fresh engine."""
    streams = RandomStreams(config.seed)
    engine = SimulationEngine()
    network = Network(engine, base_latency=config.network_latency,
                      jitter=config.network_latency / 2,
                      rng=streams.stream("network"))
    targets = config.targets()
    mapper = GridIdentityMapper()
    sites: List[AequusSite] = []
    schedulers: List[BaseScheduler] = []
    libs: List[LibAequus] = []
    metrics = SeriesStore(capacity=None)  # every sample of the run
    for i, name in enumerate(config.site_names()):
        mode = config.participation.get(name, ParticipationMode.FULL)
        # de-phase service loops across sites, as in a real deployment
        site_cfg = SiteConfig(**{**config.site_config.__dict__,
                                 "start_offset": 0.37 * (i + 1)})
        site = AequusSite(name, engine, network,
                          policy=_policy_for_targets(targets),
                          config=site_cfg, mode=mode)
        for identity in targets:
            leaf = LEAF_FOR_IDENTITY.get(identity, identity.rsplit("=", 1)[-1])
            site.fcs.register_identity(identity, leaf)
        mapper.register_with(site.irs, name)
        cluster = Cluster(name, n_nodes=config.hosts_per_site,
                          cores_per_node=config.cores_per_host)
        lib = LibAequus.for_site(site, report_delay=config.report_delay)
        kind = config.rms
        if kind == "mixed":
            kind = "slurm" if i % 2 == 0 else "maui"
        if kind == "slurm":
            sched = SlurmScheduler(
                name, engine, cluster,
                weights=config.weights,
                sched_interval=config.sched_interval,
                reprioritize_interval=config.reprioritize_interval,
                start_offset=0.11 * (i + 1))
            sched.integrate_aequus(lib)
        elif kind == "maui":
            sched = MauiScheduler(
                name, engine, cluster,
                weights=MauiWeights(fairshare=config.weights.fairshare,
                                    queuetime=config.weights.age),
                sched_interval=config.sched_interval,
                reprioritize_interval=config.reprioritize_interval,
                start_offset=0.11 * (i + 1))
            sched.apply_aequus_patch(lib)
        else:
            raise ValueError(f"unknown rms kind {config.rms!r}")
        sites.append(site)
        schedulers.append(sched)
        libs.append(lib)
    connect_sites(sites)
    host = GridSubmissionHost(engine, schedulers, mapper=mapper,
                              dispatch=config.dispatch,
                              rng=streams.stream("dispatch"))
    testbed = Testbed(config=config, engine=engine, network=network,
                      sites=sites, schedulers=schedulers, libs=libs,
                      host=host, metrics=metrics)
    _install_sampler(testbed, targets)
    return testbed


def _install_sampler(testbed: Testbed, targets: Mapping[str, float]) -> None:
    """Periodic metric sampling: usage shares, priorities, utilization."""
    cfg = testbed.config
    engine = testbed.engine
    identities = list(targets)

    # cumulative completed usage per grid identity, fed by completion hooks
    for site, sched in zip(testbed.sites, testbed.schedulers):
        def hook(job, now, site=site):
            identity = site.irs.resolve(job.system_user)
            testbed.usage_by_identity[identity] = (
                testbed.usage_by_identity.get(identity, 0.0) + job.charge)
        sched.add_completion_hook(hook)

    def current_shares() -> Dict[str, float]:
        """Instantaneous cumulative usage shares incl. in-flight runtime."""
        usage = dict(testbed.usage_by_identity)
        now = engine.now
        for site, sched in zip(testbed.sites, testbed.schedulers):
            for job in sched.running:
                identity = site.irs.resolve(job.system_user)
                usage[identity] = usage.get(identity, 0.0) + \
                    (now - job.start_time) * job.cores
        total = sum(usage.values())
        if total <= 0:
            return {i: 0.0 for i in identities}
        return {i: usage.get(i, 0.0) / total for i in identities}

    # a site with the global usage view, for the decayed-share series
    global_view_site = next(
        (s for s in testbed.sites if s.mode.consumes_remote), testbed.sites[0])

    def decayed_shares() -> Dict[str, float]:
        """Usage shares as the fairshare algorithm sees them (decayed)."""
        totals = global_view_site.ums.usage_totals()
        total = sum(totals.values())
        if total <= 0:
            return {i: 0.0 for i in identities}
        return {i: totals.get(i, 0.0) / total for i in identities}

    def sample() -> None:
        now = engine.now
        shares = current_shares()
        testbed.metrics.sample_many("usage_share", now, shares)
        testbed.metrics.sample(
            "share_deviation", now, share_deviation(shares, targets))
        dshares = decayed_shares()
        testbed.metrics.sample_many("decayed_share", now, dshares)
        testbed.metrics.sample(
            "decayed_deviation", now, share_deviation(dshares, targets))
        busy = sum(s.cluster.busy_cores for s in testbed.schedulers)
        total = sum(s.cluster.total_cores for s in testbed.schedulers)
        testbed.metrics.sample("utilization", now, busy / total)
        queued = sum(s.queue_length for s in testbed.schedulers)
        testbed.metrics.sample("queue_length", now, queued)
        for site in testbed.sites:
            for identity in identities:
                testbed.metrics.sample(
                    f"priority/{site.name}/{identity}", now,
                    site.fcs.priority(identity))
        # grid-mean priority per identity (the paper's per-user priority plot)
        for identity in identities:
            values = [site.fcs.priority(identity) for site in testbed.sites]
            testbed.metrics.sample(f"priority/{identity}", now,
                                   sum(values) / len(values))

    engine.periodic(cfg.sample_interval, sample, start_offset=cfg.sample_interval)


@dataclass
class ScenarioResult:
    """Outcome of one evaluation run: series plus headline numbers."""

    name: str
    config: TestbedConfig
    metrics: SeriesStore
    targets: Dict[str, float]
    jobs_submitted: int
    jobs_completed: int
    final_shares: Dict[str, float]
    mean_utilization: float
    throughput_per_minute: float
    peak_submission_rate: float
    convergence_seconds: Optional[float]
    #: convergence of the *decayed* usage-share deviation — the quantity the
    #: fairshare loop directly controls; a much less noisy convergence
    #: signal than the cumulative shares (used by the Figure 11 comparison)
    decayed_convergence_seconds: Optional[float] = None

    def series(self, name: str) -> RingSeries:
        return self.metrics[name]

    def priority_series(self, identity: str, site: Optional[str] = None) -> RingSeries:
        key = f"priority/{site}/{identity}" if site else f"priority/{identity}"
        return self.metrics[key]

    def usage_share_series(self, identity: str) -> RingSeries:
        return self.metrics[f"usage_share/{identity}"]

    def summary_rows(self) -> List[str]:
        rows = [
            f"jobs submitted/completed: {self.jobs_submitted}/{self.jobs_completed}",
            f"mean utilization: {self.mean_utilization:.1%}",
            f"throughput: {self.throughput_per_minute:.0f} jobs/min "
            f"(peak {self.peak_submission_rate:.0f})",
        ]
        if self.convergence_seconds is not None:
            rows.append(f"share convergence at {self.convergence_seconds / 60:.0f} min")
        else:
            rows.append("shares did not converge within the run")
        for identity in sorted(self.targets):
            label = LEAF_FOR_IDENTITY.get(identity, identity)
            rows.append(
                f"  {label}: final usage share {self.final_shares.get(identity, 0.0):.3f}"
                f" vs target {self.targets[identity]:.3f}")
        return rows


def run_scenario(name: str, trace: Trace, config: TestbedConfig,
                 convergence_threshold: float = 0.02,
                 drain: bool = False) -> ScenarioResult:
    """Build the test bed, replay ``trace``, and collect results.

    The run stops at ``config.span`` like the paper's six-hour tests unless
    ``drain`` asks to let the queues empty.
    """
    testbed = build_testbed(config)
    testbed.host.schedule_trace(trace)
    testbed.engine.run_until(config.span)
    if drain:
        # periodic service tasks keep the event heap non-empty forever, so
        # draining advances the horizon until the queues are actually empty
        horizon = config.span
        limit = config.span * 10
        while horizon < limit and any(
                s.queue_length > 0 or s.running for s in testbed.schedulers):
            horizon += max(config.sample_interval, config.span * 0.05)
            testbed.engine.run_until(horizon)
    submitted = sum(s.jobs_submitted for s in testbed.schedulers)
    completed = sum(s.jobs_completed for s in testbed.schedulers)
    busy = sum(s.cluster.busy_core_seconds(testbed.engine.now)
               for s in testbed.schedulers)
    total_capacity = sum(s.cluster.total_cores for s in testbed.schedulers) * \
        testbed.engine.now
    targets = config.targets()
    shares_now = {i: testbed.metrics[f"usage_share/{i}"].values[-1]
                  for i in targets if f"usage_share/{i}" in testbed.metrics}
    conv = convergence_time(testbed.metrics["share_deviation"],
                            convergence_threshold, hold=5 * config.sample_interval)
    dconv = convergence_time(testbed.metrics["decayed_deviation"],
                             0.05, hold=5 * config.sample_interval)
    result = ScenarioResult(
        name=name,
        config=config,
        metrics=testbed.metrics,
        targets=targets,
        jobs_submitted=submitted,
        jobs_completed=completed,
        final_shares=shares_now,
        mean_utilization=busy / total_capacity if total_capacity else 0.0,
        throughput_per_minute=completed / (testbed.engine.now / 60.0)
        if testbed.engine.now > 0 else 0.0,
        peak_submission_rate=trace.peak_submission_rate(60.0),
        convergence_seconds=conv,
        decayed_convergence_seconds=dconv,
    )
    testbed.stop()
    return result
