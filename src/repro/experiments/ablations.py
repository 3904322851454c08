"""Ablation studies over the design choices the paper leaves configurable.

The paper states several knobs without evaluating them in depth: the
projection algorithm "is configurable and can be changed during run-time"
(Section III-C, in-depth evaluation "part of our planned future work");
dispatch was tried "both stochastic and round-robin ... without any
noticeable difference"; the fairshare algorithm "can be configured with,
e.g., different usage decay functions"; and libaequus caching
"considerably reduces the amount of network traffic and computations".
These drivers quantify each claim on the simulated test bed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..workload.reference import build_testbed_trace
from .common import ScenarioResult, TestbedConfig, build_testbed, run_scenario

__all__ = [
    "AblationRun",
    "projection_ablation",
    "dispatch_ablation",
    "decay_ablation",
    "cache_ablation",
    "CacheAblationResult",
]


@dataclass
class AblationRun:
    """One arm of an ablation: label plus the scenario result."""

    label: str
    result: ScenarioResult

    @property
    def final_deviation(self) -> float:
        return self.result.series("share_deviation").values[-1]

    @property
    def tail_utilization(self) -> float:
        return self.result.series("utilization").tail_mean(0.5)

    def row(self) -> str:
        conv = self.result.convergence_seconds
        conv_s = f"{conv / 60:.0f} min" if conv is not None else "none"
        return (f"{self.label:<22} deviation={self.final_deviation:.4f}  "
                f"utilization={self.tail_utilization:.1%}  "
                f"convergence={conv_s}")


def _scale(n_jobs, span, n_sites, hosts_per_site, seed):
    return dict(n_jobs=n_jobs, span=span, n_sites=n_sites,
                hosts_per_site=hosts_per_site, seed=seed)


def _run(label: str, config: TestbedConfig, n_jobs: int,
         load: float = 0.95) -> AblationRun:
    total_cores = config.n_sites * config.hosts_per_site
    trace = build_testbed_trace(n_jobs=n_jobs, span=config.span,
                                total_cores=total_cores, load=load,
                                seed=config.seed)
    return AblationRun(label, run_scenario(label, trace, config))


def projection_ablation(n_jobs: int = 6000, span: float = 3600.0,
                        n_sites: int = 2, hosts_per_site: int = 20,
                        seed: int = 3) -> List[AblationRun]:
    """Baseline scenario under each projection algorithm.

    Expectation: all three converge (ordering is what steers scheduling);
    the percental projection is the production configuration.
    """
    runs = []
    for projection in ("percental", "dictionary", "bitwise"):
        config = TestbedConfig(span=span, seed=seed, n_sites=n_sites,
                               hosts_per_site=hosts_per_site)
        config.site_config.projection = projection
        runs.append(_run(f"projection={projection}", config, n_jobs))
    return runs


def dispatch_ablation(n_jobs: int = 6000, span: float = 3600.0,
                      n_sites: int = 2, hosts_per_site: int = 20,
                      seed: int = 3) -> List[AblationRun]:
    """Stochastic vs round-robin dispatch — the paper found no noticeable
    difference."""
    runs = []
    for dispatch in ("stochastic", "round_robin"):
        config = TestbedConfig(span=span, seed=seed, n_sites=n_sites,
                               hosts_per_site=hosts_per_site,
                               dispatch=dispatch)
        runs.append(_run(f"dispatch={dispatch}", config, n_jobs))
    return runs


def decay_ablation(n_jobs: int = 6000, span: float = 3600.0,
                   n_sites: int = 2, hosts_per_site: int = 20,
                   seed: int = 3,
                   half_lives: Optional[List[float]] = None) -> List[AblationRun]:
    """Sensitivity to the usage-decay half-life.

    Shorter memory makes the system react faster but fluctuate more; a very
    long memory slows re-convergence after imbalance.  All settings must
    still converge — the "parameterized algorithm" claim.
    """
    runs = []
    for half_life in half_lives or (span / 12, span / 3, span * 3):
        config = TestbedConfig(span=span, seed=seed, n_sites=n_sites,
                               hosts_per_site=hosts_per_site)
        config.site_config.decay_half_life = half_life
        runs.append(_run(f"half_life={half_life:.0f}s", config, n_jobs))
    return runs


@dataclass
class CacheAblationResult:
    ttl: float
    fairshare_calls: int
    cache_hit_rate: float
    fcs_lookups: int
    final_deviation: float

    def row(self) -> str:
        return (f"ttl={self.ttl:>5.1f}s  libaequus calls={self.fairshare_calls:>7} "
                f"hit rate={self.cache_hit_rate:>6.1%}  "
                f"FCS lookups={self.fcs_lookups:>7}  "
                f"deviation={self.final_deviation:.4f}")


def cache_ablation(n_jobs: int = 6000, span: float = 3600.0,
                   n_sites: int = 2, hosts_per_site: int = 20,
                   seed: int = 3,
                   ttls: Optional[List[float]] = None) -> List[CacheAblationResult]:
    """libaequus caching on vs off.

    The paper: cached values "considerably reduce the amount of network
    traffic and computations required when batches of jobs are submitted
    and processed at the same time".  We measure FCS lookups absorbed by
    the cache while checking the scheduling outcome is unchanged.
    """
    out = []
    total_cores = n_sites * hosts_per_site
    for ttl in ttls if ttls is not None else (0.0, 15.0, 60.0):
        config = TestbedConfig(span=span, seed=seed, n_sites=n_sites,
                               hosts_per_site=hosts_per_site)
        config.site_config.libaequus_cache_ttl = ttl
        testbed = build_testbed(config)
        trace = build_testbed_trace(n_jobs=n_jobs, span=span,
                                    total_cores=total_cores, load=0.95,
                                    seed=seed)
        testbed.host.schedule_trace(trace)
        testbed.engine.run_until(span)
        calls = sum(lib.fairshare_calls for lib in testbed.libs)
        hits = sum(lib.fairshare_cache_stats.hits for lib in testbed.libs)
        misses = sum(lib.fairshare_cache_stats.misses for lib in testbed.libs)
        out.append(CacheAblationResult(
            ttl=ttl,
            fairshare_calls=calls,
            cache_hit_rate=hits / max(1, hits + misses),
            fcs_lookups=misses,
            final_deviation=testbed.metrics["share_deviation"].values[-1],
        ))
        testbed.stop()
    return out
