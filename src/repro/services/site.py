"""A full per-site Aequus installation and grid-wide wiring.

Each site participating in the grid runs its own Aequus stack (paper
Figure 2): USS, UMS, PDS, FCS, and IRS.  Sites communicate *only* by
exchanging usage data through their USS services.

Participation modes (Section IV-A.4):

``FULL``
    Publishes local usage to peers and considers remote usage when
    prioritizing — the normal configuration.
``READ_ONLY``
    Reads global usage data but does not contribute its own ("due to
    misconfiguration, local policies, or legislation").
``LOCAL_ONLY``
    Contributes data but only considers local data for job prioritization.
``DISJUNCT``
    Neither receives nor contributes: "disjunct from any other
    installations", with no impact on their operations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from ..core.decay import DecayFunction, ExponentialDecay
from ..core.distance import FairshareParameters
from ..core.policy import PolicyTree
from ..core.projection import make_projection
from ..obs.registry import MetricsRegistry
from ..sim.engine import SimulationEngine
from .fcs import FairshareCalculationService
from .irs import IdentityResolutionService
from .network import Network
from .pds import PolicyDistributionService
from .ums import UsageMonitoringService
from .uss import UsageStatisticsService

__all__ = ["ParticipationMode", "SiteConfig", "AequusSite", "connect_sites"]


class ParticipationMode(enum.Enum):
    FULL = "full"
    READ_ONLY = "read_only"
    LOCAL_ONLY = "local_only"
    DISJUNCT = "disjunct"

    @property
    def publishes(self) -> bool:
        return self in (ParticipationMode.FULL, ParticipationMode.LOCAL_ONLY)

    @property
    def consumes_remote(self) -> bool:
        return self in (ParticipationMode.FULL, ParticipationMode.READ_ONLY)


@dataclass
class SiteConfig:
    """Tunable intervals and algorithm parameters for one installation.

    The four update-delay sources of Section IV-A.2 map to:
    (I) the resource manager's reporting delay — ``rms`` layer;
    (II) cache/refresh times in USS, UMS, FCS — ``uss_exchange_interval``,
    ``ums_refresh_interval``, ``fcs_refresh_interval``;
    (III) the libaequus cache — ``libaequus_cache_ttl``;
    (IV) the re-prioritization interval — ``rms`` layer.
    """

    histogram_interval: float = 60.0
    uss_exchange_interval: float = 30.0
    ums_refresh_interval: float = 30.0
    fcs_refresh_interval: float = 30.0
    pds_refresh_interval: float = 300.0
    libaequus_cache_ttl: float = 15.0
    decay_half_life: float = 7 * 24 * 3600.0
    k: float = 0.5
    resolution: int = 9999
    projection: str = "percental"
    start_offset: float = 0.0

    def decay(self) -> DecayFunction:
        return ExponentialDecay(self.decay_half_life)

    def parameters(self) -> FairshareParameters:
        return FairshareParameters(k=self.k, resolution=self.resolution)


class AequusSite:
    """One site's complete, wired Aequus service stack."""

    def __init__(self, name: str, engine: SimulationEngine, network: Network,
                 policy: PolicyTree,
                 config: Optional[SiteConfig] = None,
                 mode: ParticipationMode = ParticipationMode.FULL,
                 registry: Optional[MetricsRegistry] = None):
        self.name = name
        self.engine = engine
        self.network = network
        self.config = config or SiteConfig()
        self.mode = mode
        #: one registry across USS/UMS/FCS so a single scrape (or the serve
        #: plane's METRICS op) covers the whole stack; sim-time timestamps
        self.registry = registry if registry is not None else MetricsRegistry(
            constant_labels={"site": name}, clock=lambda: engine.now)
        cfg = self.config
        self.uss = UsageStatisticsService(
            name, engine, network,
            histogram_interval=cfg.histogram_interval,
            exchange_interval=cfg.uss_exchange_interval,
            publish=mode.publishes,
            start_offset=cfg.start_offset,
            registry=self.registry,
        )
        self.ums = UsageMonitoringService(
            name, engine, sources=[self.uss],
            decay=cfg.decay(),
            refresh_interval=cfg.ums_refresh_interval,
            consider_remote=mode.consumes_remote,
            start_offset=cfg.start_offset,
            registry=self.registry,
        )
        self.pds = PolicyDistributionService(
            name, engine, policy=policy,
            refresh_interval=cfg.pds_refresh_interval,
            start_offset=cfg.start_offset,
        )
        self.fcs = FairshareCalculationService(
            name, engine, pds=self.pds, ums=self.ums,
            parameters=cfg.parameters(),
            projection=make_projection(cfg.projection),
            refresh_interval=cfg.fcs_refresh_interval,
            start_offset=cfg.start_offset,
            registry=self.registry,
        )
        self.irs = IdentityResolutionService(name)

    def stop(self) -> None:
        self.uss.stop()
        self.ums.stop()
        self.pds.stop()
        self.fcs.stop()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<AequusSite {self.name} mode={self.mode.value}>"


def connect_sites(sites: Iterable[AequusSite]) -> None:
    """Peer every site's USS with every other site's USS (full mesh).

    A DISJUNCT site is left unpeered entirely; READ_ONLY sites are peered so
    they *receive* exchanges (their USS simply never publishes).
    """
    sites = list(sites)
    for a in sites:
        if a.mode is ParticipationMode.DISJUNCT:
            continue
        for b in sites:
            if a is b or b.mode is ParticipationMode.DISJUNCT:
                continue
            a.uss.add_peer(b.name)
