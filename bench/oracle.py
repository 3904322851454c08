"""The sim-plane oracle for the chain workloads.

Every usage record the chain run fed its two TCP-connected sites is
replayed into the repo's own reference plane: one engine, one in-process
:class:`~repro.services.network.Network` bus, the same two sites on the
services' ordinary periodic schedule.  Priorities are invariant to *when*
they are computed (exponential decay scales every user alike), so once
both planes hold the same records, every leaf must be served the same
value — to 1e-6, the tolerance of the repo's own lock-step equivalence
test.  Runs after the timed phases.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from repro.core.usage import UsageRecord
from repro.services.network import Network
from repro.services.site import AequusSite, SiteConfig, connect_sites
from repro.sim.engine import SimulationEngine

from . import sitegen
from .spec import WorkloadSpec

__all__ = ["replay", "compare"]

TOLERANCE = 1e-6


def replay(spec: WorkloadSpec, seed: int, records: Iterable[UsageRecord],
           now: float) -> Dict[str, float]:
    """Leaf path -> priority at s1 of a sim plane holding ``records``."""
    engine = SimulationEngine(start_time=now)
    network = Network(engine, base_latency=0.001)
    policy = sitegen.grid_policy(spec.users, seed)
    config = SiteConfig(histogram_interval=sitegen.HISTOGRAM_INTERVAL,
                        uss_exchange_interval=spec.exchange_interval,
                        ums_refresh_interval=spec.refresh_interval,
                        fcs_refresh_interval=spec.refresh_interval)
    sites = {name: AequusSite(name, engine, network, policy=policy,
                              config=config) for name in ("s0", "s1")}
    connect_sites(sites.values())
    for record in records:
        sites[record.site].uss.record_job(record)
    # exchange, apply, refresh — twice over, so both full snapshots landed
    engine.run_until(now + 4 * max(spec.exchange_interval,
                                   spec.refresh_interval) + 1.0)
    values = dict(sites["s1"].fcs.values_view())
    for site in sites.values():
        site.stop()
    return values


def compare(served: Dict[str, float], reference: Dict[str, float]
            ) -> Tuple[int, int, float]:
    """(leaves compared, leaves off by more than TOLERANCE, worst gap)."""
    wrong = 0
    worst = 0.0
    keys = served.keys() | reference.keys()
    for key in keys:
        gap = abs(served.get(key, float("inf"))
                  - reference.get(key, float("-inf")))
        worst = max(worst, gap)
        if not gap <= TOLERANCE:
            wrong += 1
    return len(keys), wrong, worst
