"""The aequusd backend: a site stack behind a thread-safe query surface.

The server's event loop runs in its own thread while the site's services
(FCS refreshes, USS exchanges) are driven elsewhere — the simulation loop
in tests and benchmarks, the real-time tick thread in the daemon.  The
backend is the seam that makes that safe:

* fairshare reads are served from the :class:`~repro.serve.snapshot.SnapshotStore`
  (immutable snapshots, lock-free);
* identity resolution goes through the IRS under a lock (the IRS memoizes
  endpoint answers into its table);
* usage reports are *enqueued* into the USS (atomic append) and folded in
  on the owning thread at the next exchange tick.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from ..core.usage import UsageRecord
from ..obs.registry import MetricsRegistry
from ..services.irs import IdentityResolutionError
from .snapshot import FairshareSnapshot, SnapshotStore

if TYPE_CHECKING:
    from ..services.fcs import FairshareCalculationService
    from ..services.irs import IdentityResolutionService
    from ..services.site import AequusSite
    from ..services.uss import UsageStatisticsService

__all__ = ["SiteBackend"]


class SiteBackend:
    """Query surface over one site's FCS/IRS/USS stack."""

    def __init__(self, site_name: str,
                 fcs: "FairshareCalculationService",
                 irs: Optional["IdentityResolutionService"] = None,
                 uss: Optional["UsageStatisticsService"] = None,
                 store: Optional[SnapshotStore] = None):
        self.site = site_name
        self.fcs = fcs
        self.irs = irs
        self.uss = uss
        self.store = store if store is not None else SnapshotStore.for_fcs(fcs)
        #: serializes IRS table mutation (the IRS memoizes endpoint answers)
        self._lock = threading.Lock()
        self.refresh_interval = fcs.refresh_interval
        self._clock = lambda: fcs.engine.now

    def now(self) -> float:
        """The stack's virtual clock (the engine driving the services)."""
        return self._clock()

    @property
    def registry(self) -> MetricsRegistry:
        """The service-side registry (the FCS's, shared site-wide when the
        stack was built through :class:`~repro.services.site.AequusSite`)."""
        return self.fcs.registry

    @classmethod
    def for_site(cls, site: "AequusSite") -> "SiteBackend":
        return cls(site.name, site.fcs, site.irs, site.uss)

    # -- snapshot reads (lock-free) -----------------------------------------

    def snapshot(self) -> Optional[FairshareSnapshot]:
        return self.store.current()

    def lookup_fairshare(self, identity: str,
                         snapshot: Optional[FairshareSnapshot] = None
                         ) -> Tuple[float, bool, Optional[FairshareSnapshot]]:
        snap = snapshot if snapshot is not None else self.store.current()
        if snap is None:
            return self.fcs.unknown_user_value, False, None
        value, known = snap.lookup(identity)
        return value, known, snap

    # -- identity ------------------------------------------------------------

    def resolve_identity(self, system_user: str) -> Optional[str]:
        if self.irs is None:
            return None
        with self._lock:
            try:
                return self.irs.resolve(system_user)
            except IdentityResolutionError:
                return None

    # -- usage ingress --------------------------------------------------------

    def report_usage(self, user: str, start: float, end: float,
                     cores: int = 1) -> bool:
        if self.uss is None:
            return False
        record = UsageRecord(user=user, site=self.site, start=float(start),
                             end=float(end), cores=int(cores))
        self.uss.enqueue_record(record)
        return True

    # -- introspection --------------------------------------------------------

    def info(self) -> Dict[str, Any]:
        snap = self.store.current()
        now = self._clock()
        payload: Dict[str, Any] = {
            "site": self.site,
            "refresh_interval": self.refresh_interval,
            "time": now,
        }
        if snap is not None:
            payload.update(snap.info(now, self.refresh_interval))
        if self.uss is not None:
            payload["usage_ingress"] = {
                "enqueued": self.uss.records_enqueued,
                "drained": self.uss.records_drained,
            }
        return payload
