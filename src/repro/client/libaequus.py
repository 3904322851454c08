"""``libaequus`` — the unified system library (paper Section III-A).

The technical integration between Aequus and local resource-management
systems goes through a single client library linked into the scheduler.
In the original system it is a C/C++ interface wrapping web-service
clients; here it is the Python facade the simulated SLURM/Maui schedulers
call.  It provides exactly the three operations the paper names:

* retrieve fairshare values,
* resolve usage identity mappings, and
* store usage records,

with previously resolved fairshare values and identities cached "for a
configurable amount of time", which is what keeps batch job processing
cheap (and is delay source III in the update-delay analysis).

Transport modes
---------------
The library speaks to the Aequus stack either by **direct dispatch**
(in-process method calls on the site's FCS/IRS/USS, the default for the
discrete-event experiments) or over the **socket transport**: pass a
``transport`` object — normally a
:class:`repro.serve.client.SyncAequusClient` pointed at a running
aequusd — and every call-out crosses the network boundary exactly as the
paper's deployment does.  The RMS plugins are oblivious to the mode; the
caching, stats, and call signatures are identical on both paths.

A transport may also offer ``lookup_account(system_user) -> (identity,
value, known)`` (``SyncAequusClient`` does: one ``LOOKUP_ACCOUNT`` round
trip); a cold owner then costs one call-out instead of a resolution plus
a lookup.  A transport with only the paper's three operations is asked
to resolve, then to look up — as direct mode asks the IRS, then the FCS.

Cache hits, the common case when a queue holds many jobs per owner, cost
one dict probe per cache: the hit path reads the two tables directly and
bumps its registry counters without their lock.  That is safe because an
instance has a single writer — use one instance per scheduler thread.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Protocol, Tuple

from ..core.usage import UsageRecord
from ..obs.registry import MetricsRegistry, metric_property
from ..services.cache import RegistryCacheStats, TTLCache

if TYPE_CHECKING:  # avoid a services<->client import cycle at runtime
    from ..services.fcs import FairshareCalculationService
    from ..services.irs import IdentityResolutionService
    from ..services.site import AequusSite
    from ..services.uss import UsageStatisticsService
    from ..sim.engine import SimulationEngine

__all__ = ["LibAequus", "AequusTransport"]


class AequusTransport(Protocol):
    """Duck-type of a socket transport (``SyncAequusClient`` satisfies it).

    Optionally also ``lookup_account(system_user) -> (identity, value,
    known)``, raising ``IdentityResolutionError`` for an unmapped account;
    when present it answers every cache miss in one call.
    """

    def lookup_fairshare(self, user: str) -> Tuple[float, bool]: ...

    def resolve_identity(self, system_user: str) -> str: ...

    def report_usage(self, user: str, start: float, end: float,
                     cores: int = 1) -> bool: ...


class LibAequus:
    """Client library instance, one per resource-manager integration."""

    def __init__(self, engine: Optional["SimulationEngine"] = None,
                 fcs: Optional["FairshareCalculationService"] = None,
                 uss: Optional["UsageStatisticsService"] = None,
                 irs: Optional["IdentityResolutionService"] = None,
                 site: str = "",
                 cache_ttl: float = 15.0,
                 report_delay: float = 0.0,
                 transport: Optional[AequusTransport] = None,
                 clock: Optional[Callable[[], float]] = None,
                 registry: Optional[MetricsRegistry] = None):
        if transport is None and (fcs is None or uss is None or irs is None):
            raise ValueError(
                "direct mode needs fcs/uss/irs; or pass a socket transport")
        self.engine = engine
        self.fcs = fcs
        self.uss = uss
        self.irs = irs
        self.site = site
        self.report_delay = report_delay
        self.transport = transport
        if clock is None:
            # virtual time when wired into a simulation, wall clock when
            # talking to a real daemon
            clock = (lambda: engine.now) if engine is not None \
                else time.monotonic
        self.registry = registry if registry is not None else MetricsRegistry(
            constant_labels={"component": "libaequus"}, clock=clock)
        fairshare_stats = RegistryCacheStats(self.registry, "fairshare")
        identity_stats = RegistryCacheStats(self.registry, "identity")
        self._fairshare_cache: TTLCache[str, Tuple[float, bool]] = \
            TTLCache(clock, cache_ttl, stats=fairshare_stats)
        self._identity_cache: TTLCache[str, str] = \
            TTLCache(clock, cache_ttl, stats=identity_stats)
        calls = self.registry.counter(
            "aequus_client_calls_total",
            "libaequus call-outs by operation", ("op",))
        negatives = self.registry.counter(
            "aequus_client_negative_total",
            "Negative lookups: unknown-user fairshare fallbacks and failed "
            "identity resolutions", ("kind",))
        self._metrics = {
            "fairshare_calls": calls.labels(op="fairshare"),
            "usage_reports": calls.labels(op="report_usage"),
            "fairshare_negative": negatives.labels(kind="fairshare"),
            "identity_negative": negatives.labels(kind="identity"),
        }
        # what lookup_fairshare touches, bound once
        self._clock = clock
        self._ttl = self._identity_cache.ttl
        self._identities = self._identity_cache.entries
        self._fairshares = self._fairshare_cache.entries
        self._calls = self._metrics["fairshare_calls"]
        self._identity_hits = identity_stats.hit_series
        self._identity_misses = identity_stats.miss_series
        self._fairshare_hits = fairshare_stats.hit_series
        self._fairshare_misses = fairshare_stats.miss_series
        self._resolve = transport.resolve_identity if transport is not None \
            else irs.resolve
        self._lookup = transport.lookup_fairshare if transport is not None \
            else fcs.lookup
        #: answers an identity miss and its fairshare in one call-out
        self._lookup_account = getattr(transport, "lookup_account", None)

    fairshare_calls = metric_property("fairshare_calls")
    usage_reports = metric_property("usage_reports")
    #: negative lookups: fairshare queries that hit the unknown-user
    #: fallback, and identity resolutions that failed
    fairshare_negative = metric_property("fairshare_negative")
    identity_negative = metric_property("identity_negative")

    @classmethod
    def for_site(cls, site: "AequusSite", cache_ttl: Optional[float] = None,
                 report_delay: float = 0.0) -> "LibAequus":
        """Convenience constructor wiring against a full site stack."""
        ttl = cache_ttl if cache_ttl is not None else site.config.libaequus_cache_ttl
        return cls(site.engine, site.fcs, site.uss, site.irs,
                   site=site.name, cache_ttl=ttl, report_delay=report_delay)

    @classmethod
    def over_socket(cls, transport: AequusTransport, site: str = "",
                    cache_ttl: float = 15.0,
                    engine: Optional["SimulationEngine"] = None,
                    report_delay: float = 0.0,
                    clock: Optional[Callable[[], float]] = None) -> "LibAequus":
        """Socket transport mode: every call-out goes through ``transport``.

        Pass ``engine`` when the scheduler still runs in virtual time (the
        TTL cache then ages on the simulation clock and ``report_delay``
        stays meaningful); without one, wall-clock time is used.
        """
        return cls(engine=engine, site=site, cache_ttl=cache_ttl,
                   report_delay=report_delay, transport=transport,
                   clock=clock)

    # -- identity ---------------------------------------------------------

    def resolve_identity(self, system_user: str) -> str:
        """System user -> grid identity, TTL-cached.

        Failed resolutions are counted (:attr:`identity_negative`) and
        never cached — a mapping may be stored at any moment.
        """
        def load() -> str:
            try:
                return self._resolve(system_user)
            except Exception:
                self.identity_negative += 1
                raise

        return self._identity_cache.get(system_user, load)

    # -- fairshare ----------------------------------------------------------

    def lookup_fairshare(self, system_user: str) -> Tuple[float, bool]:
        """Projected value plus whether the user's identity is known.

        Unknown users resolve to the site's fallback value; they count as
        negative lookups (:attr:`fairshare_negative`) and are cached like
        any other value — repeating an unknown user in a batch must not
        re-query the service on every job.
        """
        # the hit path: one probe per cache, counters bumped lock-free
        # (single writer, see the module docstring)
        self._calls.value += 1
        now = self._clock()
        entry = self._identities.get(system_user)
        if entry is None or now - entry[0] >= self._ttl:
            return self._account_miss(system_user, now)
        self._identity_hits.value += 1
        identity = entry[1]
        entry = self._fairshares.get(identity)
        if entry is None or now - entry[0] >= self._ttl:
            return self._fairshare_miss(identity, now)
        self._fairshare_hits.value += 1
        return entry[1]

    def _account_miss(self, system_user: str, now: float
                      ) -> Tuple[float, bool]:
        """Identity not cached: resolve it — through ``lookup_account``,
        fetching its fairshare in the same call-out."""
        self._identity_misses.value += 1
        fetched = None
        try:
            if self._lookup_account is None:
                identity = self._resolve(system_user)
            else:
                identity, value, known = self._lookup_account(system_user)
                fetched = (value, known)
        except Exception:
            # a failed resolution is counted and never cached: a mapping
            # may be stored at any moment
            self.identity_negative += 1
            raise
        if self._ttl > 0:
            self._identities[system_user] = (now, identity)
        entry = self._fairshares.get(identity)
        if entry is not None and now - entry[0] < self._ttl:
            # another account of the same identity filled it; the cached
            # answer wins, exactly as if only the identity had been loaded
            self._fairshare_hits.value += 1
            return entry[1]
        return self._fairshare_miss(identity, now, fetched)

    def _fairshare_miss(self, identity: str, now: float,
                        fetched: Optional[Tuple[float, bool]] = None
                        ) -> Tuple[float, bool]:
        self._fairshare_misses.value += 1
        value, known = fetched if fetched is not None \
            else self._lookup(identity)
        if not known:
            self.fairshare_negative += 1
        answer = (value, known)
        if self._ttl > 0:
            self._fairshares[identity] = (now, answer)
        return answer

    def get_fairshare(self, system_user: str) -> float:
        """Projected fairshare value in [0, 1] for a job's owner.

        This is the call the SLURM priority plugin / Maui patch makes in
        place of the local fairshare calculation.
        """
        return self.lookup_fairshare(system_user)[0]

    # -- usage reporting -------------------------------------------------------

    def report_usage(self, system_user: str, start: float, end: float,
                     cores: int = 1) -> None:
        """Store a completed job's usage (job-completion plugin call).

        ``report_delay`` models delay source I: the lag between job
        completion in the resource manager and the record reaching the USS.
        """
        self.usage_reports += 1
        identity = self.resolve_identity(system_user)
        if self.transport is not None:
            send = lambda: self.transport.report_usage(  # noqa: E731
                identity, start, end, cores)
        else:
            record = UsageRecord(user=identity, site=self.site,
                                 start=start, end=end, cores=cores)
            send = lambda: self.uss.record_job(record)  # noqa: E731
        if self.report_delay > 0 and self.engine is not None:
            self.engine.schedule(self.report_delay, send)
        else:
            send()

    # -- cache introspection --------------------------------------------------

    @property
    def fairshare_cache_stats(self):
        return self._fairshare_cache.stats

    @property
    def identity_cache_stats(self):
        return self._identity_cache.stats

    def cache_stats(self) -> Dict[str, Dict[str, Any]]:
        """Uniform hit/miss/negative counters for both caches.

        The serve plane and the in-process path report the same shape, so
        cache behaviour is directly comparable across transport modes.
        """
        out: Dict[str, Dict[str, Any]] = {}
        for name, cache, negative in (
                ("fairshare", self._fairshare_cache, self.fairshare_negative),
                ("identity", self._identity_cache, self.identity_negative)):
            stats = cache.stats
            out[name] = {
                "hits": stats.hits,
                "misses": stats.misses,
                "lookups": stats.lookups,
                "hit_rate": stats.hit_rate,
                "negative": negative,
                "entries": len(cache),
                "ttl": cache.ttl,
            }
        return out
