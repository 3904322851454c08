"""Usage Monitoring Service (UMS).

Gathers usage histograms from one or more USSs and pre-computes decayed
per-user usage totals on a refresh interval (paper Section II-A).  The
refresh interval is delay source II in the update-delay analysis.

Refresh is **incremental** (DESIGN.md §7): instead of merging every
histogram and re-decaying every user each period, the UMS keeps cached
per-user decayed totals and pulls only the *dirty-user set* (users whose
bins changed since the last pull) from each USS through a registered
change cursor.  Clean users are age-shifted analytically — exponential
decay is multiplicative in age, so advancing a total by ``Δt`` is one
multiply by ``0.5**(Δt/half_life)`` (``decay.weight(Δt)``); with
:class:`~repro.core.decay.NoDecay` the factor is 1.  Users whose newest
bin midpoint still lies in the future of the previous refresh (the ages
were clamped at zero) stay in a "young" set and are recomputed until the
midpoint has passed, keeping the shift exact.

The full merge-and-decay pass (:meth:`_full_refresh`) runs on the priming
refresh and, for decay families whose weights are not multiplicative in
age (linear, window, step), on every refresh — read off the decay function
(:attr:`incremental`), not configured.  Priming is also the test oracle: a
UMS constructed now over the same USSs must serve a long-lived one's totals.

The analytic shift is applied as one *global scale scalar* (DESIGN.md
§12), not a per-user multiply: cached totals are stored as
scale-invariant bases with ``served = base * scale``, and an idle refresh
advances every user at once by ``scale *= factor`` — O(1) instead of
O(users).  Dirty users are recomputed in a single vectorized 2-D pass
per histogram (:meth:`~repro.core.usage.UsageHistogram.
decayed_totals_batch`).  Downstream consumers that want to avoid their
own O(users) pass read the base totals directly (:meth:`usage_totals_
base` + :meth:`usage_scale`) and subscribe to a **totals cursor**
(:meth:`register_totals_cursor`) that reports exactly which users' base
totals changed each refresh — pure decay aging changes no base, so an
idle site's cursor drains empty and the FCS can skip its refresh
entirely.

A site in LOCAL_ONLY participation mode points its UMS at local usage only
(``consider_remote=False``): it still publishes data to the grid but
prioritizes on local history — the second scenario of the
partial-participation test.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from types import MappingProxyType
from typing import Deque, Dict, List, Mapping, Optional, Set

from ..core.decay import DecayFunction, ExponentialDecay, NoDecay
from ..obs import trace
from ..obs.registry import MetricsRegistry, metric_property
from ..sim.engine import PeriodicTask, SimulationEngine
from .uss import UsageStatisticsService

__all__ = ["UsageMonitoringService"]


class UsageMonitoringService:
    """Periodic pre-computation of decayed usage totals."""

    #: fold the global scale back into the bases before it underflows the
    #: precision budget of ``base * scale`` round-trips
    SCALE_FLOOR = 2.0 ** -40

    def __init__(self, site: str, engine: SimulationEngine,
                 sources: List[UsageStatisticsService],
                 decay: Optional[DecayFunction] = None,
                 refresh_interval: float = 30.0,
                 consider_remote: bool = True,
                 start_offset: float = 0.0,
                 registry: Optional[MetricsRegistry] = None):
        if not sources:
            raise ValueError("a UMS needs at least one USS source")
        self.site = site
        self.engine = engine
        self.sources = list(sources)
        self.decay = decay or ExponentialDecay(half_life=7 * 24 * 3600.0)
        self.consider_remote = consider_remote
        self.refresh_interval = refresh_interval
        self.registry = registry if registry is not None else MetricsRegistry(
            constant_labels={"site": site}, clock=lambda: engine.now)
        refreshes = self.registry.counter(
            "aequus_ums_refreshes_total",
            "UMS refresh rounds by path (full merge vs incremental)",
            ("path",))
        users = self.registry.counter(
            "aequus_ums_users_total",
            "Users touched by incremental refreshes, by how",
            ("how",))
        self._metrics = {
            "refreshes": refreshes.labels(path="all"),
            "full_refreshes": refreshes.labels(path="full"),
            "users_recomputed": users.labels(how="recomputed"),
            "users_shifted": users.labels(how="shifted"),
        }
        self._refresh_hist = self.registry.histogram(
            "aequus_ums_refresh_seconds",
            "Wall time of one UMS refresh").labels()
        self._cursors: List[int] = []
        if self.incremental:
            self._cursors = [
                uss.register_usage_cursor(include_remote=consider_remote)
                for uss in self.sources]
        #: scale-invariant base totals; served total = base * ``_scale``
        self._totals: Dict[str, float] = {}
        #: global decay scale applied to every base (DESIGN.md §12): an
        #: idle refresh advances all users with ``_scale *= factor``
        self._scale: float = 1.0
        #: downstream totals cursors: id -> (full-resync flag, dirty users)
        self._totals_cursors: Dict[int, List] = {}
        self._totals_cursor_ids = itertools.count(1)
        #: newest bin midpoint per cached user (staleness of the age shift)
        self._max_mid: Dict[str, float] = {}
        #: users recomputed while their newest midpoint was still ahead
        self._young: Set[str] = set()
        self._primed = False
        self._computed_at: float = engine.now
        #: per-origin usage horizons as of the last refresh: the totals
        #: served by :meth:`usage_totals` incorporate exactly this much of
        #: each origin's usage (captured from the sources *at* refresh, so
        #: the FCS inherits a causally consistent horizon set)
        self._horizons: Dict[str, float] = {}
        #: wire trace ids folded in by refreshes since the last FCS drain
        #: (DESIGN.md §14); bounded so an undrained chain cannot leak
        self._applied_traces: Deque[str] = deque(maxlen=256)
        self._task: Optional[PeriodicTask] = engine.periodic(
            refresh_interval, self.refresh, start_offset=start_offset)
        self.refresh()

    @property
    def incremental(self) -> bool:
        """Whether the decay is multiplicative in age, so the analytic age
        shift is exact; other families recompute every user each refresh."""
        return isinstance(self.decay, (ExponentialDecay, NoDecay))

    refreshes = metric_property("refreshes")
    #: refreshes that went through the full merge-and-decay path
    full_refreshes = metric_property("full_refreshes")
    #: dirty/young users recomputed on incremental refreshes
    users_recomputed = metric_property("users_recomputed")
    #: clean users advanced by the analytic age shift (one multiply each)
    users_shifted = metric_property("users_shifted")

    def refresh(self) -> None:
        """Advance the cached decayed per-user totals to ``engine.now``."""
        timed = self.registry.enabled
        t0 = time.perf_counter() if timed else 0.0
        with trace.span("ums.refresh", site=self.site) as sp:
            now = self.engine.now
            # hand the wire deltas' causal identity down the chain: trace
            # ids the USSs applied since our last refresh ride in this
            # span's args and queue up for the FCS to claim
            traces: List[str] = []
            for uss in self.sources:
                traces.extend(uss.drain_applied_traces())
            if traces:
                self._applied_traces.extend(traces)
                if sp is not None:
                    sp["traces"] = traces
            dirty: Set[str] = set()
            for uss, cursor in zip(self.sources, self._cursors):
                dirty |= uss.drain_dirty_users(cursor)
            if not self.incremental or not self._primed:
                self._full_refresh(now)
            else:
                self._incremental_refresh(now, dirty)
            self._computed_at = now
            self._capture_horizons()
            self._metrics["refreshes"].inc()
        if timed:
            self._refresh_hist.observe(time.perf_counter() - t0)

    def _full_refresh(self, now: float) -> None:
        """Merge every histogram and re-decay every user."""
        totals: Dict[str, float] = {}
        for uss in self.sources:
            merged = uss.global_usage(include_remote=self.consider_remote)
            for user, value in merged.decayed_totals(now, self.decay).items():
                totals[user] = totals.get(user, 0.0) + value
        self._totals = totals
        self._scale = 1.0
        for state in self._totals_cursors.values():
            state[0] = True
            state[1].clear()
        self._metrics["full_refreshes"].inc()
        if self.incremental:
            # seed the age-shift bookkeeping for subsequent delta refreshes
            mids: Dict[str, float] = {}
            for uss in self.sources:
                for user, m in uss.newest_user_midpoints(
                        self.consider_remote).items():
                    if m > mids.get(user, float("-inf")):
                        mids[user] = m
            self._max_mid = mids
            self._young = {u for u, m in mids.items() if m > now}
            self._primed = True

    def _incremental_refresh(self, now: float, dirty: Set[str]) -> None:
        # the analytic age shift: one scalar multiply advances every clean
        # user's served total (base * scale) at once — the bases don't move
        self._scale *= self.decay.weight(now - self._computed_at)
        if self._scale < self.SCALE_FLOOR:
            self._renormalize_scale()
        recompute = dirty | self._young
        self._metrics["users_shifted"].inc(
            len(self._totals) - len(recompute & self._totals.keys()))
        if not recompute:
            return
        self._young = set()
        self._metrics["users_recomputed"].inc(len(recompute))
        users = list(recompute)
        totals: Dict[str, float] = {}
        mids: Dict[str, float] = {}
        for uss in self.sources:
            for user, t in uss.decayed_user_totals(
                    users, now, self.decay, self.consider_remote).items():
                totals[user] = totals.get(user, 0.0) + t
            for user, m in uss.newest_user_midpoints_for(
                    users, self.consider_remote).items():
                if m > mids.get(user, float("-inf")):
                    mids[user] = m
        for user in users:
            total = totals.get(user)
            if total is None:
                # pruned/deleted everywhere: drop, as a full merge would
                if self._totals.pop(user, None) is not None:
                    self._mark_totals_dirty(user)
                self._max_mid.pop(user, None)
                continue
            base = total / self._scale
            if self._totals.get(user) != base:
                self._totals[user] = base
                self._mark_totals_dirty(user)
            max_mid = mids.get(user, float("-inf"))
            self._max_mid[user] = max_mid
            if max_mid > now:
                # the newest bin's age is still clamped at zero; keep
                # recomputing until the midpoint passes, then shift freely
                self._young.add(user)

    def _renormalize_scale(self) -> None:
        """Fold the scale back into the bases (rare: ~every 2**40 of decay).

        Every base changes, so downstream totals cursors are flagged for a
        full resync.
        """
        scale = self._scale
        for user in self._totals:
            self._totals[user] *= scale
        self._scale = 1.0
        for state in self._totals_cursors.values():
            state[0] = True
            state[1].clear()

    def _mark_totals_dirty(self, user: str) -> None:
        for state in self._totals_cursors.values():
            if not state[0]:
                state[1].add(user)

    def _capture_horizons(self) -> None:
        """Freeze the sources' usage horizons alongside the totals.

        Multiple sources tracking the same origin merge on the *minimum*:
        the aggregate provably incorporates an origin's usage only up to
        the least-advanced copy.
        """
        horizons: Dict[str, float] = {}
        for uss in self.sources:
            for origin, h in uss.usage_horizons(self.consider_remote).items():
                current = horizons.get(origin)
                if current is None or h < current:
                    horizons[origin] = h
        self._horizons = horizons

    # -- queries (served from the pre-computed state) ------------------------

    @property
    def computed_at(self) -> float:
        return self._computed_at

    def usage_totals(self) -> Dict[str, float]:
        """Decayed per-user usage as of the last refresh."""
        scale = self._scale
        if scale == 1.0:
            return dict(self._totals)
        return {user: base * scale for user, base in self._totals.items()}

    def usage_totals_base(self) -> Mapping[str, float]:
        """Scale-invariant base totals (``served = base * usage_scale()``).

        A read-only view of the live cache — no O(users) copy.  Bases only
        move when a user's histogram bins change, so consumers holding a
        totals cursor can fold just the drained users and multiply their
        aggregate by the scale.
        """
        return MappingProxyType(self._totals)

    def usage_scale(self) -> float:
        """Global decay scale applied to every base total."""
        return self._scale

    def register_totals_cursor(self) -> int:
        """Subscribe to base-total changes; returns a cursor id.

        A fresh cursor starts with the full-resync flag set so the first
        drain tells the consumer to fold everything once.
        """
        cursor = next(self._totals_cursor_ids)
        self._totals_cursors[cursor] = [True, set()]
        return cursor

    def drain_totals_changes(self, cursor: int):
        """Changes to the base totals since the last drain.

        Returns ``(full, changed)``: when ``full`` is True the consumer
        must resync against :meth:`usage_totals_base` from scratch (priming,
        a full refresh, or a scale renormalization) and ``changed`` is
        empty.  Otherwise ``changed`` maps each dirty user to their new
        base total, with ``None`` for users dropped from the cache.
        """
        state = self._totals_cursors[cursor]
        full, dirty = state[0], state[1]
        if full:
            self._totals_cursors[cursor] = [False, set()]
            return True, {}
        state[1] = set()
        return False, {user: self._totals.get(user) for user in dirty}

    def release_totals_cursor(self, cursor: int) -> None:
        self._totals_cursors.pop(cursor, None)

    def usage_horizons(self) -> Dict[str, float]:
        """Per-origin usage horizons incorporated by the last refresh."""
        return dict(self._horizons)

    def drain_applied_traces(self) -> List[str]:
        """Wire trace ids folded into the totals since the last drain.

        Exactly-once, like the USS method of the same name: the FCS pulls
        these at refresh time so the ids reach the snapshot-publish span.
        """
        out: List[str] = []
        while True:
            try:
                out.append(self._applied_traces.popleft())
            except IndexError:
                return out

    def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            self._task = None
        for uss, cursor in zip(self.sources, self._cursors):
            uss.release_usage_cursor(cursor)
        self._cursors = []