"""Fairshare Calculation Service (FCS).

Fetches usage totals from the UMS and policy trees from the PDS
periodically and *pre-calculates* the fairshare tree with the current
fairshare values for all users (paper Section II-A): "This way, no
real-time calculations need to take place when new jobs arrive, as
pre-calculated values already exist and can be assigned to the job based
on the associated user identity."

Queries therefore never trigger computation — they read the last refresh,
whose age is delay source II/IV in the update-delay analysis.

The refresh itself runs on the array-backed kernel (:mod:`repro.core.flat`)
and is **incremental end to end** (DESIGN.md §12):

* *Usage*: a leaf's base usage is the sum of the UMS base totals of every
  identity that :meth:`FairshareCalculationService.identity_table` maps to
  that leaf's row, so two spellings of one leaf (a path and a bare name,
  or an alias beside either) sum.  The FCS subscribes to the UMS's totals
  cursor and re-sums only the rows a drained user names, from the table's
  inverse (row -> identities naming it); a resync or a new table refolds
  every row in one ``bincount``.  A monotone ``usage_version`` counter
  bumps exactly when some leaf's base moves, and ``(policy epoch,
  usage_version)`` is the refresh-cache key.  Pure decay aging moves the
  UMS's global scale, not the bases; usage shares (and therefore
  priorities and projected values) are scale-invariant, so an idle site
  under exponential decay *hits* the refresh cache instead of recomputing
  every period.
* *Policy*: on an epoch change the FCS asks the policy tree for its edit
  journal since the last compile and splices the compiled arrays
  (:meth:`~repro.core.flat.FlatPolicy.recompile`) instead of recompiling
  from scratch; weight-only edits keep the layout (and the serve plane's
  leaf ids) intact.  The first compile, a journal gap and a structural
  overflow take the full compile.  The chosen path is counted in
  ``aequus_compile_total{kind=full|incremental|fallback}``.
* *Compute*: with the layout unchanged, only the dirty leaves' ancestor
  chains and their sibling groups are re-evaluated
  (:meth:`~repro.core.flat.FlatPolicy.compute_delta`); a full fold (a
  changed layout, a new alias or a usage resync) takes the full kernel
  pass.  The touched-node fraction of each miss is exported as a gauge.

Hits and misses are tracked in
:attr:`FairshareCalculationService.refresh_stats`.  The full compile and
full kernel pass are also what a freshly constructed FCS runs on its first
refresh, so a cold start over the same PDS and UMS is the oracle for the
incremental paths.  UMS stand-ins (tests, benchmarks) implement the same
totals-cursor interface; one that always drains ``(True, {})`` gets a full
fold per refresh.
"""

from __future__ import annotations

import logging
import time
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..core.distance import FairshareParameters
from ..core.flat import FlatFairshare, FlatPolicy
from ..core.projection import PercentalProjection, Projection
from ..core.vector import FairshareVector
from ..obs import trace
from ..obs.registry import AGE_BUCKETS, MetricsRegistry, metric_property
from ..sim.engine import PeriodicTask, SimulationEngine
from .cache import LeafValueMap, RegistryCacheStats
from .pds import PolicyDistributionService
from .ums import UsageMonitoringService

__all__ = ["FairshareCalculationService"]

logger = logging.getLogger(__name__)

#: the identity table's row for an internal-node path.  It is no leaf row,
#: fits the shm key table's u32 ids, and is at least any leaf count, so
#: ``row < n_leaves`` is the one "names a leaf" test every reader makes.
NODE_ROW = 0xFFFFFFFF


class FairshareCalculationService:
    """Periodic fairshare pre-computation and constant-time value lookup."""

    def __init__(self, site: str, engine: SimulationEngine,
                 pds: PolicyDistributionService,
                 ums: UsageMonitoringService,
                 parameters: Optional[FairshareParameters] = None,
                 projection: Optional[Projection] = None,
                 refresh_interval: float = 30.0,
                 unknown_user_value: float = 0.5,
                 identity_map: Optional[Dict[str, str]] = None,
                 start_offset: float = 0.0,
                 registry: Optional[MetricsRegistry] = None):
        self.site = site
        self.engine = engine
        self.pds = pds
        self.ums = ums
        self.parameters = parameters or FairshareParameters()
        self.projection = projection or PercentalProjection()
        self.refresh_interval = refresh_interval
        self.unknown_user_value = unknown_user_value
        self.identity_map: Dict[str, str] = dict(identity_map or {})
        self.registry = registry if registry is not None else MetricsRegistry(
            constant_labels={"site": site}, clock=lambda: engine.now)
        compiles = self.registry.counter(
            "aequus_compile_total",
            "Policy compilations by path: full first compiles, incremental "
            "journal splices, and fallbacks (journal gap, structural "
            "overflow, name clash)", ("kind",))
        self._metrics = {
            "refreshes": self.registry.counter(
                "aequus_fcs_refreshes_total",
                "FCS refresh rounds (cached-epoch hits included)").labels(),
            "publishes": self.registry.counter(
                "aequus_fcs_publishes_total",
                "Snapshot publications to refresh listeners").labels(),
            "compile_full": compiles.labels(kind="full"),
            "compile_incremental": compiles.labels(kind="incremental"),
            "compile_fallback": compiles.labels(kind="fallback"),
        }
        self._dirty_fraction_gauge = self.registry.gauge(
            "aequus_refresh_dirty_fraction",
            "Fraction of flat-tree nodes re-evaluated by the most recent "
            "refresh miss (1.0 = full recompute)").labels()
        refresh_seconds = self.registry.histogram(
            "aequus_refresh_seconds",
            "FCS refresh wall time by phase (compile/rollup/project/total)",
            ("phase",))
        self._phase_hist = {
            phase: refresh_seconds.labels(phase=phase)
            for phase in ("compile", "rollup", "project", "total")}
        self._staleness_family = self.registry.histogram(
            "aequus_snapshot_staleness_seconds",
            "Per-origin usage-horizon age (virtual seconds) of each "
            "published fairshare state — the end-to-end update-delay "
            "distribution of the paper's Fig. 11", ("origin",),
            buckets=AGE_BUCKETS)
        self._staleness_children: Dict[str, object] = {}
        #: unchanged-epoch refreshes skipped vs. full recomputations
        self.refresh_stats = RegistryCacheStats(self.registry, "fcs_refresh")
        #: wall seconds and cache outcome of the most recent refresh — the
        #: daemon's per-refresh structured log line reads these
        self.last_refresh_seconds: float = 0.0
        self.last_refresh_hit: bool = False
        #: distinct bare leaf names shadowed by an earlier same-named leaf
        #: in the current policy (resolvable only via their full path)
        self.name_collisions = 0
        #: leaf-table generation: bumps whenever the policy is recompiled,
        #: i.e. whenever leaf row numbers may change.  The serve plane's
        #: binary protocol tags integer leaf ids with this so a client
        #: holding ids from an old layout gets EPOCH_CHANGED, not a wrong
        #: user's value.
        self.leaf_generation = 0
        self._flat: Optional[FlatPolicy] = None
        self._flat_epoch: Optional[tuple] = None
        #: journal coordinates of the compiled layout: which PolicyTree
        #: instance it came from and at which revision — the anchor for
        #: :meth:`~repro.core.policy.PolicyTree.edits_since`
        self._flat_token: Optional[int] = None
        self._flat_revision: int = -1
        self._result: Optional[FlatFairshare] = None
        #: UMS decay scale the current result's absolute usage is at
        self._result_scale: float = 1.0
        self._refresh_key: Optional[tuple] = None
        self._values: Mapping[str, float] = {}
        self._values_vec: Optional["np.ndarray"] = None
        # -- usage fold: UMS base totals summed onto leaf rows ---------------
        self._ums_cursor: Optional[int] = ums.register_totals_cursor()
        #: monotone usage state counter; bumps exactly when a leaf's base
        #: usage moves
        self._usage_version = 0
        #: base usage per compiled leaf row: the sum of the UMS base totals
        #: of every identity the table maps to the row (None until the
        #: first refresh)
        self._leaf_base: Optional[np.ndarray] = None
        #: the identity table :attr:`_leaf_base` was folded through
        self._fold_table: Optional[Mapping[str, int]] = None
        #: the identity table (see :meth:`identity_table`), its inverse
        #: (leaf row -> the identities naming it, CSR) and the (leaf
        #: generation, alias version) both were built at
        self._table: Dict[str, int] = {}
        self._row_names: List[str] = []
        self._row_starts: List[int] = [0]
        self._table_key: Optional[Tuple[int, int]] = None
        #: bumps on every :meth:`register_identity`
        self._alias_version = 0
        self._computed_at: float = engine.now
        #: per-origin usage horizons incorporated by the served values
        #: (the UMS's refresh-time capture, inherited on every refresh)
        self._horizons: Dict[str, float] = {}
        #: serve-plane publication hook: called after every refresh (hit or
        #: miss) with this FCS; listeners must not mutate FCS state
        self._refresh_listeners: List[Callable[
            ["FairshareCalculationService"], None]] = []
        #: wire trace ids awaiting their snapshot.publish span
        self._pending_traces: List[str] = []
        self._task: Optional[PeriodicTask] = engine.periodic(
            refresh_interval, self.refresh, start_offset=start_offset)
        self.refresh()

    #: FCS refresh rounds, including cached-epoch hits (registry view)
    refreshes = metric_property("refreshes")
    #: monotone snapshot publication counter (bumps even on cached-epoch
    #: refreshes and projection switches, unlike :attr:`refreshes`)
    publishes = metric_property("publishes")

    # -- the periodic pre-computation -----------------------------------------

    def refresh(self) -> None:
        timed = self.registry.enabled
        t_start = time.perf_counter() if timed else 0.0
        with trace.span("fcs.refresh", site=self.site) as sp:
            # claim the wire trace ids the UMS folded in since our last
            # refresh: they annotate this span and the snapshot.publish
            # child, completing the cross-daemon causal chain
            traces = self.ums.drain_applied_traces()
            if traces:
                self._pending_traces.extend(traces)
                if sp is not None:
                    sp["traces"] = traces
            self._refresh(timed, sp)
        if timed:
            self.last_refresh_seconds = time.perf_counter() - t_start
            self._phase_hist["total"].observe(self.last_refresh_seconds)

    def _refresh(self, timed: bool, sp: Optional[Dict] = None) -> None:
        epoch = self.pds.policy_epoch()
        # policy first: the usage fold reads the identity table, whose rows
        # are the compiled layout's.  An unchanged epoch changes nothing.
        target_dirty = self._update_policy(epoch, timed)
        # fold only the rows the changed users name; the monotone version
        # counter stands for the whole usage state in the cache key
        dirty_rows = self._fold_usage()
        scale = self.ums.usage_scale()
        refresh_key = (epoch, self._usage_version)
        if self._result is not None and refresh_key == self._refresh_key:
            # idle fast path: same policy epoch, same usage state — shares,
            # priorities and projected values are scale-invariant, so pure
            # decay aging leaves them exact; only the absolute usage view
            # needs catching up to the moved scale (two array multiplies)
            self.refresh_stats.hits += 1
            self.last_refresh_hit = True
            if sp is not None:
                sp["cache"] = "hit"
            if scale != self._result_scale:
                self._result = self._rescaled(
                    self._result, scale / self._result_scale)
                self._result_scale = scale
            self._computed_at = self.engine.now
            self._capture_horizons()
            self._metrics["refreshes"].inc()
            self._notify_listeners()
            return
        self.refresh_stats.misses += 1
        self.last_refresh_hit = False
        if sp is not None:
            sp["cache"] = "miss"

        # -- compute: full kernel pass or dirty-segment delta ---------------
        with trace.span("fcs.rollup", site=self.site):
            t0 = time.perf_counter() if timed else 0.0
            if self._result is None or dirty_rows is None:
                served = self._leaf_base * scale if scale != 1.0 \
                    else self._leaf_base
                self._result = self._flat.compute(
                    leaf_usage=served, parameters=self.parameters)
                touched = self._flat.n_nodes
            else:
                prev = self._result
                if scale != self._result_scale:
                    prev = self._rescaled(prev, scale / self._result_scale)
                rows = np.asarray(sorted(dirty_rows), dtype=np.int64)
                self._result = self._flat.compute_delta(
                    prev, rows, self._leaf_base[rows] * scale,
                    self.parameters, extra_dirty_nodes=target_dirty)
                touched = self._result.touched_nodes or 0
            self._result_scale = scale
            if self.registry.enabled:
                self._dirty_fraction_gauge.set(
                    touched / self._flat.n_nodes if self._flat.n_nodes
                    else 0.0)
            if timed:
                self._phase_hist["rollup"].observe(time.perf_counter() - t0)
        with trace.span("fcs.project", site=self.site):
            t0 = time.perf_counter() if timed else 0.0
            self._values_vec = self.projection.project_flat_array(
                self._result)
            self._values = LeafValueMap(self._flat.leaf_paths,
                                        self._flat.leaf_slot,
                                        self._values_vec)
            if timed:
                self._phase_hist["project"].observe(time.perf_counter() - t0)
        self._refresh_key = refresh_key
        self._computed_at = self.engine.now
        self._capture_horizons()
        self._metrics["refreshes"].inc()
        self._notify_listeners()

    def _update_policy(self, epoch: tuple,
                       timed: bool) -> Optional[np.ndarray]:
        """Bring the compiled policy to ``epoch``: full compile, journal
        splice, or keep.  Returns the splice's target-dirty nodes, if any.

        A compile that may move leaf rows bumps :attr:`leaf_generation`,
        which gives the next :meth:`identity_table` read a new table and
        so the usage a full fold and the kernel a full pass.
        """
        policy = self.pds.policy()
        if self._flat is None or \
                getattr(policy, "journal_token", None) != self._flat_token:
            self._compile_full(policy, epoch, timed, kind="full")
            return None
        if epoch == self._flat_epoch:
            return None
        self._flat_epoch = epoch
        if policy.revision == self._flat_revision:
            return None
        edits = policy.edits_since(self._flat_revision)
        spliced = None
        if edits:
            with trace.span("fcs.compile", site=self.site):
                t0 = time.perf_counter() if timed else 0.0
                spliced = self._flat.recompile(policy, edits)
                if timed and spliced is not None:
                    self._phase_hist["compile"].observe(
                        time.perf_counter() - t0)
        if edits is None or (edits and spliced is None):
            # journal gap, too many edits, structural overflow or a
            # bare-name clash: recompile from scratch
            self._compile_full(policy, epoch, timed, kind="fallback")
            return None
        self._flat_revision = policy.revision
        if not edits:
            # epoch moved without content changes (e.g. an identical-subtree
            # mount refresh): everything stands
            return None
        new_flat, info = spliced
        self._metrics["compile_incremental"].inc()
        self._flat = new_flat
        if info["layout_changed"]:
            # leaf row numbers may have moved: new serve-plane generation.
            # Weight-only splices keep the layout and therefore the
            # published leaf ids (and the identity table).
            self.leaf_generation += 1
            self.name_collisions = new_flat.name_collisions
        return info.get("target_dirty")

    def _compile_full(self, policy, epoch: tuple, timed: bool,
                      kind: str) -> None:
        """Compile the policy from scratch and re-anchor the journal."""
        with trace.span("fcs.compile", site=self.site):
            t0 = time.perf_counter() if timed else 0.0
            self._flat = FlatPolicy(policy)
            if timed:
                self._phase_hist["compile"].observe(time.perf_counter() - t0)
        self._metrics["compile_%s" % kind].inc()
        self._flat_epoch = epoch
        self._flat_token = getattr(policy, "journal_token", None)
        self._flat_revision = getattr(policy, "revision", -1)
        self.leaf_generation += 1
        self.name_collisions = self._flat.name_collisions
        if self._flat.name_collisions:
            logger.warning(
                "site %s: %d bare user name(s) shadowed by duplicates in "
                "the policy; shadowed leaves resolve only via full paths",
                self.site, self._flat.name_collisions)

    @staticmethod
    def _rescaled(result: FlatFairshare, ratio: float) -> FlatFairshare:
        """``result`` with its absolute usage advanced by a decay ratio.

        Shares, priorities and balances are scale-invariant and shared
        with the input; published results are never mutated in place
        (serve-plane snapshots may still reference them).
        """
        gsum = result.group_usage_sum
        return FlatFairshare(
            result.flat, result.parameters, result.usage * ratio,
            result.usage_share, result.priority, result.balance,
            group_usage_sum=None if gsum is None else gsum * ratio,
            touched_nodes=result.touched_nodes)

    # -- usage fold --------------------------------------------------------

    def _fold_usage(self) -> Optional[List[int]]:
        """Drain the UMS totals cursor onto the leaf rows.

        A leaf's base usage is the sum of the base totals of every identity
        the identity table maps to its row; identities naming no leaf (an
        internal node, or nothing) are ignored.  A resync drain (priming, a
        full UMS refresh, a scale renormalization) or a new table refolds
        every row and returns None; otherwise only the rows a changed user
        names are re-summed, and the ones whose base moved are returned.
        Bumps :attr:`_usage_version` iff some leaf's base moved.
        """
        full, changed = self.ums.drain_totals_changes(self._ums_cursor)
        table = self.identity_table()
        bases = self.ums.usage_totals_base()
        n_leaves = self._flat.n_leaves
        if full or table is not self._fold_table:
            count = len(bases)
            rows = np.fromiter((table.get(user, NODE_ROW) for user in bases),
                               dtype=np.int64, count=count)
            weights = np.fromiter(bases.values(), dtype=np.float64,
                                  count=count)
            named = rows < n_leaves
            # (with no rows at all bincount answers int64 zeros)
            leaf_base = np.bincount(rows[named], weights=weights[named],
                                    minlength=n_leaves).astype(
                                        np.float64, copy=False)
            if self._leaf_base is None \
                    or not np.array_equal(leaf_base, self._leaf_base):
                self._usage_version += 1
            self._leaf_base = leaf_base
            self._fold_table = table
            return None
        leaf_base = self._leaf_base
        names, starts = self._row_names, self._row_starts
        moved: List[int] = []
        for row in {table.get(user, NODE_ROW) for user in changed}:
            if row >= n_leaves:
                continue
            total = 0.0
            for identity in names[starts[row]:starts[row + 1]]:
                total += bases.get(identity, 0.0)
            if total != leaf_base[row]:
                leaf_base[row] = total
                moved.append(row)
        if moved:
            self._usage_version += 1
        return moved

    def _capture_horizons(self) -> None:
        """Inherit the UMS's refresh-time horizon set and observe each
        origin's age — the continuously exported Fig. 11 distribution.

        On a cached-epoch hit the *values* are unchanged but the horizons
        still advance (idle origins keep heartbeating), so the capture
        runs on both refresh paths.
        """
        horizons = self.ums.usage_horizons()
        self._horizons = horizons
        if self.registry.enabled and horizons:
            now = self.engine.now
            for origin, h in horizons.items():
                child = self._staleness_children.get(origin)
                if child is None:
                    child = self._staleness_family.labels(origin=origin)
                    self._staleness_children[origin] = child
                child.observe(max(0.0, now - h))

    def set_projection(self, projection: Projection) -> None:
        """Switch projection algorithm (run-time configurable, Sec. III-C)."""
        self.projection = projection
        if self._result is not None:
            self._values_vec = projection.project_flat_array(self._result)
            self._values = LeafValueMap(self._result.flat.leaf_paths,
                                        self._result.flat.leaf_slot,
                                        self._values_vec)
            self._notify_listeners()

    # -- serve-plane publication hook ---------------------------------------

    def _notify_listeners(self) -> None:
        traces, self._pending_traces = self._pending_traces, []
        # the end of the causal chain: the refreshed state becomes the
        # served snapshot, still carrying the wire deltas' trace ids
        with trace.span("snapshot.publish", site=self.site) as sp:
            if sp is not None and traces:
                sp["traces"] = traces
            self._metrics["publishes"].inc()
            for listener in self._refresh_listeners:
                listener(self)

    def add_refresh_listener(self, listener: Callable[
            ["FairshareCalculationService"], None],
            fire_now: bool = True) -> None:
        """Register a post-refresh callback (snapshot publication hook).

        Listeners run synchronously at the end of every :meth:`refresh`
        (including cached-epoch hits, whose timestamp still moves) and on
        :meth:`set_projection`.  With ``fire_now`` the listener is also
        invoked immediately so a late subscriber sees the current state.
        """
        self._refresh_listeners.append(listener)
        if fire_now:
            listener(self)

    # -- queries (constant-time, from pre-computed state) ------------------

    @property
    def computed_at(self) -> float:
        return self._computed_at

    def usage_horizons(self) -> Dict[str, float]:
        """Per-origin usage horizons incorporated by the served values.

        For each known origin site, the virtual time up to which that
        site's usage is reflected in the current fairshare state; the gap
        to ``engine.now`` is the live update delay (Fig. 11).
        """
        return dict(self._horizons)

    def register_identity(self, identity: str, leaf: str) -> None:
        """Alias an external grid identity (e.g. an X.509 DN, which cannot
        be a tree node name) to a policy leaf name or path.

        The alias resolves on the next read: :meth:`lookup` answers it at
        once, a snapshot published from now on carries it, and the usage
        recorded under it folds onto the target from the next refresh.
        """
        self.identity_map[identity] = leaf
        self._alias_version += 1

    def identity_table(self) -> Mapping[str, int]:
        """Every resolvable identity -> its leaf row: the one identity rule.

        Identities are leaf paths, bare leaf names (the first leaf in
        pre-order wins), internal-node paths (row :data:`NODE_ROW`) and
        :attr:`identity_map` aliases.  An alias wins over a same-named
        path or name and resolves its target as a path or bare name, never
        through another alias; an alias whose target names nothing shadows
        a same-named leaf.

        The same table routes usage: a leaf's base usage is the sum over
        every identity it maps to that leaf's row (:meth:`_fold_usage`).

        Rows move only when :attr:`leaf_generation` does, and aliases only
        with :meth:`register_identity`, so the table is rebuilt lazily on
        the first read after either and reused otherwise.  It is replaced
        wholesale, never mutated: a snapshot holding it stays consistent,
        and the shm writer and the usage fold tell a new table from an old
        one by identity.
        """
        key = (self.leaf_generation, self._alias_version)
        if key != self._table_key:
            flat = self._flat
            rows = dict.fromkeys(flat.path_index, NODE_ROW)
            rows.update(flat.leaf_slot)
            for name, path in flat.by_name.items():
                rows[name] = flat.leaf_slot[path]
            targets = {alias: rows.get(target)
                       for alias, target in self.identity_map.items()}
            for alias, row in targets.items():
                if row is None:
                    rows.pop(alias, None)
                else:
                    rows[alias] = row
            # the inverse in CSR form: the identities naming leaf row r are
            # names[starts[r]:starts[r + 1]]: two objects for the garbage
            # collector to walk, not one list per row
            identities = list(rows)
            row_of = np.fromiter(rows.values(), dtype=np.int64,
                                 count=len(rows))
            named = np.flatnonzero(row_of < flat.n_leaves)
            order = named[np.argsort(row_of[named], kind="stable")]
            self._row_names = [identities[i] for i in order.tolist()]
            self._row_starts = np.searchsorted(
                row_of[order], np.arange(flat.n_leaves + 1)).tolist()
            self._table = rows
            self._table_key = key
        return self._table

    def _row_of(self, identity: str) -> Optional[int]:
        """The identity's leaf row, or None for unknown and internal nodes."""
        row = self.identity_table().get(identity)
        return row if row is not None and row < self._flat.n_leaves else None

    def lookup(self, identity: str) -> Tuple[float, bool]:
        """Projected value plus whether the identity is actually known.

        The fallback value for unknown identities is indistinguishable from
        a real mid-range value, so callers that need to count negative
        lookups (libaequus cache stats, the serve plane's UNKNOWN_USER
        replies) use this instead of :meth:`fairshare_value`.
        """
        row = self._row_of(identity)
        if row is None:
            return self.unknown_user_value, False
        return float(self._values_vec[row]), True

    def fairshare_value(self, identity: str) -> float:
        """Projected scalar in [0, 1] for a grid identity (leaf path or name)."""
        return self.lookup(identity)[0]

    def priority(self, identity: str) -> float:
        """The leaf-node fairshare priority (k·abs + (1−k)·rel)."""
        row = self._row_of(identity)
        if row is None:
            return self.unknown_user_value
        return float(self._result.priority[self._flat.leaf_index[row]])

    def vector(self, identity: str) -> Optional[FairshareVector]:
        """The leaf's fairshare vector (None for unknown and internal
        nodes)."""
        row = self._row_of(identity)
        if row is None:
            return None
        return self._result.vector(self._flat.leaf_paths[row])

    def values(self) -> Dict[str, float]:
        """All users' projected values (leaf path -> value)."""
        return dict(self._values)

    def values_view(self) -> Mapping[str, float]:
        """Zero-copy read-only view of the current values.

        Refreshes replace the underlying mapping wholesale (never mutate
        it), so a view taken now remains a consistent picture of this
        refresh even after later refreshes land — the basis of snapshot
        atomicity.
        """
        if isinstance(self._values, LeafValueMap):
            return self._values
        return MappingProxyType(self._values)

    def values_array(self) -> Optional[np.ndarray]:
        """Projected values as a float64 array aligned with
        ``flat_result().leaf_paths``.

        Like :meth:`values_view`, refreshes replace the array wholesale —
        a reference taken now stays a consistent picture of this refresh.
        Consumers comparing several sites' values against one shared
        policy (the fairness recorder's cross-site divergence) read this
        instead of walking the per-user dict.
        """
        return self._values_vec

    @property
    def snapshot_epoch(self):
        """Policy epoch of the last refresh (None before the first)."""
        return self._refresh_key[0] if self._refresh_key is not None else None

    def flat_result(self) -> Optional[FlatFairshare]:
        """The array-backed result of the last refresh."""
        return self._result

    def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            self._task = None
        if self._ums_cursor is not None:
            self.ums.release_totals_cursor(self._ums_cursor)
            self._ums_cursor = None
