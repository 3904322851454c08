"""Atomic fairshare snapshots for the serve plane.

Every FCS refresh publishes one :class:`FairshareSnapshot`: an immutable,
read-optimized view of the refresh result (projected values, identity
table, policy epoch, publish sequence number, computation timestamp).
Readers in other threads pick up the *current* snapshot with a single
attribute read — publication is one reference assignment, so a reader
observes either the whole previous refresh or the whole new one, never a
mix.  A batch of queries resolves the snapshot once and serves every key
from it, which is what makes torn batches impossible by construction.

The store never blocks readers and the publisher never waits for readers:
old snapshots stay alive for exactly as long as someone holds a reference.

Both epoch types — this in-process snapshot and the shared-memory
:class:`~repro.serve.shm.ShmEpochView` — serve one read surface,
:class:`EpochReads`, written once over a per-type identity table
(``rows.get``) and values array (``values_vec``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..core.vector import FairshareVector
from .protocol import ERR_NOT_A_LEAF, ERR_UNKNOWN_USER, NO_LEAF_ID

if TYPE_CHECKING:
    from ..core.flat import FlatFairshare
    from ..services.fcs import FairshareCalculationService

__all__ = ["EpochReads", "FairshareSnapshot", "SnapshotStore",
           "snapshot_from_fcs", "staleness_verdict"]


def staleness_verdict(age: float, refresh_interval: float) -> str:
    """Coarse freshness verdict against the refresh cadence.

    ``"fresh"`` within one refresh interval, ``"stale"`` within three,
    ``"dead"`` beyond that (the refresh loop has almost certainly stopped).
    """
    if age <= refresh_interval:
        return "fresh"
    if age <= 3 * refresh_interval:
        return "stale"
    return "dead"


class EpochReads:
    """The read surface of one published epoch, whichever backend holds it.

    A subclass provides ``rows`` (the FCS identity table: anything with
    ``get(identity) -> row or None``), ``values_vec`` (projected values by
    leaf row), :meth:`vector_elements`, and the scalars ``seq``, ``site``,
    ``epoch``, ``projection``, ``resolution``, ``computed_at``,
    ``unknown_user_value`` and ``horizons``.  A row at or past the leaf
    count is an internal node: known to the table, but no leaf.
    """

    __slots__ = ()

    def lookup(self, identity: str) -> Tuple[float, bool]:
        """Projected value and whether the identity names a leaf."""
        return self.resolve_leaf(identity)[:2]

    def resolve_leaf(self, identity: str) -> Tuple[float, bool, int]:
        """(value, known, leaf id) — the binary GET_FAIRSHARE triple.

        The leaf id is the identity's row (valid for this epoch's
        ``leaf_gen``), or :data:`NO_LEAF_ID` when the identity names no
        leaf.
        """
        row = self.rows.get(identity)
        vec = self.values_vec
        if row is None or row >= len(vec):
            return self.unknown_user_value, False, NO_LEAF_ID
        return float(vec[row]), True, row

    def lookup_id(self, leaf_id: int) -> Optional[float]:
        """Projected value by leaf row (binary by-id fast path)."""
        vec = self.values_vec
        if 0 <= leaf_id < len(vec):
            return float(vec[leaf_id])
        return None

    def values_for_ids(self, ids: np.ndarray
                       ) -> Tuple[np.ndarray, np.ndarray]:
        """(values, known) arrays for a batch of leaf rows."""
        vec = self.values_vec
        n = len(vec)
        if n == 0:
            return (np.full(len(ids), self.unknown_user_value),
                    np.zeros(len(ids), dtype=bool))
        known = (ids >= 0) & (ids < n)
        values = np.where(known, vec[np.clip(ids, 0, n - 1)],
                          self.unknown_user_value)
        return values, known

    def vector(self, identity: str) -> Optional[FairshareVector]:
        """Leaf fairshare vector, or None for unknown/non-leaf identities."""
        _, known, row = self.resolve_leaf(identity)
        if not known:
            return None
        return FairshareVector(self.vector_elements(row), self.resolution)

    def vector_error_code(self, identity: str) -> str:
        """Why :meth:`vector` answered None: NOT_A_LEAF for an internal
        node (or an alias of one), UNKNOWN_USER for anything unresolvable."""
        if self.rows.get(identity) is None:
            return ERR_UNKNOWN_USER
        return ERR_NOT_A_LEAF

    def age(self, now: float) -> float:
        return max(0.0, now - self.computed_at)

    def staleness(self, now: float) -> Dict[str, float]:
        """Per-origin usage-horizon age: how far behind ``now`` each
        origin's incorporated usage is (zero-clamped)."""
        return {origin: max(0.0, now - horizon)
                for origin, horizon in self.horizons.items()}

    def describe(self) -> Dict[str, Any]:
        """JSON-ready summary (INFO replies, `repro probe`)."""
        return {
            "site": self.site,
            "seq": self.seq,
            "epoch": list(self.epoch) if isinstance(self.epoch, tuple)
            else self.epoch,
            "computed_at": self.computed_at,
            "projection": self.projection,
            "users": len(self.values_vec),
            "origins": len(self.horizons),
        }

    def info(self, now: float, refresh_interval: float) -> Dict[str, Any]:
        """The INFO reply's snapshot fields, as of ``now``."""
        age = self.age(now)
        payload: Dict[str, Any] = {
            "snapshot": self.describe(),
            "snapshot_age": age,
            "staleness": staleness_verdict(age, refresh_interval),
        }
        if self.horizons:
            # per-origin freshness: the usage horizon the served values
            # incorporate, and how far behind "now" that is
            payload["usage_horizons"] = {
                origin: {"horizon": horizon,
                         "staleness": max(0.0, now - horizon)}
                for origin, horizon in sorted(self.horizons.items())}
        return payload


@dataclass(frozen=True)
class FairshareSnapshot(EpochReads):
    """One refresh worth of servable fairshare state.

    ``values`` is a read-only view and ``rows`` the FCS's identity table;
    the FCS replaces both wholesale (it never mutates them in place), so a
    snapshot taken at publish time stays internally consistent forever —
    an alias registered later is not in it.
    """

    site: str
    #: monotonically increasing publish number (the FCS refresh counter)
    seq: int
    #: policy epoch the refresh was computed against
    epoch: Any
    #: virtual-clock time of the refresh
    computed_at: float
    projection: str
    resolution: int
    unknown_user_value: float
    #: leaf path -> projected value (a view over ``values_vec``)
    values: Mapping[str, float]
    #: identity -> leaf row (:meth:`FairshareCalculationService.identity_table`)
    rows: Mapping[str, int]
    #: the array-backed refresh result, for vector queries
    result: "FlatFairshare"
    #: projected values as a float64 array aligned with
    #: ``result.leaf_paths`` (the shared-memory publisher's payload)
    values_vec: np.ndarray
    #: per-origin usage horizons (virtual time) incorporated by ``values``
    #: — the freshness contract of this snapshot (DESIGN.md §10)
    horizons: Mapping[str, float] = field(default_factory=dict)
    #: leaf-table generation — bumps when the policy recompiles and leaf
    #: row numbers may change; tags binary-protocol leaf ids
    leaf_gen: int = 0

    def fairshare_value(self, identity: str) -> float:
        return self.lookup(identity)[0]

    # -- seqlock surface (shared with ShmEpochView) --------------------------

    def stamp(self) -> int:
        """Seqlock stamp: immutable snapshots are trivially stable (the
        shared-memory epoch views give this method real teeth)."""
        return 0

    def still(self, stamp: int) -> bool:
        return True

    def vector_elements(self, leaf_id: int) -> Optional[List[float]]:
        depths = self.result.leaf_depths
        if not (0 <= leaf_id < len(depths)):
            return None
        matrix = self.result.element_matrix()
        return matrix[leaf_id, :int(depths[leaf_id])].tolist()


def snapshot_from_fcs(fcs: "FairshareCalculationService") -> FairshareSnapshot:
    """Build an immutable snapshot of the FCS's last refresh."""
    return FairshareSnapshot(
        site=fcs.site,
        seq=fcs.publishes,
        epoch=fcs.snapshot_epoch,
        computed_at=fcs.computed_at,
        projection=type(fcs.projection).__name__,
        resolution=fcs.parameters.resolution,
        unknown_user_value=fcs.unknown_user_value,
        values=fcs.values_view(),
        rows=fcs.identity_table(),
        result=fcs.flat_result(),
        values_vec=fcs.values_array(),
        horizons=fcs.usage_horizons(),
        leaf_gen=fcs.leaf_generation,
    )


class SnapshotStore:
    """Single-writer, many-reader holder of the current snapshot.

    ``publish`` is called from the thread driving the FCS (the simulation
    or daemon tick thread); ``current`` from any number of server threads.
    The handoff is one attribute assignment — atomic under the GIL — so no
    reader ever blocks and no reader ever sees a half-published state.
    """

    def __init__(self) -> None:
        self._current: Optional[FairshareSnapshot] = None
        self._cond = threading.Condition()
        self.published = 0

    # -- writer side --------------------------------------------------------

    def publish(self, snapshot: FairshareSnapshot) -> None:
        self._current = snapshot
        with self._cond:
            self.published += 1
            self._cond.notify_all()

    def attach(self, fcs: "FairshareCalculationService") -> "SnapshotStore":
        """Publish on every FCS refresh (and once now, for the last one)."""
        fcs.add_refresh_listener(lambda f: self.publish(snapshot_from_fcs(f)))
        return self

    # -- reader side --------------------------------------------------------

    def current(self) -> Optional[FairshareSnapshot]:
        return self._current

    def age(self, now: float) -> Optional[float]:
        """Seconds since the current snapshot was computed (None if none)."""
        snap = self._current
        return snap.age(now) if snap is not None else None

    def staleness(self, now: float,
                  refresh_interval: float) -> Optional[str]:
        """:func:`staleness_verdict` of the current snapshot's age; None
        before the first publication."""
        age = self.age(now)
        if age is None:
            return None
        return staleness_verdict(age, refresh_interval)

    def wait_for_seq(self, seq: int, timeout: Optional[float] = None) -> bool:
        """Block until a snapshot with ``seq >= seq`` is published."""
        with self._cond:
            return self._cond.wait_for(
                lambda: self._current is not None and self._current.seq >= seq,
                timeout)

    @classmethod
    def for_fcs(cls, fcs: "FairshareCalculationService") -> "SnapshotStore":
        return cls().attach(fcs)
