"""Usage accounting: per-job records and per-user histograms.

Mirrors the data side of the Aequus pipeline (paper Section II-A):

* a :class:`UsageRecord` is what a resource manager reports when a job
  completes (via the job-completion plugin and ``libaequus``);
* the Usage Statistics Service aggregates records into per-user
  :class:`UsageHistogram` bins of a configurable interval — the *compact
  form* exchanged between sites ("relaying the combined usage of each user
  on each site while omitting the details of individual jobs").

Decayed per-user totals feed the fairshare kernel
(:meth:`repro.core.flat.FlatPolicy.compute`), which rolls them up the
policy tree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from .decay import DecayFunction, NoDecay

__all__ = ["UsageRecord", "UsageHistogram"]


@dataclass(frozen=True)
class UsageRecord:
    """Resource consumption of one completed job.

    ``user`` is a *grid identity* (identity resolution has already happened
    by the time a record reaches the USS).  ``charge`` is measured in
    core-seconds; for the single-core bag-of-task jobs in the paper's trace
    it equals the wall-clock duration.
    """

    user: str
    site: str
    start: float
    end: float
    cores: int = 1

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"job ends before it starts: {self.start} > {self.end}")
        if self.cores < 1:
            raise ValueError("cores must be >= 1")

    @property
    def charge(self) -> float:
        """Core-seconds consumed."""
        return (self.end - self.start) * self.cores


#: layout of an entry key: the interned user id in the high 32 bits and
#: the bin index, offset by 2**31 into [0, 2**32), in the low 32 — so
#: sorted keys group a user's entries together, oldest bin first
_BIN_OFFSET = 1 << 31
_LOW = (1 << 32) - 1
#: scalar adds buffered before they are folded into the columns
_PENDING_CAP = 4096
_EMPTY_KEYS = np.empty(0, dtype=np.int64)


def _run_starts(ids: np.ndarray) -> np.ndarray:
    """Offsets where each run of equal values in a sorted array begins."""
    if not len(ids):
        return np.empty(0, dtype=np.intp)
    starts = np.empty(len(ids), dtype=bool)
    starts[0] = True
    np.not_equal(ids[1:], ids[:-1], out=starts[1:])
    return np.flatnonzero(starts)


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values (``np.unique`` without its hashing path)."""
    values = np.sort(values)
    return values[_run_starts(values)]


def _last_wins(keys: np.ndarray, charges: np.ndarray
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort entries by key, keeping the last-listed charge of a repeated
    key — what applying them one by one would leave behind.

    Also returns which keys any of their entries set to a nonzero value:
    applied one by one, such a key changes even when a later zero deletes
    it again.
    """
    if len(keys) < 2 or (keys[1:] > keys[:-1]).all():
        return keys, charges, charges != 0
    order = np.argsort(keys, kind="stable")
    keys, charges = keys[order], charges[order]
    starts = _run_starts(keys)
    last = np.append(starts[1:], len(keys)) - 1
    return (keys[last], charges[last],
            np.logical_or.reduceat(charges != 0, starts))


def _check_bins(low: int, high: int) -> None:
    if low < -_BIN_OFFSET or high >= _BIN_OFFSET:
        raise ValueError("bin index outside the signed 32-bit range")


class UsageHistogram:
    """Per-user usage aggregated into fixed time intervals.

    Bin ``i`` covers ``[i * interval, (i+1) * interval)``.  A job's charge is
    split proportionally across the bins its runtime overlaps, so totals are
    conserved regardless of binning (a property test guards this).

    Storage is columnar (DESIGN.md §7): user names are interned to ids,
    and every ``(user, bin)`` entry is one int64 key (id in the high 32
    bits, bin in the low 32) in a sorted key column with a float64 charge
    column beside it, so a user's entries are one contiguous run.  Scalar
    adds (:meth:`add_charge`, :meth:`add_bin`) append to a small pending
    buffer that is folded in — in arrival order, so every stored value is
    bit-identical to adding one by one — before the next read, drain or
    batch operation, or when the buffer fills.

    Consumers that need to know *what changed* (the USS delta exchange, the
    incremental UMS refresh) register a **change cursor**: every mutated
    entry's key is recorded against all registered cursors as an array,
    and :meth:`drain_cursor_keys` hands back (and resets) the sorted
    distinct keys marked since the last drain.
    """

    def __init__(self, interval: float = 3600.0):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = float(interval)
        #: interned users: id -> name and name -> id (ids are never reused)
        self._names: List[str] = []
        self._uid: Dict[str, int] = {}
        #: sorted entry keys and their charges.  The key column is only
        #: ever replaced, never written in place, so cursors may keep it.
        self._keys = _EMPTY_KEYS
        self._charges = np.empty(0, dtype=np.float64)
        #: scalar adds not folded in yet, in arrival order
        self._pending_keys: List[int] = []
        self._pending_charges: List[float] = []
        #: lower bound on the oldest stored bin (None when empty): lets
        #: :meth:`prune` return without a scan when nothing can be stale
        self._oldest: Optional[int] = None
        #: cursor id -> key arrays marked dirty since its last drain
        self._cursors: Dict[int, List[np.ndarray]] = {}
        self._cursor_ids = itertools.count()

    # -- columns -----------------------------------------------------------

    def _intern(self, user: str) -> int:
        uid = self._uid.get(user)
        if uid is None:
            uid = len(self._names)
            self._names.append(user)
            self._uid[user] = uid
        return uid

    @staticmethod
    def _bins_of(keys: np.ndarray) -> np.ndarray:
        return (keys & _LOW) - _BIN_OFFSET

    def _weights(self, keys: np.ndarray, now: float,
                 decay: DecayFunction) -> np.ndarray:
        """Decay weight of each entry's bin midpoint at ``now``.

        Bins are global time slots, so entries share few distinct ages:
        when the bins span fewer slots than there are entries, the decay
        runs once per slot and the entries gather from that table.
        """
        bins = self._bins_of(keys)
        first = int(bins.min())
        span = int(bins.max()) - first + 1
        if span >= len(bins):
            return decay.weights(self._ages(bins, now))
        table = decay.weights(self._ages(np.arange(first, first + span), now))
        return table[bins - first]

    def _ages(self, bins: np.ndarray, now: float) -> np.ndarray:
        """Age of each bin's midpoint at ``now``, clamped at zero."""
        return np.maximum(now - (bins + 0.5) * self.interval, 0.0)

    def _find(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Where ``keys`` sit in the key column, and which are stored."""
        pos = np.searchsorted(self._keys, keys)
        if not len(self._keys):
            return pos, np.zeros(len(keys), dtype=bool)
        # a key past the end clips to the largest stored key, which is
        # smaller, so it reads as absent
        return pos, self._keys.take(pos, mode="clip") == keys

    def _insert(self, keys: np.ndarray, charges: np.ndarray) -> None:
        """Insert sorted, distinct, not yet stored entries (the mask
        ``np.insert`` builds, shared by both columns)."""
        at = np.searchsorted(self._keys, keys) + np.arange(len(keys))
        kept = np.ones(len(self._keys) + len(keys), dtype=bool)
        kept[at] = False
        self._keys = self._merged(self._keys, kept, at, keys)
        self._charges = self._merged(self._charges, kept, at, charges)
        oldest = int(self._bins_of(keys).min())
        if self._oldest is None or oldest < self._oldest:
            self._oldest = oldest

    @staticmethod
    def _merged(column: np.ndarray, kept: np.ndarray, at: np.ndarray,
                values: np.ndarray) -> np.ndarray:
        out = np.empty(len(kept), dtype=column.dtype)
        out[kept] = column
        out[at] = values
        return out

    def _delete(self, pos: np.ndarray) -> None:
        kept = np.ones(len(self._keys), dtype=bool)
        kept[pos] = False
        self._keys = self._keys[kept]
        self._charges = self._charges[kept]

    def _fold(self) -> None:
        """Fold the pending scalar adds into the columns."""
        if not self._pending_keys:
            return
        keys = np.array(self._pending_keys, dtype=np.int64)
        charges = np.array(self._pending_charges, dtype=np.float64)
        self._pending_keys = []
        self._pending_charges = []
        self._accumulate(keys, charges)

    def _accumulate(self, keys: np.ndarray, charges: np.ndarray) -> None:
        """Add ``charges`` onto their entries (new ones start at 0.0).

        ``np.add.at`` is unbuffered and runs in array order, so a key
        listed twice sums exactly as two sequential adds would.
        """
        distinct = _sorted_unique(keys)
        _pos, found = self._find(distinct)
        if not found.all():
            fresh = distinct[~found]
            self._insert(fresh, np.zeros(len(fresh)))
        np.add.at(self._charges, np.searchsorted(self._keys, keys), charges)
        if self._cursors:
            self._mark(distinct)

    def _apply(self, keys: np.ndarray, charges: np.ndarray,
               touched: np.ndarray) -> None:
        """Set absolute values for sorted distinct keys (0 deletes);
        ``touched`` flags the keys :func:`_last_wins` saw set nonzero."""
        self._fold()
        pos, found = self._find(keys)
        live = charges != 0
        hit = found & live
        self._charges[pos[hit]] = charges[hit]
        gone = found & ~live
        if gone.any():
            self._delete(pos[gone])
        new = ~found & live
        if new.any():
            self._insert(keys[new], charges[new])
        if self._cursors:
            # deleting an absent entry is no change
            self._mark(keys[found | touched])

    def _replace_all(self, keys: np.ndarray, charges: np.ndarray,
                     touched: np.ndarray) -> None:
        """Make the columns exactly these sorted distinct entries; every
        entry of the old state and every ``touched`` key counts as
        changed."""
        self._fold()
        if self._cursors:
            self._mark(_sorted_unique(np.concatenate((self._keys, touched))))
        self._keys = keys
        self._charges = charges
        self._oldest = (int(self._bins_of(keys).min()) if len(keys)
                        else None)

    def _keys_of(self, user_table: Sequence[str], user_idx: Sequence[int],
                 bin_idx: Sequence[int]) -> np.ndarray:
        uids = np.fromiter((self._intern(u) for u in user_table),
                           dtype=np.int64, count=len(user_table))
        bins = np.asarray(bin_idx, dtype=np.int64)
        if len(bins):
            _check_bins(int(bins.min()), int(bins.max()))
        return ((uids[np.asarray(user_idx, dtype=np.intp)] << 32)
                + (bins + _BIN_OFFSET))

    def _arrays(self, keys: np.ndarray, charges: np.ndarray
                ) -> Tuple[List[str], np.ndarray, np.ndarray, np.ndarray]:
        """Sorted keys as ``(user_table, user_idx, bin_idx, charges)``."""
        uids = keys >> 32
        starts = _run_starts(uids)
        user_table = [self._names[u] for u in uids[starts].tolist()]
        user_idx = np.repeat(np.arange(len(starts), dtype=np.uint32),
                             np.diff(np.append(starts, len(keys))))
        return (user_table, user_idx,
                self._bins_of(keys).astype(np.int32), charges)

    def _user_range(self, user: str) -> Tuple[int, int]:
        """The slice of the columns holding ``user``'s entries."""
        self._fold()
        uid = self._uid.get(user)
        if uid is None:
            return 0, 0
        lo, hi = np.searchsorted(self._keys, [uid << 32, (uid + 1) << 32])
        return int(lo), int(hi)

    # -- change tracking ---------------------------------------------------

    def register_cursor(self) -> int:
        """Start tracking mutations; returns a cursor id for draining."""
        self._fold()  # adds made before registration are not its changes
        cursor = next(self._cursor_ids)
        self._cursors[cursor] = []
        return cursor

    def drain_cursor_keys(self, cursor: int) -> np.ndarray:
        """Sorted distinct keys changed since the last drain; resets.

        A key's entry may since have been deleted: read current values
        with :meth:`current_arrays`, which reports those as 0.0.
        """
        self._fold()
        marked = self._cursors[cursor]
        self._cursors[cursor] = []
        if len(marked) < 2:  # each mark is already sorted and distinct
            return marked[0] if marked else _EMPTY_KEYS
        return _sorted_unique(np.concatenate(marked))

    def drain_cursor(self, cursor: int) -> Dict[str, Set[int]]:
        """Dirty ``user -> bins`` accumulated since the last drain; resets."""
        keys = self.drain_cursor_keys(cursor)
        dirty: Dict[str, Set[int]] = {}
        for uid, b in zip((keys >> 32).tolist(), self._bins_of(keys).tolist()):
            dirty.setdefault(self._names[uid], set()).add(b)
        return dirty

    def release_cursor(self, cursor: int) -> None:
        self._cursors.pop(cursor, None)

    def _mark(self, keys: np.ndarray) -> None:
        for marked in self._cursors.values():
            marked.append(keys)
            if len(marked) > 32:  # an idle cursor: bound what it holds
                marked[:] = [_sorted_unique(np.concatenate(marked))]

    def users_of(self, keys: np.ndarray) -> List[str]:
        """Names of the users sorted ``keys`` (a cursor drain) belong to."""
        uids = keys >> 32
        return [self._names[u] for u in uids[_run_starts(uids)].tolist()]

    # -- recording ---------------------------------------------------------

    def add_record(self, record: UsageRecord) -> None:
        self.add_charge(record.user, record.start, record.end, record.cores)

    def add_charge(self, user: str, start: float, end: float, cores: int = 1) -> None:
        """Distribute ``cores * (end - start)`` across overlapped bins."""
        if end < start:
            raise ValueError("end < start")
        if end == start:
            return
        interval = self.interval
        first = int(start // interval)
        last = int(end // interval)
        _check_bins(first, last)
        base = (self._intern(user) << 32) + _BIN_OFFSET
        keys, charges = self._pending_keys, self._pending_charges
        for b in range(first, last + 1):
            lo = max(start, b * interval)
            hi = min(end, (b + 1) * interval)
            if hi > lo:
                keys.append(base + b)
                charges.append((hi - lo) * cores)
        if len(keys) >= _PENDING_CAP:
            self._fold()

    def add_bin(self, user: str, bin_index: int, charge: float) -> None:
        """Merge a pre-aggregated bin (used when ingesting remote usage)."""
        if charge < 0:
            raise ValueError("charge must be non-negative")
        if charge == 0:
            return
        bin_index = int(bin_index)
        _check_bins(bin_index, bin_index)
        self._pending_keys.append(
            (self._intern(user) << 32) + _BIN_OFFSET + bin_index)
        self._pending_charges.append(charge)
        if len(self._pending_keys) >= _PENDING_CAP:
            self._fold()

    def set_bin(self, user: str, bin_index: int, charge: float) -> None:
        """Overwrite a bin with an absolute value; ``charge == 0`` deletes.

        The one-entry form of :meth:`apply_arrays`, the receiving end of
        the delta exchange: senders transmit *current bin values* (not
        increments), so applying an entry twice — or applying a later
        full snapshot over it — is idempotent.
        """
        if charge < 0:
            raise ValueError("charge must be non-negative")
        if charge == 0 and user not in self._uid:
            return
        charges = np.array([charge], dtype=np.float64)
        self._apply(self._keys_of([user], [0], [bin_index]), charges,
                    charges != 0)

    # -- queries ----------------------------------------------------------

    @property
    def users(self) -> List[str]:
        self._fold()
        return sorted(self.users_of(self._keys))

    def has_user(self, user: str) -> bool:
        lo, hi = self._user_range(user)
        return hi > lo

    def user_bins(self, user: str) -> Dict[int, float]:
        lo, hi = self._user_range(user)
        return dict(zip(self._bins_of(self._keys[lo:hi]).tolist(),
                        self._charges[lo:hi].tolist()))

    def bin_value(self, user: str, bin_index: int) -> float:
        """Current value of one bin (0.0 when absent)."""
        uid = self._uid.get(user)
        if uid is None:
            return 0.0
        self._fold()
        key = np.array([(uid << 32) + _BIN_OFFSET + int(bin_index)])
        pos, found = self._find(key)
        return float(self._charges[pos[0]]) if found[0] else 0.0

    def newest_midpoint(self, user: str) -> Optional[float]:
        """Midpoint time of the user's newest bin (None if unknown).

        The incremental UMS uses this to decide whether a user's decayed
        total can be age-shifted analytically: that is exact only once every
        bin midpoint lies in the past of the previous refresh.
        """
        lo, hi = self._user_range(user)
        if lo == hi:
            return None
        return (int(self._bins_of(self._keys[hi - 1])) + 0.5) * self.interval

    def newest_midpoints(self) -> Dict[str, float]:
        """``newest_midpoint`` for every user in one pass."""
        self._fold()
        if not len(self._keys):
            return {}
        uids = self._keys >> 32
        ends = np.append(_run_starts(uids)[1:], len(uids)) - 1
        mids = (self._bins_of(self._keys[ends]) + 0.5) * self.interval
        return dict(zip(self.users_of(self._keys), mids.tolist()))

    def total(self, user: Optional[str] = None) -> float:
        if user is not None:
            lo, hi = self._user_range(user)
            return sum(self._charges[lo:hi].tolist())
        self._fold()
        return float(self._charges.sum())

    def decayed_total(self, user: str, now: float,
                      decay: Optional[DecayFunction] = None) -> float:
        """Usage of ``user`` with ``decay`` applied at bin midpoints."""
        decay = decay or NoDecay()
        lo, hi = self._user_range(user)
        if lo == hi:
            return 0.0
        ages = self._ages(self._bins_of(self._keys[lo:hi]), now)
        return float(np.dot(self._charges[lo:hi], decay.weights(ages)))

    def decayed_totals(self, now: float,
                       decay: Optional[DecayFunction] = None) -> Dict[str, float]:
        """Decayed usage of every user in one vectorized pass: the decay
        weights of the whole charge column, then one segmented sum over
        the users' runs."""
        decay = decay or NoDecay()
        self._fold()
        if not len(self._keys):
            return {}
        weighted = self._charges * self._weights(self._keys, now, decay)
        sums = np.add.reduceat(weighted, _run_starts(self._keys >> 32))
        return dict(zip(self.users_of(self._keys), sums.tolist()))

    def user_stats(self, users: Sequence[str], now: float,
                   decay: Optional[DecayFunction] = None
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decayed total and newest bin midpoint of a *subset* of users.

        Returns three arrays aligned with ``users``: whether the user
        holds any entry here, the decayed total (0.0 when not), and the
        newest bin midpoint (``-inf`` when not).  The users' runs are
        located with two binary searches each and gathered in one go, so
        the cost follows the entries of ``users``, not the histogram.
        """
        decay = decay or NoDecay()
        self._fold()
        n = len(users)
        get = self._uid.get
        uids = np.fromiter((get(u, -1) for u in users), dtype=np.int64,
                           count=n)
        lo = np.searchsorted(self._keys, uids << 32)
        hi = np.searchsorted(self._keys, (uids + 1) << 32)
        counts = hi - lo
        present = counts > 0
        totals = np.zeros(n)
        mids = np.full(n, -np.inf)
        total = int(counts.sum())
        if not total:
            return present, totals, mids
        starts = np.cumsum(counts) - counts
        idx = np.arange(total) + np.repeat(lo - starts, counts)
        weighted = self._charges[idx] * self._weights(self._keys[idx], now,
                                                      decay)
        totals[present] = np.add.reduceat(weighted, starts[present])
        newest = self._bins_of(self._keys[hi[present] - 1])
        mids[present] = (newest + 0.5) * self.interval
        return present, totals, mids

    def decayed_totals_batch(self, users: Sequence[str], now: float,
                             decay: Optional[DecayFunction] = None
                             ) -> Dict[str, float]:
        """Decayed totals for a *subset* of users (:meth:`user_stats`).

        Only users present in this histogram appear in the result (the
        caller treats absence as "pruned everywhere", like
        :meth:`decayed_total` returning 0 for unknown users would not).
        """
        present, totals, _ = self.user_stats(users, now, decay)
        return {u: t for u, t, p in zip(users, totals.tolist(),
                                        present.tolist()) if p}

    # -- maintenance -------------------------------------------------------

    def n_bins(self, user: Optional[str] = None) -> int:
        """Number of stored (user, bin) entries — the USS memory footprint."""
        if user is not None:
            lo, hi = self._user_range(user)
            return hi - lo
        self._fold()
        return len(self._keys)

    def prune(self, now: float, horizon: float) -> float:
        """Drop bins whose entire interval lies more than ``horizon`` in
        the past; returns the charge discarded.

        Long-running USS instances bound their memory this way: with an
        exponential decay of half-life *h*, a horizon of ~20 h discards
        only weight below 1e-6; with window decays, the window itself is
        the natural horizon.  Pruning never touches bins that still carry
        decay weight inside the horizon.
        """
        if horizon < 0:
            raise ValueError("horizon must be non-negative")
        self._fold()
        cutoff = now - horizon
        if self._oldest is None or (self._oldest + 1) * self.interval > cutoff:
            return 0.0
        bins = self._bins_of(self._keys)
        stale = (bins + 1) * self.interval <= cutoff
        kept = ~stale
        dropped = float(self._charges[stale].sum())
        if self._cursors and stale.any():
            self._mark(self._keys[stale])
        self._keys = self._keys[kept]
        self._charges = self._charges[kept]
        self._oldest = int(bins[kept].min()) if kept.any() else None
        return dropped

    # -- exchange ----------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[int, float]]:
        """Per-user per-bin totals as plain dicts (tests, equivalence checks)."""
        self._fold()
        user_table, user_idx, bin_idx, charges = self._arrays(
            self._keys, self._charges)
        bounds = np.append(_run_starts(user_idx), len(user_idx)).tolist()
        bins, values = bin_idx.tolist(), charges.tolist()
        return {user: dict(zip(bins[a:b], values[a:b]))
                for user, a, b in zip(user_table, bounds, bounds[1:])}

    def snapshot_arrays(self) -> Tuple[List[str], np.ndarray, np.ndarray,
                                       np.ndarray]:
        """Full state as the compact array wire format.

        Returns ``(user_table, user_idx, bin_idx, charges)``: each entry
        ``j`` states that user ``user_table[user_idx[j]]`` holds charge
        ``charges[j]`` in bin ``bin_idx[j]`` — every user name is spelled
        out once instead of once per bin.  The index columns are
        ``uint32``/``int32`` and the charges ``float64``, the grid frame's
        column types.
        """
        self._fold()
        return self._arrays(self._keys, self._charges.copy())

    def current_arrays(self, keys: np.ndarray
                       ) -> Tuple[List[str], np.ndarray, np.ndarray, np.ndarray]:
        """Current values of sorted distinct ``keys`` (a cursor drain) in
        the :meth:`snapshot_arrays` format; a deleted entry reads 0.0."""
        self._fold()
        pos, found = self._find(keys)
        charges = np.zeros(len(keys))
        charges[found] = self._charges[pos[found]]
        return self._arrays(keys, charges)

    def apply_arrays(self, user_table: Sequence[str], user_idx: Sequence[int],
                     bin_idx: Sequence[int], charges: Sequence[float],
                     full: bool = False) -> None:
        """Apply compact-array entries in place (the delta-exchange receiver).

        Entries carry *absolute* bin values (0 deletes); the whole batch
        is one sorted merge into the columns.  A key listed twice keeps
        its last value, as applying the entries one by one would.  With
        ``full=True`` the arrays describe the sender's complete state:
        entries not listed are removed, so the call is equivalent to
        :meth:`replace` but keeps change cursors informed.
        """
        charges = np.asarray(charges, dtype=np.float64)
        if (charges < 0).any():
            raise ValueError("charge must be non-negative")
        keys, charges, touched = _last_wins(
            self._keys_of(user_table, user_idx, bin_idx), charges)
        if full:
            live = charges != 0
            self._replace_all(keys[live], charges[live], keys[touched])
        else:
            self._apply(keys, charges, touched)

    def replace(self, snapshot: Mapping[str, Mapping[int, float]]) -> None:
        """Overwrite contents with a snapshot (remote-site bookkeeping).

        Registered cursors see every entry of both the old and the new
        state as dirty — a full replacement gives no finer information.
        """
        user_table = list(snapshot)
        user_idx = [i for i, u in enumerate(user_table) for _ in snapshot[u]]
        bin_idx = [int(b) for u in user_table for b in snapshot[u]]
        charges = np.array([float(c) for u in user_table
                            for c in snapshot[u].values()], dtype=np.float64)
        keys = self._keys_of(user_table, user_idx, bin_idx)
        order = np.argsort(keys, kind="stable")
        self._replace_all(keys[order], charges[order], keys)

    def merge(self, other: "UsageHistogram") -> None:
        """Add another histogram's contents into this one.

        Requires matching intervals (bins would not line up otherwise).
        """
        if other.interval != self.interval:
            raise ValueError(
                f"cannot merge histograms with intervals {self.interval} != {other.interval}")
        other._fold()
        if (other._charges < 0).any():
            raise ValueError("charge must be non-negative")
        live = other._charges != 0
        remap = np.fromiter((self._intern(u) for u in other._names),
                            dtype=np.int64, count=len(other._names))
        keys = other._keys[live]
        self._fold()
        self._accumulate((remap[keys >> 32] << 32) | (keys & _LOW),
                         other._charges[live])

    @classmethod
    def merged(cls, histograms: Iterable["UsageHistogram"],
               interval: Optional[float] = None) -> "UsageHistogram":
        histograms = list(histograms)
        if interval is None:
            if not histograms:
                raise ValueError("need an interval or at least one histogram")
            interval = histograms[0].interval
        out = cls(interval)
        for h in histograms:
            out.merge(h)
        return out
