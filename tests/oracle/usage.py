"""The dict-of-dict usage histogram: the reference for the columnar one.

:class:`repro.core.usage.UsageHistogram` stores sorted ``(user, bin)`` key
and charge columns; this is the plain ``{user: {bin: charge}}`` layout it
replaced, kept verbatim as the oracle of
``tests/property/test_usage_oracle.py``: a random schedule of mutations
and cursor drains applied to both must leave them holding exactly the
same snapshot and draining exactly the same dirty sets.  Slow on purpose;
``src/repro`` never imports it.
"""

import itertools
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.decay import DecayFunction, NoDecay
from repro.core.usage import UsageRecord


class UsageHistogram:
    """Per-user usage aggregated into fixed time intervals.

    Bin ``i`` covers ``[i * interval, (i+1) * interval)``.  A job's charge is
    split proportionally across the bins its runtime overlaps, so totals are
    conserved regardless of binning (a property test guards this).

    Consumers that need to know *what changed* (the USS delta exchange, the
    incremental UMS refresh) register a **change cursor**: every mutation of
    a ``(user, bin)`` entry is recorded against all registered cursors, and
    :meth:`drain_cursor` hands back (and resets) the accumulated dirty set.
    When no cursor is registered, mutations pay a single truthiness check.
    """

    def __init__(self, interval: float = 3600.0):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = float(interval)
        self._bins: Dict[str, Dict[int, float]] = {}
        #: bin index -> the one int object every user's entry for it keys
        #: on: bins are global time slots, so without this each (user, bin)
        #: entry holds its own 32-byte copy of the same index
        self._bin_keys: Dict[int, int] = {}
        #: cursor id -> {user -> set of dirty bin indexes since last drain}
        self._cursors: Dict[int, Dict[str, Set[int]]] = {}
        self._cursor_ids = itertools.count()

    # -- change tracking ---------------------------------------------------

    def register_cursor(self) -> int:
        """Start tracking mutations; returns a cursor id for draining."""
        cursor = next(self._cursor_ids)
        self._cursors[cursor] = {}
        return cursor

    def drain_cursor(self, cursor: int) -> Dict[str, Set[int]]:
        """Dirty ``user -> bins`` accumulated since the last drain; resets."""
        dirty = self._cursors[cursor]
        self._cursors[cursor] = {}
        return dirty

    def release_cursor(self, cursor: int) -> None:
        self._cursors.pop(cursor, None)

    def _mark(self, user: str, bin_index: int) -> None:
        for pending in self._cursors.values():
            pending.setdefault(user, set()).add(bin_index)

    def _mark_all_of(self, user: str, bins: Iterable[int]) -> None:
        bins = set(bins)
        for pending in self._cursors.values():
            pending.setdefault(user, set()).update(bins)

    # -- recording ---------------------------------------------------------

    def add_record(self, record: UsageRecord) -> None:
        self.add_charge(record.user, record.start, record.end, record.cores)

    def add_charge(self, user: str, start: float, end: float, cores: int = 1) -> None:
        """Distribute ``cores * (end - start)`` across overlapped bins."""
        if end < start:
            raise ValueError("end < start")
        if end == start:
            return
        user_bins = self._bins.setdefault(user, {})
        keys = self._bin_keys
        first = int(start // self.interval)
        last = int(end // self.interval)
        for b in range(first, last + 1):
            b = keys.setdefault(b, b)
            lo = max(start, b * self.interval)
            hi = min(end, (b + 1) * self.interval)
            if hi > lo:
                user_bins[b] = user_bins.get(b, 0.0) + (hi - lo) * cores
                if self._cursors:
                    self._mark(user, b)

    def add_bin(self, user: str, bin_index: int, charge: float) -> None:
        """Merge a pre-aggregated bin (used when ingesting remote usage)."""
        if charge < 0:
            raise ValueError("charge must be non-negative")
        if charge == 0:
            return
        user_bins = self._bins.setdefault(user, {})
        bin_index = self._bin_keys.setdefault(bin_index, bin_index)
        user_bins[bin_index] = user_bins.get(bin_index, 0.0) + charge
        if self._cursors:
            self._mark(user, bin_index)

    def set_bin(self, user: str, bin_index: int, charge: float) -> None:
        """Overwrite a bin with an absolute value; ``charge == 0`` deletes.

        This is the receiving end of the delta exchange: senders transmit
        *current bin values* (not increments), so applying an entry twice —
        or applying a later full snapshot over it — is idempotent.
        """
        if charge < 0:
            raise ValueError("charge must be non-negative")
        if charge == 0:
            user_bins = self._bins.get(user)
            if user_bins is None or bin_index not in user_bins:
                return
            del user_bins[bin_index]
            if not user_bins:
                del self._bins[user]
        else:
            bin_index = self._bin_keys.setdefault(bin_index, bin_index)
            self._bins.setdefault(user, {})[bin_index] = charge
        if self._cursors:
            self._mark(user, bin_index)

    # -- queries ----------------------------------------------------------

    @property
    def users(self) -> List[str]:
        return sorted(self._bins)

    def has_user(self, user: str) -> bool:
        return user in self._bins

    def user_bins(self, user: str) -> Dict[int, float]:
        return dict(self._bins.get(user, {}))

    def bin_value(self, user: str, bin_index: int) -> float:
        """Current value of one bin (0.0 when absent)."""
        return self._bins.get(user, {}).get(bin_index, 0.0)

    def newest_midpoint(self, user: str) -> Optional[float]:
        """Midpoint time of the user's newest bin (None if unknown).

        The incremental UMS uses this to decide whether a user's decayed
        total can be age-shifted analytically: that is exact only once every
        bin midpoint lies in the past of the previous refresh.
        """
        bins = self._bins.get(user)
        if not bins:
            return None
        return (max(bins) + 0.5) * self.interval

    def newest_midpoints(self) -> Dict[str, float]:
        """``newest_midpoint`` for every user in one pass."""
        return {u: (max(b) + 0.5) * self.interval
                for u, b in self._bins.items() if b}

    def total(self, user: Optional[str] = None) -> float:
        if user is not None:
            return sum(self._bins.get(user, {}).values())
        return sum(sum(b.values()) for b in self._bins.values())

    def decayed_total(self, user: str, now: float,
                      decay: Optional[DecayFunction] = None) -> float:
        """Usage of ``user`` with ``decay`` applied at bin midpoints."""
        decay = decay or NoDecay()
        bins = self._bins.get(user)
        if not bins:
            return 0.0
        idx = np.fromiter(bins.keys(), dtype=float)
        amounts = np.fromiter(bins.values(), dtype=float)
        midpoints = (idx + 0.5) * self.interval
        ages = np.maximum(now - midpoints, 0.0)
        return float(np.dot(amounts, decay.weights(ages)))

    def decayed_totals(self, now: float,
                       decay: Optional[DecayFunction] = None) -> Dict[str, float]:
        """Decayed usage of every user in one vectorized pass.

        All (user, bin) entries are flattened into parallel arrays so the
        decay weights for the whole histogram are a single ``ages × amounts``
        operation followed by a per-user segmented sum, instead of one
        ``decayed_sum`` call per user (the UMS refresh hot path).
        """
        decay = decay or NoDecay()
        users = list(self._bins)
        if not users:
            return {}
        counts = np.fromiter((len(self._bins[u]) for u in users),
                             dtype=np.int64, count=len(users))
        total = int(counts.sum())
        if total == 0:
            return {u: 0.0 for u in users}
        idx = np.fromiter((b for u in users for b in self._bins[u]),
                          dtype=np.float64, count=total)
        amounts = np.fromiter((c for u in users for c in self._bins[u].values()),
                              dtype=np.float64, count=total)
        ages = np.maximum(now - (idx + 0.5) * self.interval, 0.0)
        weighted = amounts * decay.weights(ages)
        user_ids = np.repeat(np.arange(len(users)), counts)
        sums = np.bincount(user_ids, weights=weighted, minlength=len(users))
        return dict(zip(users, sums.tolist()))

    def decayed_totals_batch(self, users: Sequence[str], now: float,
                             decay: Optional[DecayFunction] = None
                             ) -> Dict[str, float]:
        """Decayed totals for a *subset* of users in one 2-D array pass.

        The incremental UMS refresh recomputes only dirty users; calling
        :meth:`decayed_total` per user pays NumPy dispatch overhead per
        call, which dominates once thousands of users churn per tick.
        Here every requested user's bins are scattered into one padded
        ``(present_users, max_bins)`` matrix, the decay weights for the
        whole batch are a single vectorized call, and the per-user sums
        are one row reduction.  Padding cells carry age ``-1`` — every
        decay family weighs negative ages zero — and amount 0.

        Only users present in this histogram appear in the result (the
        caller treats absence as "pruned everywhere", like
        :meth:`decayed_total` returning 0 for unknown users would not).
        """
        decay = decay or NoDecay()
        present = [u for u in users if u in self._bins]
        if not present:
            return {}
        counts = np.fromiter((len(self._bins[u]) for u in present),
                             dtype=np.int64, count=len(present))
        total = int(counts.sum())
        if total == 0:
            return {u: 0.0 for u in present}
        idx = np.fromiter((b for u in present for b in self._bins[u]),
                          dtype=np.float64, count=total)
        amounts = np.fromiter(
            (c for u in present for c in self._bins[u].values()),
            dtype=np.float64, count=total)
        width = int(counts.max())
        rows = np.repeat(np.arange(len(present)), counts)
        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        cols = np.arange(total) - offsets[rows]
        ages = np.full((len(present), width), -1.0)
        ages[rows, cols] = np.maximum(now - (idx + 0.5) * self.interval, 0.0)
        amount_m = np.zeros((len(present), width))
        amount_m[rows, cols] = amounts
        sums = (amount_m * decay.weights(ages)).sum(axis=1)
        return dict(zip(present, sums.tolist()))

    # -- maintenance -------------------------------------------------------

    def n_bins(self, user: Optional[str] = None) -> int:
        """Number of stored (user, bin) entries — the USS memory footprint."""
        if user is not None:
            return len(self._bins.get(user, {}))
        return sum(len(b) for b in self._bins.values())

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
        dropped = 0.0
        for user in list(self._bins):
            bins = self._bins[user]
            stale = [b for b in bins if (b + 1) * self.interval <= now - horizon]
            for b in stale:
                dropped += bins.pop(b)
            if stale and self._cursors:
                self._mark_all_of(user, stale)
            if not bins:
                del self._bins[user]
        return dropped

    # -- exchange ----------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[int, float]]:
        """Compact per-user per-bin totals — the USS↔USS wire payload."""
        return {u: dict(b) for u, b in self._bins.items()}

    def snapshot_arrays(self) -> Tuple[List[str], List[int], List[int], List[float]]:
        """Full state as the compact array wire format.

        Returns ``(user_table, user_idx, bin_idx, charges)``: each entry
        ``j`` states that user ``user_table[user_idx[j]]`` holds charge
        ``charges[j]`` in bin ``bin_idx[j]`` — every user name is spelled
        out once instead of once per bin.
        """
        user_table: List[str] = []
        user_idx: List[int] = []
        bin_idx: List[int] = []
        charges: List[float] = []
        for user, bins in self._bins.items():
            ui = len(user_table)
            user_table.append(user)
            for b, charge in bins.items():
                user_idx.append(ui)
                bin_idx.append(b)
                charges.append(charge)
        return user_table, user_idx, bin_idx, charges

    def apply_arrays(self, user_table: Sequence[str], user_idx: Sequence[int],
                     bin_idx: Sequence[int], charges: Sequence[float],
                     full: bool = False) -> None:
        """Apply compact-array entries in place (the delta-exchange receiver).

        Entries carry *absolute* bin values (0 deletes).  With ``full=True``
        the arrays describe the sender's complete state: entries not listed
        are removed first, so the call is equivalent to :meth:`replace` but
        keeps change cursors informed.
        """
        if full:
            listed: Dict[str, Set[int]] = {}
            for ui, b in zip(user_idx, bin_idx):
                listed.setdefault(user_table[ui], set()).add(int(b))
            for user in list(self._bins):
                extinct = set(self._bins[user]) - listed.get(user, set())
                for b in extinct:
                    self.set_bin(user, b, 0.0)
        for ui, b, charge in zip(user_idx, bin_idx, charges):
            self.set_bin(user_table[ui], int(b), float(charge))

    def replace(self, snapshot: Mapping[str, Mapping[int, float]]) -> None:
        """Overwrite contents with a snapshot (remote-site bookkeeping).

        Registered cursors see every entry of both the old and the new
        state as dirty — a full replacement gives no finer information.
        """
        if self._cursors:
            for user, bins in self._bins.items():
                self._mark_all_of(user, bins)
        self._bins = {u: {int(i): float(c) for i, c in b.items()}
                      for u, b in snapshot.items()}
        if self._cursors:
            for user, bins in self._bins.items():
                self._mark_all_of(user, bins)

    def merge(self, other: "UsageHistogram") -> None:
        """Add another histogram's contents into this one.

        Requires matching intervals (bins would not line up otherwise).
        """
        if other.interval != self.interval:
            raise ValueError(
                f"cannot merge histograms with intervals {self.interval} != {other.interval}")
        for user, bins in other._bins.items():
            for b, charge in bins.items():
                self.add_bin(user, b, charge)

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
