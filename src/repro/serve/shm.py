"""Shared-memory snapshot plane: fairshare epochs as flat arrays in shm.

The sharded serve plane (``serve --workers N``) runs one writer — the
daemon process driving the FCS — and N reader processes serving queries.
Each FCS refresh is published into ``multiprocessing.shared_memory`` as
flat arrays plus a sorted key table, so a worker answers GET_FAIRSHARE
with two array reads and zero parent-heap access.

Layout
------
One small **control segment** names the current epoch::

    offset 0   seqlock u64 | layout_gen u64 | snapshot_seq u64
    offset 24  active u8 | pad | meta_len u32
    offset 32  meta JSON: {"segments": [name0, name1], "caps": {...}}

and two double-buffered **data segments** hold the payload::

    offset 0   seqlock u64 | seq u64
    offset 16  computed_at f64 | unknown f64 | leaf_gen u32 | n_leaves u32
               | max_depth u32 | resolution u32 | n_keys u32
               | key_blob_len u32 | tail_len u32 | key_epoch u32
    offset 64  values   f64[cap_leaves]
               matrix   f64[cap_leaves * cap_depth]   (vector elements)
               depths   u32[cap_leaves]
               key_offs u32[cap_keys + 1]
               key_ids  u32[cap_keys]
               key_blob bytes[cap_blob]   (sorted UTF-8 keys, concatenated)
               tail     JSON[cap_tail]    (site, epoch, horizons, IRS, ...)

Torn-epoch impossibility is a seqlock pair: the writer bumps a segment's
counter to odd, writes, bumps it to even; a reader samples the counter
(must be even), reads, and re-samples — a changed counter means the read
raced a republish and is retried against a fresh view.  Because publishes
alternate between the two data buffers, a reader's buffer is only
rewritten two publishes after it became active, so retries are vanishing
rare in practice but the check makes torn reads *impossible*, not just
unlikely.  (CPython byte-level stores through ``memoryview`` under the
GIL plus x86-TSO ordering make the counter protocol sound without
explicit fences.)

The **key table** is the FCS identity table
(:meth:`~repro.services.fcs.FairshareCalculationService.identity_table`)
sorted and encoded: every resolvable identity — leaf path, bare leaf name,
internal-node path, identity-map alias — to its row, so shm resolves
exactly as the FCS and the in-process snapshot do.  The FCS replaces that
table only when the leaf generation moves or an alias is registered, and
the writer re-encodes it only when handed a different table object; a
publish that moved only values leaves ``key_epoch`` alone.  Readers copy
the table out once per ``key_epoch`` (validated by the seqlock) and
binary-search locally, with an LRU dict in front for hot keys.  Leaf rows
double as the binary protocol's integer leaf ids, tagged with
``leaf_gen``.

Layout changes (policy recompile, alias growth beyond headroom) allocate
a *new* segment pair under ``layout_gen + 1`` names; the old pair is
unlinked only after a grace period so readers mid-request never lose the
mapping under their feet.  Capacities carry headroom (an eighth, at least
64 entries) so steady-state publishes — values moved, keys unchanged —
rewrite only the values block, the header, and the small JSON tail.

``resource_tracker`` hygiene: CPython registers a segment with the
tracker on *attach* as well as on create, so a reader process exiting
would spuriously unlink segments it never owned (and warn about "leaked"
objects).  Readers therefore unregister every segment right after
attaching; the writer keeps its registrations and unlinks on close.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import time
from collections import OrderedDict
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from .snapshot import EpochReads, FairshareSnapshot

__all__ = ["ShmSnapshotWriter", "ShmSnapshotReader", "ShmEpochView",
           "ShmBackend", "control_name"]

CTL_HEAD = struct.Struct(">QQQ")          # seqlock, layout_gen, snapshot_seq
CTL_META = struct.Struct(">BxxxI")        # active index, meta_len
CTL_META_AT = CTL_HEAD.size               # 24
CTL_JSON_AT = CTL_META_AT + CTL_META.size  # 32
CTL_SIZE = 4096

DATA_HEAD = struct.Struct(">QQ")          # seqlock, snapshot seq
DATA_META = struct.Struct(">dd8I")        # computed_at, unknown, leaf_gen,
#                                           n_leaves, max_depth, resolution,
#                                           n_keys, key_blob_len, tail_len,
#                                           key_epoch
DATA_META_AT = DATA_HEAD.size             # 16
ARRAYS_AT = 64
_U64 = struct.Struct(">Q")

# array regions use NATIVE byte order: shm never leaves the machine, and
# a big-endian view would byteswap on every hot-path read
_F8 = np.dtype(np.float64)
_U4 = np.dtype(np.uint32)


def control_name(token: str) -> str:
    """The control-segment name for a writer token (what readers attach)."""
    return f"aqshm_{token}_ctl"


_attach_lock = threading.Lock()

#: closed-reader segments still pinned by live numpy views — kept
#: referenced so SharedMemory.__del__ never runs against an exported
#: buffer (see ShmSnapshotReader.close)
_UNREAPED: List[shared_memory.SharedMemory] = []


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment WITHOUT adopting tracker ownership.

    CPython < 3.13 registers a segment with the resource tracker on
    *attach* too (there is no ``track=False`` yet).  Un-registering after
    the fact is worse than it looks: the tracker keeps one shared
    name-set across the writer and every forked worker, so a reader's
    unregister erases the writer's legitimate registration and its later
    ``unlink`` draws a tracker KeyError traceback.  Suppressing the
    registration for the duration of the attach leaves the tracker
    exactly as the writer set it up.
    """
    with _attach_lock:
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name, create=False)
        finally:
            resource_tracker.register = original


class _Layout:
    """Byte offsets of one data segment, derived from its capacities."""

    __slots__ = ("cap_leaves", "cap_depth", "cap_keys", "cap_blob",
                 "cap_tail", "o_values", "o_matrix", "o_depths", "o_koff",
                 "o_kid", "o_blob", "o_tail", "size")

    def __init__(self, cap_leaves: int, cap_depth: int, cap_keys: int,
                 cap_blob: int, cap_tail: int):
        self.cap_leaves = cap_leaves
        self.cap_depth = cap_depth
        self.cap_keys = cap_keys
        self.cap_blob = cap_blob
        self.cap_tail = cap_tail
        self.o_values = ARRAYS_AT
        self.o_matrix = self.o_values + cap_leaves * 8
        self.o_depths = self.o_matrix + cap_leaves * cap_depth * 8
        self.o_koff = self.o_depths + cap_leaves * 4
        self.o_kid = self.o_koff + (cap_keys + 1) * 4
        self.o_blob = self.o_kid + cap_keys * 4
        self.o_tail = self.o_blob + cap_blob
        self.size = max(self.o_tail + cap_tail, ARRAYS_AT + 8)

    def caps(self) -> Dict[str, int]:
        return {"leaves": self.cap_leaves, "depth": self.cap_depth,
                "keys": self.cap_keys, "blob": self.cap_blob,
                "tail": self.cap_tail}

    @classmethod
    def from_caps(cls, caps: Mapping[str, int]) -> "_Layout":
        return cls(caps["leaves"], caps["depth"], caps["keys"],
                   caps["blob"], caps["tail"])


def _headroom(n: int) -> int:
    return n + max(64, n // 8)


# ---------------------------------------------------------------------------
# writer
# ---------------------------------------------------------------------------

class ShmSnapshotWriter:
    """Single-writer publisher of fairshare epochs into shared memory.

    ``token`` names the plane (readers derive every segment name from it);
    it defaults to a pid-qualified site tag so concurrent daemons never
    collide.  Call :meth:`publish` per FCS refresh (or hook it up with
    :meth:`attach_fcs`) and :meth:`close` on shutdown — close unlinks
    every segment the writer ever created.
    """

    def __init__(self, site: str = "site", token: Optional[str] = None,
                 grace: float = 2.0,
                 irs_table: Optional[Mapping[str, str]] = None):
        safe = "".join(c if c.isalnum() else "-" for c in site)[:16]
        self.token = token if token is not None \
            else f"{safe}-{os.getpid():x}-{os.urandom(3).hex()}"
        self.grace = grace
        self.site = site
        self._ctl = shared_memory.SharedMemory(
            name=control_name(self.token), create=True, size=CTL_SIZE)
        self._ctl.buf[:CTL_SIZE] = b"\x00" * CTL_SIZE
        self._layout_gen = 0
        self._layout: Optional[_Layout] = None
        self._bufs: List[shared_memory.SharedMemory] = []
        self._active = 0
        self._key_epoch = 0
        #: the key table last encoded (compared by identity, never equality)
        self._keys: Optional[Mapping[str, int]] = None
        self._key_blob = b""
        self._key_offs = np.zeros(1, dtype=_U4)
        self._key_ids = np.zeros(0, dtype=_U4)
        self._irs_table = dict(irs_table or {})
        #: (wall deadline, shm) pairs awaiting their grace-period unlink
        self._retired: List[Tuple[float, shared_memory.SharedMemory]] = []
        self.publishes = 0
        self.relayouts = 0
        self._closed = False

    @property
    def name(self) -> str:
        """The control-segment name readers attach."""
        return self._ctl.name.lstrip("/")

    # -- publication ---------------------------------------------------------

    def attach_fcs(self, fcs, irs=None) -> "ShmSnapshotWriter":
        """Publish on every FCS refresh (and once now, for the last one)."""
        from .snapshot import snapshot_from_fcs

        def _on_refresh(f):
            if irs is not None:
                self._irs_table = irs.known_users()
            self.publish(snapshot_from_fcs(f))

        fcs.add_refresh_listener(_on_refresh)
        return self

    def set_irs_table(self, table: Mapping[str, str]) -> None:
        """Replace the published system-user -> identity table."""
        self._irs_table = dict(table)

    def publish(self, snap: FairshareSnapshot) -> None:
        """Publish one snapshot epoch (arrays derived from the snapshot)."""
        result = snap.result
        self.publish_arrays(
            seq=snap.seq, leaf_gen=snap.leaf_gen,
            computed_at=snap.computed_at,
            unknown_user_value=snap.unknown_user_value,
            resolution=snap.resolution,
            values=snap.values_vec,
            matrix=result.element_matrix(),
            depths=np.asarray(result.leaf_depths, dtype=np.uint32),
            keys=snap.rows,
            tail={
                "site": snap.site,
                "projection": snap.projection,
                "epoch": list(snap.epoch) if isinstance(snap.epoch, tuple)
                else snap.epoch,
                "horizons": dict(snap.horizons),
                "irs": self._irs_table,
            })

    def publish_arrays(self, *, seq: int, leaf_gen: int, computed_at: float,
                       unknown_user_value: float, resolution: int,
                       values: np.ndarray,
                       keys: Mapping[str, int],
                       matrix: Optional[np.ndarray] = None,
                       depths: Optional[np.ndarray] = None,
                       tail: Optional[Dict[str, Any]] = None) -> None:
        """Low-level publish: arrays in, one epoch out.

        ``keys`` (identity -> row) is sorted and encoded only when it is a
        different object from the previous publish's, so a caller that
        changes the table replaces it and never mutates it in place.
        Benchmarks use this to serve synthetic populations without
        building a full site stack; :meth:`publish` is sugar over it.
        """
        if self._closed:
            raise RuntimeError("writer is closed")
        n_leaves = int(values.shape[0])
        if matrix is None:
            matrix = np.zeros((n_leaves, 1), dtype=np.float64)
        if depths is None:
            depths = np.ones(n_leaves, dtype=np.uint32)
        max_depth = int(matrix.shape[1]) if matrix.size else 1

        if keys is not self._keys:
            items = sorted((k.encode("utf-8"), int(row))
                           for k, row in keys.items())
            blob = b"".join(k for k, _ in items)
            offs = np.zeros(len(items) + 1, dtype=_U4)
            if items:
                lens = np.fromiter((len(k) for k, _ in items),
                                   dtype=np.int64, count=len(items))
                offs[1:] = np.cumsum(lens)
            self._key_offs = offs
            self._key_ids = np.asarray([row for _, row in items], dtype=_U4)
            self._key_blob = blob
            self._keys = keys
            self._key_epoch += 1
        n_keys = int(self._key_ids.shape[0])

        tail_doc = dict(tail or {})
        tail_doc.setdefault("site", self.site)
        tail_doc["clock_now"] = computed_at
        tail_doc["wall_now"] = time.time()
        tail_bytes = json.dumps(tail_doc, separators=(",", ":")).encode()

        lay = self._layout
        fits = (lay is not None
                and n_leaves == lay.cap_leaves
                and max_depth == lay.cap_depth
                and n_keys <= lay.cap_keys
                and len(self._key_blob) <= lay.cap_blob
                and len(tail_bytes) <= lay.cap_tail)
        if not fits:
            self._relayout(n_leaves, max_depth, n_keys,
                           len(self._key_blob), len(tail_bytes))
            lay = self._layout

        target = self._bufs[1 - self._active]
        self._write_epoch(target, lay, seq=seq, leaf_gen=leaf_gen,
                          computed_at=computed_at,
                          unknown=unknown_user_value, resolution=resolution,
                          n_leaves=n_leaves, max_depth=max_depth,
                          n_keys=n_keys, values=values, matrix=matrix,
                          depths=depths, tail=tail_bytes)
        self._flip(1 - self._active, seq)
        self.publishes += 1
        self._reap_retired()

    # -- internals -----------------------------------------------------------

    def _segment_name(self, gen: int, i: int) -> str:
        return f"aqshm_{self.token}_{gen}_{i}"

    def _relayout(self, n_leaves: int, max_depth: int, n_keys: int,
                  blob_len: int, tail_len: int) -> None:
        gen = self._layout_gen + 1
        lay = _Layout(n_leaves, max_depth, _headroom(n_keys),
                      _headroom(blob_len), _headroom(tail_len) + 512)
        bufs = [shared_memory.SharedMemory(
            name=self._segment_name(gen, i), create=True, size=lay.size)
            for i in (0, 1)]
        for shm in bufs:
            DATA_HEAD.pack_into(shm.buf, 0, 0, 0)
        old = self._bufs
        self._bufs = bufs
        self._layout = lay
        self._layout_gen = gen
        self._active = 1  # first publish after a relayout writes buffer 0
        deadline = time.monotonic() + self.grace
        self._retired.extend((deadline, shm) for shm in old)
        self.relayouts += 1

    def _write_epoch(self, shm, lay: _Layout, *, seq, leaf_gen, computed_at,
                     unknown, resolution, n_leaves, max_depth, n_keys,
                     values, matrix, depths, tail: bytes) -> None:
        buf = shm.buf
        (s,) = _U64.unpack_from(buf, 0)
        _U64.pack_into(buf, 0, s + 1)          # odd: epoch under construction
        DATA_META.pack_into(buf, DATA_META_AT, computed_at, unknown,
                            leaf_gen, n_leaves, max_depth, resolution,
                            n_keys, len(self._key_blob), len(tail),
                            self._key_epoch)
        _U64.pack_into(buf, 8, seq)
        if n_leaves:
            np.frombuffer(buf, dtype=_F8, count=n_leaves,
                          offset=lay.o_values)[:] = values
            np.frombuffer(buf, dtype=_F8, count=n_leaves * max_depth,
                          offset=lay.o_matrix)[:] = matrix.reshape(-1)
            np.frombuffer(buf, dtype=_U4, count=n_leaves,
                          offset=lay.o_depths)[:] = depths
        np.frombuffer(buf, dtype=_U4, count=n_keys + 1,
                      offset=lay.o_koff)[:] = self._key_offs[:n_keys + 1]
        if n_keys:
            np.frombuffer(buf, dtype=_U4, count=n_keys,
                          offset=lay.o_kid)[:] = self._key_ids
            buf[lay.o_blob:lay.o_blob + len(self._key_blob)] = self._key_blob
        buf[lay.o_tail:lay.o_tail + len(tail)] = tail
        _U64.pack_into(buf, 0, s + 2)          # even: epoch stable

    def _flip(self, new_active: int, seq: int) -> None:
        buf = self._ctl.buf
        (s, _, _) = CTL_HEAD.unpack_from(buf, 0)
        CTL_HEAD.pack_into(buf, 0, s + 1, self._layout_gen, seq)
        meta = json.dumps({
            "segments": [self._segment_name(self._layout_gen, i)
                         for i in (0, 1)],
            "caps": self._layout.caps(),
            "site": self.site,
        }, separators=(",", ":")).encode()
        CTL_META.pack_into(buf, CTL_META_AT, new_active, len(meta))
        buf[CTL_JSON_AT:CTL_JSON_AT + len(meta)] = meta
        CTL_HEAD.pack_into(buf, 0, s + 2, self._layout_gen, seq)
        self._active = new_active

    def _reap_retired(self, drain: bool = False) -> None:
        now = time.monotonic()
        keep = []
        for deadline, shm in self._retired:
            if drain or deadline <= now:
                shm.close()
                try:
                    shm.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass
            else:
                keep.append((deadline, shm))
        self._retired = keep

    def close(self) -> None:
        """Unlink every segment this writer created (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._reap_retired(drain=True)
        for shm in self._bufs:
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
        self._bufs = []
        self._ctl.close()
        try:
            self._ctl.unlink()
        except FileNotFoundError:  # pragma: no cover
            pass

    def __enter__(self) -> "ShmSnapshotWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# reader
# ---------------------------------------------------------------------------

class ShmEpochView(EpochReads):
    """Read surface over one published epoch (one data buffer).

    Serves :class:`~repro.serve.snapshot.EpochReads` — the surface the
    in-process snapshot serves — over the mapped values and the key table,
    plus the metadata the tail carries.  Scalar reads are validated with
    the buffer's seqlock; a racing republish surfaces as a retry inside
    :class:`ShmSnapshotReader`, never as a torn value.
    """

    __slots__ = ("_shm", "_lay", "seq", "computed_at", "unknown_user_value",
                 "leaf_gen", "n_leaves", "max_depth", "resolution",
                 "n_keys", "key_epoch", "values_vec", "_matrix", "_depths",
                 "_tail", "rows")

    def __init__(self, shm: shared_memory.SharedMemory, lay: _Layout,
                 keys: "_KeyTable", tail: Dict[str, Any],
                 meta: Tuple[Any, ...], seq: int):
        self._shm = shm
        self._lay = lay
        (self.computed_at, self.unknown_user_value, self.leaf_gen,
         self.n_leaves, self.max_depth, self.resolution, self.n_keys,
         _blob_len, _tail_len, self.key_epoch) = meta
        self.seq = seq
        self.values_vec = np.frombuffer(shm.buf, dtype=_F8,
                                        count=self.n_leaves,
                                        offset=lay.o_values) \
            if self.n_leaves else np.zeros(0, dtype=_F8)
        self._matrix = None
        self._depths = None
        self._tail = tail
        self.rows = keys

    # -- seqlock -------------------------------------------------------------

    def stamp(self) -> Optional[int]:
        """The buffer's seqlock if stable (even), else None."""
        (s,) = _U64.unpack_from(self._shm.buf, 0)
        return s if s % 2 == 0 else None

    def still(self, stamp: int) -> bool:
        (s,) = _U64.unpack_from(self._shm.buf, 0)
        return s == stamp

    def vector_elements(self, leaf_id: int) -> Optional[List[float]]:
        if not (0 <= leaf_id < self.n_leaves):
            return None
        if self._matrix is None:
            lay = self._lay
            self._matrix = np.frombuffer(
                self._shm.buf, dtype=_F8,
                count=self.n_leaves * self.max_depth,
                offset=lay.o_matrix).reshape(self.n_leaves, self.max_depth)
            self._depths = np.frombuffer(self._shm.buf, dtype=_U4,
                                         count=self.n_leaves,
                                         offset=lay.o_depths)
        depth = int(self._depths[leaf_id])
        return self._matrix[leaf_id, :depth].tolist()

    # -- metadata -------------------------------------------------------------

    @property
    def site(self) -> str:
        return self._tail.get("site", "")

    @property
    def epoch(self):
        epoch = self._tail.get("epoch")
        return tuple(epoch) if isinstance(epoch, list) else epoch

    @property
    def projection(self) -> str:
        return self._tail.get("projection", "")

    @property
    def horizons(self) -> Dict[str, float]:
        return self._tail.get("horizons", {})

    @property
    def irs_table(self) -> Dict[str, str]:
        return self._tail.get("irs", {})

    def now(self) -> float:
        """Estimated virtual time: publish-time clock + wall time since."""
        wall = self._tail.get("wall_now")
        clock = self._tail.get("clock_now", self.computed_at)
        if wall is None:
            return clock
        return clock + max(0.0, time.time() - wall)


class _KeyTable:
    """Process-local copy of one key_epoch's sorted key table.

    The LRU in front of the binary search lives here (not on the per-
    publish epoch view) because the name -> row mapping only changes with
    the key epoch — hot keys stay dict-fast across value republishes.
    """

    __slots__ = ("offs", "ids", "blob", "n", "_cache")

    CACHE_SIZE = 65536

    def __init__(self, offs: np.ndarray, ids: np.ndarray, blob: bytes):
        self.offs = offs
        self.ids = ids
        self.blob = blob
        self.n = int(ids.shape[0])
        self._cache: "OrderedDict[str, int]" = OrderedDict()

    def get(self, identity: str) -> Optional[int]:
        """The identity's row, as the identity table's ``get`` answers."""
        row = self._cache.get(identity)
        if row is not None:
            self._cache.move_to_end(identity)
            return row if row != -1 else None
        found = self.find(identity.encode("utf-8"))
        if len(self._cache) >= self.CACHE_SIZE:
            self._cache.popitem(last=False)
        self._cache[identity] = found if found is not None else -1
        return found

    def find(self, key: bytes) -> Optional[int]:
        lo, hi = 0, self.n
        offs, blob = self.offs, self.blob
        while lo < hi:
            mid = (lo + hi) // 2
            probe = blob[offs[mid]:offs[mid + 1]]
            if probe < key:
                lo = mid + 1
            elif probe > key:
                hi = mid
            else:
                return int(self.ids[mid])
        return None


class ShmSnapshotReader:
    """Attach to a writer's plane and serve validated epoch views.

    One reader per worker process.  :meth:`view` returns the current
    :class:`ShmEpochView`, revalidating the control block (a 24-byte read)
    on every call and transparently re-attaching when the writer
    relayouts.  Scalar convenience methods (:meth:`lookup`, ...) wrap the
    view access in the seqlock retry loop.
    """

    MAX_RETRIES = 128

    def __init__(self, name: str):
        self._ctl = _attach(name)
        #: (seqlock value, decoded control tuple) — the control block only
        #: changes when the writer publishes, so an unchanged (even)
        #: seqlock value proves the cached decode is still exact and the
        #: per-request JSON parse can be skipped entirely
        self._ctl_cache: Optional[
            Tuple[int, Tuple[int, int, int, Dict[str, Any]]]] = None
        self._layout_gen = -1
        self._segs: List[shared_memory.SharedMemory] = []
        self._lay: Optional[_Layout] = None
        self._seg_names: List[str] = []
        #: segments from previous layouts whose numpy views may still be
        #: alive somewhere — closing them while a view exists raises
        #: BufferError, so they are closed opportunistically instead
        self._old_segs: List[shared_memory.SharedMemory] = []
        self._views: List[Optional[ShmEpochView]] = [None, None]
        self._key_tables: Dict[int, _KeyTable] = {}
        self.reattaches = 0
        self.retries = 0

    # -- control-plane tracking ----------------------------------------------

    @staticmethod
    def _contended(attempt: int) -> None:
        """Back off a contended seqlock read.

        A same-process writer descheduled mid-write leaves the seqlock odd
        until it gets the GIL back — a pure spin here would burn every
        retry without ever letting it finish.  Sleeping (even 0) releases
        the GIL / yields the core so the writer can complete.
        """
        if attempt >= 4:
            time.sleep(0.00005 * min(attempt, 64))

    def _read_control(self) -> Optional[Tuple[int, int, int, Dict[str, Any]]]:
        """(layout_gen, seq, active, meta) — seqlock-validated."""
        buf = self._ctl.buf
        for attempt in range(self.MAX_RETRIES):
            self._contended(attempt)
            s0, gen, seq = CTL_HEAD.unpack_from(buf, 0)
            if s0 == 0:
                return None  # nothing published yet
            if s0 % 2:
                continue
            cached = self._ctl_cache
            if cached is not None and cached[0] == s0:
                # only s0 is trusted from this (unvalidated) read; the
                # returned tuple is entirely the previously validated one
                return cached[1]
            active, meta_len = CTL_META.unpack_from(buf, CTL_META_AT)
            meta_raw = bytes(buf[CTL_JSON_AT:CTL_JSON_AT + meta_len])
            s1, _, _ = CTL_HEAD.unpack_from(buf, 0)
            if s1 != s0:
                self.retries += 1
                continue
            decoded = (gen, seq, active, json.loads(meta_raw))
            self._ctl_cache = (s0, decoded)
            return decoded
        raise RuntimeError("control block would not stabilize")

    def _sweep_old_segs(self) -> None:
        still_pinned = []
        for shm in self._old_segs:
            try:
                shm.close()
            except BufferError:
                still_pinned.append(shm)
        self._old_segs = still_pinned

    def _ensure_attached(self, gen: int, meta: Dict[str, Any]) -> None:
        if gen == self._layout_gen:
            return
        self._old_segs.extend(self._segs)
        self._views = [None, None]  # drop our own pins before sweeping
        self._sweep_old_segs()
        self._segs = [_attach(n) for n in meta["segments"]]
        self._lay = _Layout.from_caps(meta["caps"])
        self._layout_gen = gen
        self._seg_names = list(meta["segments"])
        self._views = [None, None]
        self._key_tables.clear()
        self.reattaches += 1

    def _build_view(self, idx: int, seq: int) -> Optional[ShmEpochView]:
        shm, lay = self._segs[idx], self._lay
        buf = shm.buf
        for attempt in range(self.MAX_RETRIES):
            self._contended(attempt)
            (s0,) = _U64.unpack_from(buf, 0)
            if s0 == 0 or s0 % 2:
                return None
            meta = DATA_META.unpack_from(buf, DATA_META_AT)
            (dseq,) = _U64.unpack_from(buf, 8)
            (_ca, _unk, _lg, _nl, _md, _res, n_keys, blob_len, tail_len,
             key_epoch) = meta
            keys = self._key_tables.get(key_epoch)
            if keys is None:
                offs = np.frombuffer(buf, dtype=_U4, count=n_keys + 1,
                                     offset=lay.o_koff).copy()
                ids = np.frombuffer(buf, dtype=_U4, count=n_keys,
                                    offset=lay.o_kid).copy() \
                    if n_keys else np.zeros(0, dtype=_U4)
                blob = bytes(buf[lay.o_blob:lay.o_blob + blob_len])
                keys = _KeyTable(offs, ids, blob)
            tail_raw = bytes(buf[lay.o_tail:lay.o_tail + tail_len])
            (s1,) = _U64.unpack_from(buf, 0)
            if s1 != s0:
                self.retries += 1
                continue
            # the copy is now known-consistent: safe to cache
            self._key_tables[key_epoch] = keys
            if len(self._key_tables) > 4:
                oldest = min(k for k in self._key_tables if k != key_epoch)
                self._key_tables.pop(oldest, None)
            tail = json.loads(tail_raw) if tail_raw else {}
            return ShmEpochView(shm, lay, keys, tail, meta, dseq)
        raise RuntimeError("data segment would not stabilize")

    def view(self) -> Optional[ShmEpochView]:
        """The current epoch view, or None before the first publish."""
        for attempt in range(self.MAX_RETRIES):
            self._contended(attempt)
            ctl = self._read_control()
            if ctl is None:
                return None
            gen, seq, active, meta = ctl
            try:
                self._ensure_attached(gen, meta)
            except FileNotFoundError:
                # raced a relayout past its grace period: control has
                # moved on, reread it
                self._layout_gen = -1
                self.retries += 1
                continue
            cached = self._views[active]
            if cached is not None and cached.seq == seq \
                    and cached.stamp() is not None:
                return cached
            view = self._build_view(active, seq)
            if view is None:
                self.retries += 1
                continue
            self._views[active] = view
            return view
        raise RuntimeError("snapshot plane would not stabilize")

    # -- validated scalar reads ----------------------------------------------

    def lookup(self, identity: str) -> Tuple[float, bool, Optional[ShmEpochView]]:
        """(value, known, view) with torn-read protection."""
        for attempt in range(self.MAX_RETRIES):
            self._contended(attempt)
            view = self.view()
            if view is None:
                return 0.5, False, None
            stamp = view.stamp()
            if stamp is None:
                self.retries += 1
                continue
            value, known = view.lookup(identity)
            if view.still(stamp):
                return value, known, view
            self.retries += 1
        raise RuntimeError("lookup would not stabilize")

    def close(self) -> None:
        self._old_segs.extend(self._segs)
        self._segs = []
        self._views = [None, None]
        self._sweep_old_segs()
        # anything still pinned by caller-held views must outlive us: if
        # its __del__ ran while the view was alive it would raise (and
        # noisily swallow) BufferError.  Park it for the process lifetime;
        # the OS reclaims the mapping at exit.
        _UNREAPED.extend(self._old_segs)
        self._old_segs = []
        self._ctl.close()

    def __enter__(self) -> "ShmSnapshotReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# backend adapter
# ---------------------------------------------------------------------------

class ShmBackend:
    """A :class:`~repro.serve.backend.SiteBackend`-shaped query surface
    over a shared-memory plane — what each worker process serves from.

    Reads come straight from the mapped arrays; usage reports go through
    the injected ``usage_sink`` (the worker's pipe to the parent), and
    identity resolution answers from the *published* IRS table (workers
    never query the IRS endpoint, so unknown system users stay unknown
    until the next publish refreshes the table).
    """

    def __init__(self, reader: ShmSnapshotReader, site: str = "",
                 registry=None, usage_sink=None,
                 refresh_interval: float = 30.0):
        from ..obs.registry import MetricsRegistry
        self.reader = reader
        self.site = site
        self.refresh_interval = refresh_interval
        self.registry = registry if registry is not None else MetricsRegistry(
            constant_labels={"site": site or "shm", "component": "worker"})
        self._usage_sink = usage_sink
        self.info_extra: Dict[str, Any] = {}

    @classmethod
    def attach(cls, name: str, **kwargs) -> "ShmBackend":
        return cls(ShmSnapshotReader(name), **kwargs)

    def now(self) -> float:
        view = self.reader.view()
        return view.now() if view is not None else 0.0

    # -- snapshot reads -------------------------------------------------------

    def snapshot(self) -> Optional[ShmEpochView]:
        return self.reader.view()

    def lookup_fairshare(self, identity: str, snapshot=None):
        if snapshot is not None:
            value, known = snapshot.lookup(identity)
            return value, known, snapshot
        return self.reader.lookup(identity)

    # -- identity -------------------------------------------------------------

    def resolve_identity(self, system_user: str) -> Optional[str]:
        view = self.reader.view()
        if view is None:
            return None
        return view.irs_table.get(system_user)

    # -- usage ingress --------------------------------------------------------

    def report_usage(self, user: str, start: float, end: float,
                     cores: int = 1) -> bool:
        if self._usage_sink is None:
            return False
        return bool(self._usage_sink(user, float(start), float(end),
                                     int(cores)))

    # -- introspection --------------------------------------------------------

    def info(self) -> Dict[str, Any]:
        view = self.reader.view()
        payload: Dict[str, Any] = {
            "site": self.site or (view.site if view is not None else ""),
            "refresh_interval": self.refresh_interval,
            "time": self.now(),
        }
        if view is not None:
            payload.update(view.info(view.now(), self.refresh_interval))
        payload.update(self.info_extra)
        return payload
