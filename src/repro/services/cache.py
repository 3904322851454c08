"""TTL caching, as used by the Aequus services and by ``libaequus``.

Caching is load-bearing in the paper: pre-computed fairshare trees mean "no
real-time calculations need to take place when new jobs arrive", and
``libaequus`` caches resolved fairshare values and identities "for a
configurable amount of time, which considerably reduces the amount of
network traffic and computations required when batches of jobs are submitted
and processed at the same time".  The cache times are also delay sources
II and III in the update-delay analysis (Section IV-A.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Callable, Dict, Generic, Hashable, Iterator, List,
                    Mapping, Optional, Sequence, Tuple, TypeVar)

from ..obs.registry import MetricsRegistry

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

__all__ = ["TTLCache", "CacheStats", "RegistryCacheStats", "LeafValueMap"]


class LeafValueMap(Mapping):
    """Immutable ``leaf path -> value`` mapping over a values array.

    The FCS used to materialize a ``dict(zip(leaf_paths, values))`` on
    every refresh — an O(leaves) Python pass that dominates the refresh
    once the kernel itself is incremental.  This view serves the same
    mapping straight from the projection array and the compiled leaf
    tables: construction is O(1), lookups are one dict probe plus one
    array read, and iteration order is exactly ``leaf_paths`` order (which
    consumers like the fairness recorder's ``np.fromiter`` rely on).

    Instances are snapshots by construction: refreshes build a *new* map
    over the new arrays, never mutate an existing one, so serve-plane
    snapshots holding a map stay internally consistent forever.
    """

    __slots__ = ("_paths", "_slot", "_vec", "_values_list")

    def __init__(self, paths: Sequence[str], slot: Mapping[str, int],
                 vec) -> None:
        self._paths = paths
        self._slot = slot
        self._vec = vec
        self._values_list: Optional[List[float]] = None

    def __getitem__(self, key: str) -> float:
        return float(self._vec[self._slot[key]])

    def get(self, key: str, default: Optional[float] = None) -> Optional[float]:
        row = self._slot.get(key)
        if row is None:
            return default
        return float(self._vec[row])

    def __contains__(self, key: object) -> bool:
        return key in self._slot

    def __iter__(self) -> Iterator[str]:
        return iter(self._paths)

    def __len__(self) -> int:
        return len(self._paths)

    def keys(self):
        return self._paths

    def values(self):
        if self._values_list is None:
            self._values_list = self._vec.tolist() \
                if hasattr(self._vec, "tolist") else list(self._vec)
        return self._values_list

    def items(self):
        return zip(self._paths, self.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LeafValueMap({len(self._paths)} leaves)"


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class RegistryCacheStats(CacheStats):
    """``CacheStats`` whose counts live in ``aequus_cache_lookups_total``
    series of a :class:`~repro.obs.registry.MetricsRegistry`.

    Same reads and writes as the dataclass (``stats.hits``,
    ``stats.hits += 1``, ``hit_rate``), so callers holding a stats object
    — ``FairshareCalculationService.refresh_stats``, the ``libaequus``
    cache surfaces — cannot tell the difference, but a Prometheus scrape
    sees the hit/miss series labeled by cache name.  ``hit_series`` /
    ``miss_series`` are the counters themselves, for a single-writer hot
    path that bumps them without the registry lock.
    """

    def __init__(self, registry: MetricsRegistry, cache: str):
        family = registry.counter(
            "aequus_cache_lookups_total",
            "Cache lookups by cache name and hit/miss outcome",
            ("cache", "outcome"))
        self.hit_series = family.labels(cache=cache, outcome="hit")
        self.miss_series = family.labels(cache=cache, outcome="miss")

    @property
    def hits(self) -> int:
        return self.hit_series.value

    @hits.setter
    def hits(self, value) -> None:
        self.hit_series.set(value)

    @property
    def misses(self) -> int:
        return self.miss_series.value

    @misses.setter
    def misses(self, value) -> None:
        self.miss_series.set(value)


class TTLCache(Generic[K, V]):
    """Time-based cache keyed on a virtual clock.

    ``clock`` is any zero-argument callable returning the current time
    (normally ``lambda: engine.now``).  ``ttl == 0`` disables caching
    entirely (every lookup is a miss), which the update-delay experiment
    uses to isolate delay sources.

    ``entries`` is the table itself, ``key -> (stored at, value)``: an
    entry is fresh while ``now - stored_at < ttl``, and none is stored
    when ``ttl == 0``.  A hot path that cannot afford :meth:`get`'s loader
    closure reads and fills it directly under those two rules.
    """

    def __init__(self, clock: Callable[[], float], ttl: float,
                 stats: Optional[CacheStats] = None):
        if ttl < 0:
            raise ValueError("ttl must be non-negative")
        self.clock = clock
        self.ttl = float(ttl)
        self.entries: Dict[K, Tuple[float, V]] = {}
        self.stats = stats if stats is not None else CacheStats()

    def get(self, key: K, loader: Callable[[], V]) -> V:
        """Return the cached value for ``key``, refreshing via ``loader``."""
        now = self.clock()
        entry = self.entries.get(key)
        if entry is not None and self.ttl > 0 and now - entry[0] < self.ttl:
            self.stats.hits += 1
            return entry[1]
        self.stats.misses += 1
        value = loader()
        if self.ttl > 0:
            self.entries[key] = (now, value)
        return value

    def peek(self, key: K):
        """Current cached value (even if stale) or None; no stats effect."""
        entry = self.entries.get(key)
        return entry[1] if entry is not None else None

    def invalidate(self, key: K) -> None:
        self.entries.pop(key, None)

    def clear(self) -> None:
        self.entries.clear()

    def __len__(self) -> int:
        return len(self.entries)
