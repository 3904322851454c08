"""Time-series storage for the evaluation plane (DESIGN.md §10).

:class:`RingSeries` is a (time, value) series, bounded to a capacity or
unbounded; :class:`SeriesStore` is a named collection of them with
CSV/JSONL export and re-import.  It is the one series plane of the repo:
the paper's experiments sample every run into an unbounded store
(``ScenarioResult.metrics``) and read it back with :meth:`RingSeries.at`
and :meth:`RingSeries.tail_mean`, while a bounded store samples a
long-running daemon forever in O(capacity) memory — the recorder in
:mod:`repro.obs.evaluate` samples into one every tick and the
``aequus-repro report`` CLI renders one.

The JSONL format is one sample per line
(``{"series": <name>, "t": <time>, "v": <value>}``): append-friendly,
greppable, and loss-tolerant — a truncated or corrupt line is skipped on
load, so a damaged file still renders a report.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from typing import (IO, Callable, Dict, Iterator, List, Mapping, Optional,
                    Tuple, Union)

import numpy as np

__all__ = ["RingSeries", "SeriesStore"]

#: default per-series capacity: at one sample per 30 s tick this holds
#: better than a day of history per series
DEFAULT_CAPACITY = 4096


class RingSeries:
    """A named scalar series: parallel ``times`` / ``values`` lists.

    Once ``capacity`` samples are held, each append evicts the oldest
    (``capacity=None`` keeps every sample, as the experiments do).  Times must be non-decreasing (samples come from one
    clock); a series configured with its own ``clock`` (the fleet
    collector's virtual-epoch clock) stamps every sample from that clock
    instead — per-daemon timestamps from processes booted at different
    wall times would otherwise interleave non-monotonically when merged.
    """

    __slots__ = ("name", "capacity", "clock", "clamped", "times", "values",
                 "appended")

    def __init__(self, name: str, capacity: Optional[int] = DEFAULT_CAPACITY,
                 clock: Optional[Callable[[], float]] = None):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.name = name
        self.capacity = capacity
        #: authoritative timestamp source; when set, the ``t`` passed to
        #: :meth:`append` is ignored in favour of this clock
        self.clock = clock
        #: samples whose clock read stepped backwards (NTP slew) and were
        #: clamped to the previous timestamp instead of raising
        self.clamped = 0
        self.times: List[float] = []
        self.values: List[float] = []
        #: lifetime append count (evictions don't decrement)
        self.appended = 0

    def append(self, t: float, value: float) -> None:
        times = self.times
        if self.clock is not None:
            t = self.clock()
            if times and t < times[-1]:
                t = times[-1]
                self.clamped += 1
        elif times and t < times[-1]:
            raise ValueError(
                f"{self.name}: time went backwards ({t} < {times[-1]})")
        if len(times) == self.capacity:
            del times[0], self.values[0]
        times.append(float(t))
        self.values.append(float(value))
        self.appended += 1

    # -- reads --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[Tuple[float, float]]:
        return zip(self.times, self.values)

    def last(self) -> Optional[Tuple[float, float]]:
        return (self.times[-1], self.values[-1]) if self.times else None

    def at(self, t: float) -> float:
        """Last value recorded at or before ``t`` (step interpolation);
        the first value for ``t`` before the first sample."""
        if not self.times:
            raise ValueError(f"{self.name}: empty series")
        return self.values[max(bisect_right(self.times, t) - 1, 0)]

    def tail_mean(self, fraction: float = 0.25) -> float:
        """Mean over the final ``fraction`` of samples (steady-state level)."""
        if not self.values:
            raise ValueError(f"{self.name}: empty series")
        n = max(1, int(len(self.values) * fraction))
        return float(np.mean(self.values[-n:]))

    def max(self) -> float:
        return max(self.values)

    def mean(self) -> float:
        return sum(self.values) / len(self.values)


class SeriesStore:
    """Named series, created on first sample with the store's
    ``capacity`` and ``clock``.

    Not thread-safe by design: samples come from the single thread driving
    the engine (the sim loop or the daemon's tick thread), like every
    other service-side mutation.
    """

    def __init__(self, capacity: Optional[int] = DEFAULT_CAPACITY,
                 clock: Optional[Callable[[], float]] = None):
        self.capacity = capacity
        #: passed to every created series (see :class:`RingSeries`); the
        #: fleet collector sets this to its virtual-epoch clock so merged
        #: cross-daemon series share one monotone timeline
        self.clock = clock
        self._series: Dict[str, RingSeries] = {}

    def series(self, name: str) -> RingSeries:
        s = self._series.get(name)
        if s is None:
            s = RingSeries(name, self.capacity, clock=self.clock)
            self._series[name] = s
        return s

    def sample(self, name: str, t: float, value: float) -> None:
        self.series(name).append(t, value)

    def sample_many(self, prefix: str, t: float,
                    values: Mapping[str, float]) -> None:
        for key, value in values.items():
            self.sample(f"{prefix}/{key}", t, value)

    # -- reads --------------------------------------------------------------

    def names(self, prefix: Optional[str] = None) -> List[str]:
        names = sorted(self._series)
        if prefix is not None:
            names = [n for n in names if n.startswith(prefix)]
        return names

    def __contains__(self, name: str) -> bool:
        return name in self._series

    def __getitem__(self, name: str) -> RingSeries:
        return self._series[name]

    def __len__(self) -> int:
        return len(self._series)

    # -- export / import -----------------------------------------------------

    def _open(self, target: Union[str, IO[str]], mode: str):
        if isinstance(target, str):
            return open(target, mode, encoding="utf-8"), True
        return target, False

    def to_csv(self, target: Union[str, IO[str]]) -> int:
        """Write ``series,time,value`` rows (header included); returns the
        number of samples written."""
        stream, owned = self._open(target, "w")
        try:
            stream.write("series,time,value\n")
            rows = 0
            for name in self.names():
                for t, v in self._series[name]:
                    stream.write(f"{name},{t!r},{v!r}\n")
                    rows += 1
            return rows
        finally:
            if owned:
                stream.close()

    def to_jsonl(self, target: Union[str, IO[str]]) -> int:
        """One JSON object per sample; returns the number written."""
        stream, owned = self._open(target, "w")
        try:
            rows = 0
            for name in self.names():
                for t, v in self._series[name]:
                    stream.write(json.dumps(
                        {"series": name, "t": t, "v": v},
                        separators=(",", ":")) + "\n")
                    rows += 1
            return rows
        finally:
            if owned:
                stream.close()

    @classmethod
    def from_jsonl(cls, source: Union[str, IO[str]],
                   capacity: Optional[int] = DEFAULT_CAPACITY,
                   ) -> "SeriesStore":
        """Rebuild a store from :meth:`to_jsonl` output.

        Blank and truncated/corrupt lines are skipped, so a file cut short
        (a recorder killed mid-write) still loads every whole sample.
        """
        store = cls(capacity=capacity)
        stream, owned = store._open(source, "r")
        try:
            for line in stream:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    store.sample(str(record["series"]),
                                 float(record["t"]), float(record["v"]))
                except (ValueError, KeyError, TypeError):
                    continue
            return store
        finally:
            if owned:
                stream.close()
