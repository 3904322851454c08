"""Fairness-quality evaluation: recorder, statistics, and reports.

The metrics plane (:mod:`repro.obs.registry`) answers "is the stack
healthy"; this module answers the paper's evaluation questions while the
stack runs (DESIGN.md §10):

* **distance** — how far each tree node's usage share sits from its
  policy target share, computed over the flat arrays of the last FCS
  refresh (the quantity Aequus drives toward zero);
* **divergence** — the maximum pairwise delta, across sites, of the
  projected value for the same user: zero when every site agrees, bounded
  by the exchange interval in steady state, and spiking under partitions;
* **staleness** — per-site per-origin usage-horizon age (tentpole 1),
  sampled as series so stalls are visible as ramps, not just histogram
  mass.

The paper's experiments judge a run by the same kind of series:
:func:`share_deviation` (how far identities' usage shares sit from their
targets) sampled over time, reduced by :func:`convergence_time`.

:class:`FairnessRecorder` samples all three into a bounded
:class:`~repro.obs.timeseries.SeriesStore` on an engine-periodic tick;
:func:`render_report` turns a store into a markdown report and
:func:`report_from_daemon` renders the same shape from a live aequusd's
INFO + METRICS replies (``aequus-repro report``).
"""

from __future__ import annotations

import math
from typing import (TYPE_CHECKING, Any, Dict, Iterable, List, Mapping,
                    Optional, Sequence, Tuple)

import numpy as np

from .registry import default_enabled
from .timeseries import RingSeries, SeriesStore

if TYPE_CHECKING:
    from ..core.flat import FlatFairshare
    from ..services.site import AequusSite
    from ..sim.engine import PeriodicTask, SimulationEngine

__all__ = [
    "FairnessRecorder",
    "convergence_time",
    "cross_site_divergence",
    "distance_stats",
    "parse_exposition",
    "render_report",
    "report_from_daemon",
    "share_deviation",
]


# -- per-sample statistics ----------------------------------------------------

def distance_stats(result: Optional["FlatFairshare"]) -> Dict[str, float]:
    """Mean/max policy-vs-usage distance over all tree nodes.

    ``|target_share - usage_share|`` per node of the flat refresh result —
    0 everywhere means actual consumption matches the policy exactly.
    """
    if result is None or result.target_share.size == 0:
        return {"mean": 0.0, "max": 0.0}
    dist = np.abs(result.target_share - result.usage_share)
    # raw ufunc reductions: this runs on every recorder sample, and the
    # ndarray method wrappers' bookkeeping would dominate on small trees
    return {"mean": float(np.add.reduce(dist)) / dist.size,
            "max": float(np.maximum.reduce(dist))}


def cross_site_divergence(value_maps: Sequence[Mapping[str, float]],
                          ) -> Tuple[float, int]:
    """Max pairwise delta of any user's projected value across sites.

    Returns ``(max_spread, users_compared)`` over users known to at least
    two of the given per-site value maps.  When every map covers the same
    key set in the same order (the common case: all sites share one
    policy), the comparison is a single vectorized max-minus-min; ragged
    maps fall back to a per-user scan.
    """
    maps = [m for m in value_maps if m]
    if len(maps) < 2:
        return 0.0, 0
    first_keys = tuple(maps[0])
    if all(tuple(m) == first_keys for m in maps[1:]):
        mat = np.array([np.fromiter(m.values(), dtype=np.float64,
                                    count=len(first_keys)) for m in maps])
        spread = mat.max(axis=0) - mat.min(axis=0)
        return float(spread.max(initial=0.0)), len(first_keys)
    shared: Dict[str, List[float]] = {}
    for m in maps:
        for user, value in m.items():
            shared.setdefault(user, []).append(value)
    worst, compared = 0.0, 0
    for values in shared.values():
        if len(values) < 2:
            continue
        compared += 1
        worst = max(worst, max(values) - min(values))
    return worst, compared


def share_deviation(shares: Mapping[str, float],
                    targets: Mapping[str, float]) -> float:
    """Mean absolute deviation between observed and target shares.

    The scalar "distance from balance" the experiments track over time to
    quantify convergence; zero means the usage mix exactly matches policy.
    """
    keys = set(shares) | set(targets)
    if not keys:
        return 0.0
    return float(np.mean([abs(shares.get(k, 0.0) - targets.get(k, 0.0))
                          for k in keys]))


def convergence_time(series: RingSeries, threshold: float,
                     hold: float = 0.0) -> Optional[float]:
    """First time the series drops below ``threshold`` and stays there.

    That is the time of the first sample after the last one not below the
    threshold (a NaN sample counts as not below).  ``hold`` requires that
    final run to last at least that long (guards against transient dips).
    Returns ``None`` if the series never converges.  This is the paper's
    convergence measure: Fig. 11 applies it to ``decayed_deviation`` with
    threshold 0.05 and a hold of five samples.
    """
    times, values = series.times, series.values
    start = len(values)
    while start and values[start - 1] < threshold:
        start -= 1
    if start == len(values) or times[-1] - times[start] < hold:
        return None
    return times[start]


# -- the recorder -------------------------------------------------------------

class FairnessRecorder:
    """Samples fairness-quality series from one or more site stacks.

    Series layout (all prefixes relative to one store):

    * ``distance_mean/<site>``, ``distance_max/<site>`` — node distance;
    * ``staleness/<site>/<origin>`` — usage-horizon age per remote origin;
    * ``divergence_max``, ``divergence_users`` — cross-site agreement
      (only when recording two or more sites).

    Attach to an engine with :meth:`attach` for periodic sampling, or call
    :meth:`sample` directly (the sim loop and tests do both).  The
    recorder reads only published FCS/USS query surfaces, so it is safe to
    sample from the thread driving the engine.

    Like registries and tracers, the recorder snapshots the global
    observability flag at construction: built while ``REPRO_OBS_DISABLED``
    (or :func:`repro.obs.set_enabled`) has observability off, every
    :meth:`sample` is a no-op — an attached-but-quiet recorder restores
    baseline performance.
    """

    def __init__(self, sites: Iterable["AequusSite"],
                 interval: float = 30.0,
                 store: Optional[SeriesStore] = None,
                 enabled: Optional[bool] = None):
        self.sites = list(sites)
        if not self.sites:
            raise ValueError("FairnessRecorder needs at least one site")
        self.interval = interval
        self.enabled = default_enabled() if enabled is None else enabled
        self.store = store if store is not None else SeriesStore()
        self.samples = 0
        self._task: Optional["PeriodicTask"] = None
        # verified-alignment cache for the array divergence fast path: the
        # id tuple of each site's leaf-path list, plus strong references to
        # those lists so a matching id can only mean the same object
        self._aligned_key: Optional[Tuple[int, ...]] = None
        self._aligned_refs: Tuple[List[str], ...] = ()
        # series objects resolved once per name — sample() is the hot path
        self._dist_series: Dict[str, Tuple[RingSeries, RingSeries]] = {}
        self._stale_series: Dict[Tuple[str, str], RingSeries] = {}
        self._div_series: Optional[Tuple[RingSeries, RingSeries]] = None

    def attach(self, engine: Optional["SimulationEngine"] = None,
               start_offset: Optional[float] = None) -> "PeriodicTask":
        """Register the periodic sampling tick (idempotent per recorder)."""
        if self._task is not None:
            return self._task
        if engine is None:
            engine = self.sites[0].fcs.engine
        offset = self.interval if start_offset is None else start_offset
        self._task = engine.periodic(self.interval, self.sample,
                                     start_offset=offset)
        return self._task

    def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            self._task = None

    def sample(self) -> None:
        """Take one sample of every series, stamped at the engine clock."""
        if not self.enabled:
            return
        now = self.sites[0].fcs.engine.now
        for site in self.sites:
            fcs = site.fcs
            dist = distance_stats(fcs.flat_result())
            pair = self._dist_series.get(site.name)
            if pair is None:
                pair = (self.store.series(f"distance_mean/{site.name}"),
                        self.store.series(f"distance_max/{site.name}"))
                self._dist_series[site.name] = pair
            pair[0].append(now, dist["mean"])
            pair[1].append(now, dist["max"])
            for origin, horizon in fcs.usage_horizons().items():
                key = (site.name, origin)
                series = self._stale_series.get(key)
                if series is None:
                    series = self.store.series(
                        f"staleness/{site.name}/{origin}")
                    self._stale_series[key] = series
                age = now - horizon
                series.append(now, age if age > 0.0 else 0.0)
        if len(self.sites) >= 2:
            worst, compared = self._divergence_now()
            if self._div_series is None:
                self._div_series = (self.store.series("divergence_max"),
                                    self.store.series("divergence_users"))
            self._div_series[0].append(now, worst)
            self._div_series[1].append(now, float(compared))
        self.samples += 1

    def _divergence_now(self) -> Tuple[float, int]:
        """Cross-site divergence of the sites' current values.

        When every site serves an aligned values array (one shared policy,
        verified once and cached by leaf-list identity), the spread is a
        single vectorized max-minus-min over the arrays the FCSes already
        hold — no per-user dict traffic.  Anything else falls back to
        :func:`cross_site_divergence` over the dict views.
        """
        vecs: List["np.ndarray"] = []
        paths: List[List[str]] = []
        for site in self.sites:
            fcs = site.fcs
            result = fcs.flat_result()
            vec = fcs.values_array()
            if result is None or vec is None or not len(vec):
                break
            vecs.append(vec)
            paths.append(result.leaf_paths)
        else:
            key = tuple(id(p) for p in paths)
            if key != self._aligned_key:
                first = paths[0]
                if any(p != first for p in paths[1:]):
                    self._aligned_key, self._aligned_refs = None, ()
                    return cross_site_divergence(
                        [site.fcs.values_view() for site in self.sites])
                self._aligned_key = key
                self._aligned_refs = tuple(paths)
            mat = np.vstack(vecs)
            spread = mat.max(axis=0) - mat.min(axis=0)
            return float(spread.max(initial=0.0)), mat.shape[1]
        return cross_site_divergence(
            [site.fcs.values_view() for site in self.sites])

    # -- convenience reads ---------------------------------------------------

    def divergence(self) -> Optional[RingSeries]:
        return (self.store["divergence_max"]
                if "divergence_max" in self.store else None)


# -- report rendering ---------------------------------------------------------

_REPORT_SECTIONS: Tuple[Tuple[str, str], ...] = (
    ("distance_", "Policy-vs-usage distance"),
    ("staleness/", "Usage staleness (seconds behind origin)"),
    ("divergence", "Cross-site divergence"),
    # fleet-collector series (repro.obs.collector / report --grid)
    ("fleet/", "Fleet gauges"),
    ("staleness_max/", "Worst remote staleness per site"),
    ("qps/", "Serve throughput per site"),
    ("frame_backlog/", "Exchange frame backlog per link (bytes)"),
    ("up/", "Daemon liveness"),
)


def _fmt(value: float) -> str:
    if value == 0.0:
        return "0"
    if abs(value) >= 1000 or abs(value) < 0.001:
        return f"{value:.3e}"
    return f"{value:.4f}".rstrip("0").rstrip(".")


def render_report(store: SeriesStore, title: str = "Aequus fairness report",
                  ) -> str:
    """Render a :class:`SeriesStore` as a markdown report.

    One table per known section (distance, staleness, divergence) plus a
    catch-all for anything else, each row a series with last/mean/max and
    the sample count (lifetime appends, not just what the ring retains).
    """
    lines = [f"# {title}", ""]
    remaining = list(store.names())
    if not remaining:
        lines.append("_no samples recorded_")
        return "\n".join(lines) + "\n"
    span = [math.inf, -math.inf]
    for name in remaining:
        series = store[name]
        if len(series):
            span[0] = min(span[0], series.times[0])
            span[1] = max(span[1], series.times[-1])
    if span[0] <= span[1]:
        lines.append(f"Window: t={_fmt(span[0])} .. t={_fmt(span[1])} "
                     "(virtual seconds, ring-bounded)")
        lines.append("")

    def emit(section_title: str, names: List[str]) -> None:
        if not names:
            return
        lines.append(f"## {section_title}")
        lines.append("")
        lines.append("| series | last | mean | max | samples |")
        lines.append("|---|---|---|---|---|")
        for name in names:
            series = store[name]
            if not len(series):
                continue
            last = series.last()
            lines.append(
                f"| {name} | {_fmt(last[1])} | {_fmt(series.mean())} "
                f"| {_fmt(series.max())} | {series.appended} |")
        lines.append("")

    for prefix, section_title in _REPORT_SECTIONS:
        matched = [n for n in remaining if n.startswith(prefix)]
        remaining = [n for n in remaining if not n.startswith(prefix)]
        emit(section_title, matched)
    emit("Other series", remaining)
    return "\n".join(lines).rstrip() + "\n"


# -- live-daemon reports ------------------------------------------------------

def parse_exposition(text: str) -> List[Tuple[str, Dict[str, str], float]]:
    """Parse Prometheus text exposition into ``(name, labels, value)`` rows.

    Handles exactly the subset :mod:`repro.obs.export` emits (no escapes
    beyond ``\\\\``/``\\"``/``\\n`` in label values, no exemplars); comment
    and blank lines are skipped, unparsable lines ignored.
    """
    samples: List[Tuple[str, Dict[str, str], float]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            head, value_text = line.rsplit(" ", 1)
            value = float(value_text)
            labels: Dict[str, str] = {}
            if head.endswith("}") and "{" in head:
                name, _, label_text = head.partition("{")
                body = label_text[:-1]
                if "\\" not in body:
                    # fast path: no escapes means no quotes inside values,
                    # so '",' can only separate labels (the hot case — a
                    # fleet scrape parses thousands of lines per second)
                    for part in body.split('",'):
                        if not part:
                            continue
                        key, _, val = part.partition('="')
                        if val.endswith('"'):
                            val = val[:-1]
                        labels[key] = val
                else:
                    while body:
                        key, _, rest = body.partition('="')
                        out: List[str] = []
                        i = 0
                        while i < len(rest):
                            ch = rest[i]
                            if ch == "\\" and i + 1 < len(rest):
                                out.append({"n": "\n"}.get(rest[i + 1],
                                                           rest[i + 1]))
                                i += 2
                                continue
                            if ch == '"':
                                break
                            out.append(ch)
                            i += 1
                        labels[key] = "".join(out)
                        body = rest[i + 1:].lstrip(",")
            else:
                name = head
            samples.append((name, labels, value))
        except ValueError:
            continue
    return samples


def _histogram_stats(samples: List[Tuple[str, Dict[str, str], float]],
                     family: str, label: str,
                     ) -> Dict[str, Dict[str, float]]:
    """Per-``label``-value count/mean/p99 of one histogram family."""
    stats: Dict[str, Dict[str, float]] = {}
    buckets: Dict[str, List[Tuple[float, float]]] = {}
    for name, labels, value in samples:
        key = labels.get(label)
        if key is None:
            continue
        if name == f"{family}_count":
            stats.setdefault(key, {})["count"] = value
        elif name == f"{family}_sum":
            stats.setdefault(key, {})["sum"] = value
        elif name == f"{family}_bucket":
            le = labels.get("le", "+Inf")
            bound = math.inf if le == "+Inf" else float(le)
            buckets.setdefault(key, []).append((bound, value))
    for key, entry in stats.items():
        count = entry.get("count", 0.0)
        entry["mean"] = entry.get("sum", 0.0) / count if count else 0.0
        bs = sorted(buckets.get(key, []))
        entry["p99"] = next(
            (bound for bound, cum in bs if count and cum >= 0.99 * count),
            math.inf if bs else 0.0)
    return stats


def report_from_daemon(info: Mapping[str, Any], metrics_text: str) -> str:
    """Render a live report from aequusd's INFO payload + METRICS text.

    Same shape as :func:`render_report` but sourced from the running
    daemon: current per-origin horizons/staleness from INFO (tentpole 1's
    causal chain), lifetime staleness distribution from the
    ``aequus_snapshot_staleness_seconds`` histogram.
    """
    site = info.get("site", "?")
    lines = [f"# Aequus fairness report — site {site}", ""]
    lines.append(f"Virtual time: {_fmt(float(info.get('time', 0.0)))}; "
                 f"refresh interval {_fmt(float(info.get('refresh_interval', 0.0)))}s")
    lines.append("")
    horizons = info.get("usage_horizons") or {}
    lines.append("## Usage horizons (current snapshot)")
    lines.append("")
    if horizons:
        lines.append("| origin | horizon | staleness |")
        lines.append("|---|---|---|")
        for origin in sorted(horizons):
            entry = horizons[origin]
            lines.append(f"| {origin} | {_fmt(float(entry['horizon']))} "
                         f"| {_fmt(float(entry['staleness']))} |")
    else:
        lines.append("_no per-origin horizons in the current snapshot_")
    lines.append("")
    samples = parse_exposition(metrics_text)
    dist = _histogram_stats(samples, "aequus_snapshot_staleness_seconds",
                            "origin")
    lines.append("## Snapshot staleness distribution (lifetime)")
    lines.append("")
    if dist:
        lines.append("| origin | observations | mean | p99 (bucket) |")
        lines.append("|---|---|---|---|")
        for origin in sorted(dist):
            entry = dist[origin]
            p99 = "inf" if math.isinf(entry["p99"]) else _fmt(entry["p99"])
            lines.append(f"| {origin} | {int(entry['count'])} "
                         f"| {_fmt(entry['mean'])} | {p99} |")
    else:
        lines.append("_no staleness observations exported yet_")
    lines.append("")
    return "\n".join(lines).rstrip() + "\n"
