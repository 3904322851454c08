"""``repro.obs`` — unified observability for the Aequus stack.

Three pieces (DESIGN.md §9):

* :mod:`~repro.obs.registry` — labeled Counter/Gauge/Histogram metrics in
  lock-safe registries (process default + per-site children, dual clocks);
* :mod:`~repro.obs.trace` — nested span tracing into a bounded ring
  buffer, exported as Chrome ``trace_event`` JSON/JSONL;
* :mod:`~repro.obs.export` — Prometheus text-format exposition, served by
  aequusd's ``METRICS`` op and the ``aequus-repro metrics`` CLI.

Plus the evaluation plane (DESIGN.md §10): :mod:`~repro.obs.timeseries`
(the one series type, bounded or not, with CSV/JSONL export; the paper's
experiments sample into it too) and :mod:`~repro.obs.evaluate`
(fairness-quality recorder — distance, divergence, staleness — the
paper's ``share_deviation``/``convergence_time``, and the markdown report
renderers behind ``aequus-repro report``), and the fleet
plane (DESIGN.md §14): :mod:`~repro.obs.collector` scrapes METRICS +
INFO + TRACE_EXPORT from every daemon of a grid, merges them under a
``site`` label, and aligns cross-process traces on the shared virtual
epoch (``aequus-repro top`` / ``report --grid``).

:func:`set_enabled` flips the process default for both metrics-only
instruments (histograms/timers) and tracing — the switch the overhead
benchmark uses for its instrumentation-off baseline.  Counters and gauges
backing public stats APIs always stay live (see the registry docstring).
"""

from .jsonlog import JsonLogger
from .registry import (AGE_BUCKETS, LATENCY_BUCKETS, MetricsRegistry,
                       StatsView, default_enabled, default_registry,
                       metric_property, set_default_enabled)
from .trace import Tracer, default_tracer, set_default_tracer, span
from .export import render, render_many
from .timeseries import RingSeries, SeriesStore
from .evaluate import (FairnessRecorder, convergence_time,
                       cross_site_divergence, distance_stats,
                       parse_exposition, render_report, report_from_daemon,
                       share_deviation)
from .collector import FleetCollector

__all__ = [
    "AGE_BUCKETS",
    "FairnessRecorder",
    "FleetCollector",
    "JsonLogger",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "RingSeries",
    "SeriesStore",
    "StatsView",
    "Tracer",
    "convergence_time",
    "cross_site_divergence",
    "default_enabled",
    "default_registry",
    "default_tracer",
    "distance_stats",
    "metric_property",
    "parse_exposition",
    "render",
    "render_many",
    "render_report",
    "report_from_daemon",
    "set_default_enabled",
    "set_default_tracer",
    "set_enabled",
    "share_deviation",
    "span",
]


def set_enabled(flag: bool) -> None:
    """Flip the process-wide observability default (new registries/tracers)
    AND the current default tracer — one switch for 'instrumentation off'."""
    set_default_enabled(flag)
    default_tracer().enabled = bool(flag)
