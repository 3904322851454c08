#!/usr/bin/env python3
"""Evaluation plane: freshness watermarks and the fairness recorder.

Builds a small 3-site collaboration, lets it reach steady state, injects a
one-sided usage burst, and watches the evaluation plane (DESIGN.md §10)
tell the story:

* per-origin **usage horizons** on every site — how far behind each remote
  site's usage the local fairshare state is (the paper's update delay,
  Fig. 11, live instead of post-hoc);
* **cross-site divergence** — the same user's projected value disagreeing
  across sites right after the burst, then converging as exchanges drain
  the staleness;
* the **convergence time** of that disagreement (the paper's measure:
  when the series fell back below a threshold and stayed there), plus
  the markdown report `aequus-repro report --from` renders from the
  recorded series.

Run:  python examples/evaluation.py
"""

import tempfile
from pathlib import Path

from repro.core.policy import PolicyTree
from repro.core.usage import UsageRecord
from repro.obs.evaluate import FairnessRecorder, convergence_time
from repro.obs.timeseries import SeriesStore
from repro.services.network import Network
from repro.services.site import AequusSite, SiteConfig, connect_sites
from repro.sim.engine import SimulationEngine

# ---------------------------------------------------------------------------
# 1. A small grid: 3 sites, one shared policy, full-mesh usage exchange.
# ---------------------------------------------------------------------------
engine = SimulationEngine()
network = Network(engine, base_latency=0.1)
policy = PolicyTree.from_dict({
    "hpc": {"alice": 3, "bob": 1},
    "astro": {"carol": 2, "dave": 2},
})
config = SiteConfig(histogram_interval=60.0, uss_exchange_interval=30.0,
                    ums_refresh_interval=10.0, fcs_refresh_interval=10.0)
sites = [AequusSite(f"site{i}", engine, network, policy=policy,
                    config=config) for i in range(3)]
connect_sites(sites)

recorder = FairnessRecorder(sites, interval=10.0)
recorder.attach(engine)
print(f"== {len(sites)} sites, exchange every "
      f"{config.uss_exchange_interval:.0f}s, recorder sampling every "
      f"{recorder.interval:.0f}s ==")

# some balanced background usage, then steady state
for site, user in zip(sites, ("alice", "carol", "dave")):
    site.uss.record_job(UsageRecord(user=user, site=site.name,
                                    start=0.0, end=3600.0))
engine.run_for(600.0)

print("\n-- steady state: per-origin usage horizons at site0 --")
for origin, staleness in sorted(
        sites[0].uss.usage_staleness().items()):
    print(f"  {origin:<6} {staleness:6.1f}s behind "
          f"(bounded by one exchange interval)")

# ---------------------------------------------------------------------------
# 2. Burst: site1 suddenly accounts a huge alice job. Until the next
#    exchanges propagate it, the other sites serve values computed from
#    stale usage — visible as cross-site divergence.
# ---------------------------------------------------------------------------
t_burst = engine.now
sites[1].uss.record_job(UsageRecord(user="alice", site="site1",
                                    start=t_burst, end=t_burst + 50_000.0))
print(f"\n-- t={t_burst:.0f}: 50k core-seconds burst for alice at site1 --")
for step in range(6):
    engine.run_for(20.0)
    div = recorder.divergence().last()[1]
    stale = max(s for site in sites
                for s in site.uss.usage_staleness().values())
    print(f"  t={engine.now:6.0f}  divergence_max={div:.4f}  "
          f"worst_staleness={stale:5.1f}s")
engine.run_for(200.0)

div = recorder.divergence()
threshold = 0.01
converged = convergence_time(div, threshold)
print(f"\ndivergence peaked at {div.max():.4f}, now {div.last()[1]:.4f}; "
      f"converged below {threshold} at {converged - t_burst:.0f}s "
      "after the burst" if converged is not None else "\nstill converging")

# ---------------------------------------------------------------------------
# 3. The recorded series render as the same report the CLI produces:
#    aequus-repro report --from <file.jsonl>
# ---------------------------------------------------------------------------
out = Path(tempfile.gettempdir()) / "aequus_fairness.jsonl"
rows = recorder.store.to_jsonl(str(out))
print(f"\nexported {rows} samples to {out}")

from repro.obs.evaluate import render_report  # noqa: E402

report = render_report(SeriesStore.from_jsonl(str(out)),
                       title="Example fairness report")
print("\n-- report excerpt --")
for line in report.splitlines():
    if line.startswith(("#", "| divergence", "| distance_mean/site0",
                        "| staleness/site0")):
        print(line)

for site in sites:
    site.stop()
print("\ndone")
