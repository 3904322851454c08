#!/usr/bin/env python3
"""Quickstart: the Aequus fairshare pipeline on a small hierarchy.

Walks the three constituents of Figure 1 — a hierarchical usage policy,
historical usage data, and the fairshare algorithm — then extracts
fairshare vectors (Figure 3) and projects them to scheduler-ready scalars
with all three projection algorithms (Table I).

Run:  python examples/quickstart.py
"""

from repro.core import (
    ExponentialDecay,
    FairshareParameters,
    FlatPolicy,
    PolicyTree,
    UsageHistogram,
    UsageRecord,
    make_projection,
)

# ---------------------------------------------------------------------------
# 1. The usage policy: a site keeps 60% local and grants 40% to a grid VO,
#    whose internal subdivision is managed remotely and *mounted* in.
# ---------------------------------------------------------------------------
local_policy = PolicyTree.from_dict({
    "local": (60, {"alice": 2, "bob": 1}),
})

grid_vo_policy = PolicyTree.from_dict({
    "climate": (3, {"carol": 1, "dave": 1}),
    "physics": (1, {"erin": 1}),
})

local_policy.set_share("/grid", 40)
local_policy.mount("/grid", grid_vo_policy, source="vo-pds.example.org")

print("== Effective policy tree (local + mounted) ==")
print(local_policy.render(lambda n: f"{n.name or '/'}"
                          + (f"  share={n.normalized_share:.2f}" if n.parent else "")))
print()

# ---------------------------------------------------------------------------
# 2. Usage data: per-job records aggregated into per-user histograms
#    (what the USS maintains), decayed with a half-life.
# ---------------------------------------------------------------------------
histogram = UsageHistogram(interval=3600.0)
for user, hours in [("alice", 30), ("bob", 5), ("carol", 50), ("erin", 2)]:
    histogram.add_record(UsageRecord(user=user, site="site-a",
                                     start=0.0, end=hours * 3600.0))

now = 24 * 3600.0
decay = ExponentialDecay(half_life=7 * 24 * 3600.0)
per_user = histogram.decayed_totals(now, decay)
print("== Decayed per-user usage (core-seconds) ==")
for user, usage in sorted(per_user.items()):
    print(f"  {user:<6} {usage:>12.0f}")
print()

# ---------------------------------------------------------------------------
# 3. The fairshare calculation: policy x usage -> fairshare tree.
# ---------------------------------------------------------------------------
params = FairshareParameters(k=0.5, resolution=9999)
tree = FlatPolicy(local_policy).compute(per_user, params)

print("== Fairshare vectors (resolution 0-9999, balance point 5000) ==")
for path, vector in tree.vectors().items():
    print(f"  {path:<18} {vector!r}   priority={tree.node_priority(path):.3f}")
print()

# ---------------------------------------------------------------------------
# 4. Projection to a scalar in [0, 1] - three algorithms, three trade-offs.
# ---------------------------------------------------------------------------
print("== Projected fairshare values ==")
header = f"  {'user':<18}" + "".join(f"{name:>12}" for name in
                                     ("dictionary", "bitwise", "percental"))
print(header)
values = {name: make_projection(name).project_flat(tree)
          for name in ("dictionary", "bitwise", "percental")}
for path in tree.vectors():
    row = f"  {path:<18}"
    for name in ("dictionary", "bitwise", "percental"):
        row += f"{values[name][path]:>12.4f}"
    print(row)
print()
print("Higher = more underserved; a scheduler plugs these into its")
print("multifactor priority in place of locally computed fairshare.")
