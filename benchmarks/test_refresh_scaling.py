"""Refresh-latency scaling of the array-backed fairshare kernel.

Measures one full FCS-style refresh — usage shaping, fairshare computation,
and percental projection — at 1k / 10k / 100k users, comparing the
vectorized kernel (:mod:`repro.core.flat`) against the naive recursive
reference the tests use (``tests/oracle``), and checks agreement at 1e-9.

Results are printed, appended to ``benchmarks/results.txt``, and written to
``benchmarks/BENCH_refresh.json`` so CI can track the perf trajectory per
PR.  Set ``REPRO_BENCH_SCALE=small`` for a smoke pass (drops the 100k
tier); the ≥5× speedup gate at 10k users runs in both modes.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.flat import FlatPolicy
from repro.core.policy import PolicyTree
from repro.core.projection import PercentalProjection
from tests import oracle

JSON_PATH = Path(__file__).parent / "BENCH_refresh.json"

#: users per scale tier; smoke mode trims the expensive top tier
_SCALES = {"paper": (1_000, 10_000, 100_000), "small": (1_000, 10_000)}

#: the tier the ≥5x acceptance gate applies to
GATE_USERS = 10_000
GATE_SPEEDUP = 5.0

#: the incremental journal splice must beat a from-scratch compile by this
#: much at the top tier (100k users at paper scale) — the PR 7 gate
RECOMPILE_GATE = 10.0


def scale_tiers():
    return _SCALES[os.environ.get("REPRO_BENCH_SCALE", "paper")]


def grid_policy(n_users: int, users_per_project: int = 50,
                projects_per_vo: int = 20, seed: int = 0) -> PolicyTree:
    """A realistic 3-level hierarchy: VOs -> projects -> users.

    Integer weights keep every sibling-group sum exact in float64, so the
    reference and the kernel agree bit for bit and the 1e-9 comparison
    below is meaningful rather than summation-order noise.
    """
    rng = np.random.default_rng(seed)
    tree = PolicyTree()
    users = 0
    vo = 0
    while users < n_users:
        vo_path = f"/vo{vo}"
        tree.set_share(vo_path, int(rng.integers(1, 100)))
        for p in range(projects_per_vo):
            if users >= n_users:
                break
            proj_path = f"{vo_path}/proj{p}"
            tree.set_share(proj_path, int(rng.integers(1, 100)))
            for u in range(users_per_project):
                if users >= n_users:
                    break
                tree.set_share(f"{proj_path}/u{users}",
                               int(rng.integers(1, 100)))
                users += 1
        vo += 1
    return tree


def random_usage(policy: PolicyTree, active_fraction: float = 0.7,
                 seed: int = 1) -> dict:
    rng = np.random.default_rng(seed)
    return {path: float(int(rng.integers(1, 1_000_000)))
            for path in policy.leaf_paths()
            if rng.random() < active_fraction}


def reference_refresh(policy, usage, projection):
    """The naive recursive refresh: one object per node, per call."""
    return oracle.percental(oracle.fairshare(policy, usage))


def flat_refresh(flat, usage, projection):
    """The kernel refresh path (policy already compiled, as in the FCS)."""
    return projection.project_flat(flat.compute(usage))


def _best_of(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def measure_tier(n_users: int, projection, repeats: int) -> dict:
    """One scale tier: full refresh, incremental refresh, recompiles."""
    policy = grid_policy(n_users)
    usage = random_usage(policy)
    flat = FlatPolicy(policy)
    t0 = time.perf_counter()
    FlatPolicy(policy)
    compile_s = time.perf_counter() - t0
    # the recursive reference is impractical beyond 100k users (the 1M
    # row exists to characterize the kernel, not to wait on the baseline)
    ref_s = _best_of(lambda: reference_refresh(policy, usage, projection),
                     repeats) if n_users <= 100_000 else None
    flat_s = _best_of(lambda: flat_refresh(flat, usage, projection), repeats)

    # incremental policy recompile: a realistic weight-edit batch (one VO,
    # one user) spliced through the edit journal vs compiled from scratch
    revision = policy.revision
    some_leaf = flat.leaf_paths[len(flat.leaf_paths) // 2]
    policy.set_share("/vo0", 17.0)
    policy.set_share(some_leaf, 3.0)
    edits = policy.edits_since(revision)
    recompile_s = _best_of(lambda: FlatPolicy(policy), repeats)
    incremental_recompile_s = _best_of(
        lambda: flat.recompile(policy, edits), max(repeats, 3))
    spliced = flat.recompile(policy, edits)
    assert spliced is not None and spliced[1]["layout_changed"] is False
    new_flat, info = spliced

    # dirty-subtree delta refresh: ~1% of the users changed usage
    result = new_flat.compute(usage)
    rng = np.random.default_rng(2)
    n_dirty = max(1, new_flat.n_leaves // 100)
    dirty_rows = rng.choice(new_flat.n_leaves, size=n_dirty, replace=False)
    dirty_rows.sort()
    new_vals = rng.integers(1, 1_000_000, size=n_dirty).astype(float)
    delta_s = _best_of(
        lambda: new_flat.compute_delta(result, dirty_rows, new_vals,
                                       extra_dirty_nodes=info["target_dirty"]),
        max(repeats, 3))

    # steady-state memory footprint of the compiled layout + one result
    bytes_total = new_flat.memory_bytes() + result.memory_bytes()
    return dict(n_users=n_users, reference_s=ref_s, flat_s=flat_s,
                compile_s=compile_s,
                speedup=None if ref_s is None else ref_s / flat_s,
                recompile_s=recompile_s,
                incremental_recompile_s=incremental_recompile_s,
                recompile_speedup=recompile_s / incremental_recompile_s,
                delta_s=delta_s,
                bytes_per_user=bytes_total / n_users)


def format_rows(rows):
    lines = []
    for r in rows:
        ref = "      n/a" if r["reference_s"] is None \
            else f"{r['reference_s'] * 1e3:7.1f} ms"
        lines.append(
            f"{r['n_users']:>9} users: reference {ref}  "
            f"kernel {r['flat_s'] * 1e3:7.1f} ms  "
            f"delta {r['delta_s'] * 1e6:7.1f} us  "
            f"compile {r['compile_s'] * 1e3:7.1f} ms  "
            f"splice {r['incremental_recompile_s'] * 1e6:8.1f} us "
            f"({r['recompile_speedup']:7.1f}x)  "
            f"{r['bytes_per_user']:5.1f} B/user")
    return lines


@pytest.fixture(scope="module")
def refresh_rows(report):
    projection = PercentalProjection()
    rows = []
    for n_users in scale_tiers():
        repeats = 3 if n_users <= GATE_USERS else 1
        rows.append(measure_tier(n_users, projection, repeats))
    block = ["\n== refresh scaling (reference vs array kernel) =="] \
        + format_rows(rows)
    for line in block:
        print(line)
    report.extend(block)
    JSON_PATH.write_text(json.dumps(
        dict(benchmark="refresh_scaling",
             scale=os.environ.get("REPRO_BENCH_SCALE", "paper"),
             gate=dict(users=GATE_USERS, min_speedup=GATE_SPEEDUP,
                       min_recompile_speedup=RECOMPILE_GATE),
             rows=rows),
        indent=2) + "\n")
    return rows


class TestRefreshScaling:
    def test_speedup_gate_at_10k_users(self, refresh_rows):
        gate = next(r for r in refresh_rows if r["n_users"] == GATE_USERS)
        assert gate["speedup"] >= GATE_SPEEDUP, (
            f"kernel only {gate['speedup']:.1f}x faster than reference at "
            f"{GATE_USERS} users (need >= {GATE_SPEEDUP}x)")

    def test_speedup_is_monotone_ish(self, refresh_rows):
        # the kernel's advantage must not collapse as scale grows
        assert refresh_rows[-1]["speedup"] >= GATE_SPEEDUP

    def test_incremental_recompile_gate_at_top_tier(self, refresh_rows):
        """PR 7 gate: the journal splice must beat a from-scratch compile
        by >= 10x at the top tier (100k users at paper scale)."""
        gate = refresh_rows[-1]
        assert gate["recompile_speedup"] >= RECOMPILE_GATE, (
            f"incremental recompile only {gate['recompile_speedup']:.1f}x "
            f"faster than full at {gate['n_users']} users "
            f"(need >= {RECOMPILE_GATE}x)")

    def test_delta_refresh_beats_full_pass(self, refresh_rows):
        """A 1%-dirty delta refresh must be well under a full kernel pass."""
        top = refresh_rows[-1]
        assert top["delta_s"] < top["flat_s"]

    def test_json_artifact_written(self, refresh_rows):
        data = json.loads(JSON_PATH.read_text())
        assert data["benchmark"] == "refresh_scaling"
        assert len(data["rows"]) == len(scale_tiers())
        for row in data["rows"]:
            for column in ("recompile_s", "incremental_recompile_s",
                           "delta_s", "bytes_per_user"):
                assert column in row


@pytest.mark.million
class TestMillionUsers:
    """The million-user kernel pass (run with ``-m million``).

    Appends an ``n_users=1_000_000`` row — kernel refresh, delta refresh,
    journal-splice recompile, bytes/user — to ``BENCH_refresh.json``.
    """

    def test_million_user_row(self, report):
        row = measure_tier(1_000_000, PercentalProjection(), repeats=1)
        block = ["\n== refresh scaling: the million-user row =="] \
            + format_rows([row])
        for line in block:
            print(line)
        report.extend(block)
        try:
            data = json.loads(JSON_PATH.read_text())
        except (OSError, ValueError):
            data = dict(benchmark="refresh_scaling", scale="million",
                        gate=dict(users=GATE_USERS,
                                  min_speedup=GATE_SPEEDUP,
                                  min_recompile_speedup=RECOMPILE_GATE),
                        rows=[])
        data["rows"] = [r for r in data["rows"]
                        if r["n_users"] != row["n_users"]] + [row]
        JSON_PATH.write_text(json.dumps(data, indent=2) + "\n")
        assert row["recompile_speedup"] >= RECOMPILE_GATE
        assert row["delta_s"] < row["flat_s"]
        # the layout + one result must stay lean at the million-user scale
        assert row["bytes_per_user"] < 512.0


class TestKernelAgreesWithReference:
    """Randomized-tree equivalence at benchmark scale (the 1e-9 gate)."""

    @pytest.mark.parametrize("seed", range(3))
    def test_values_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        policy = grid_policy(500, users_per_project=int(rng.integers(3, 30)),
                             projects_per_vo=int(rng.integers(2, 10)),
                             seed=seed)
        usage = random_usage(policy, seed=seed + 100)
        ref = oracle.fairshare(policy, usage)
        res = FlatPolicy(policy).compute(usage)
        ref_priorities = {n.path: n.priority for n in ref.values()
                          if n.is_leaf}
        flat_priorities = res.priorities()
        assert set(ref_priorities) == set(flat_priorities)
        for path, value in ref_priorities.items():
            assert abs(flat_priorities[path] - value) < 1e-9
        for node in ref.values():
            i = res.flat.path_index[node.path]
            assert abs(res.balance[i] - node.balance) < 1e-9
        a = oracle.percental(ref)
        b = PercentalProjection().project_flat(res)
        for path, value in a.items():
            assert abs(b[path] - value) < 1e-9
