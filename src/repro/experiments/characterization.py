"""Projection characterization (paper Section III-C, planned future work).

"In-depth evaluation, characterization, and fine tuning of the above
mentioned algorithms is part of our planned future work."  This driver
performs that characterization over randomized fairshare trees:

* **order fidelity** — Kendall-style pairwise agreement between the
  projected values and the true lexicographic vector order;
* **proportionality distortion** — how much relative value differences
  deviate from the corresponding vector-balance differences (flat trees,
  where proportionality is well-defined);
* **isolation violations** — fraction of random two-group trees where
  perturbing one group reorders another group's users or breaks top-down
  enforcement.

The vector-factor alternative (``core.vectorfactors``) is the implicit
fourth arm: extended vectors compare exactly, so its order fidelity is 1.0
by construction — the characterization quantifies what the scalar
projections give up relative to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..core.flat import FlatFairshare, FlatPolicy
from ..core.policy import PolicyTree
from ..core.projection import Projection, make_projection

__all__ = ["ProjectionCharacterization", "characterize_projections"]


@dataclass
class ProjectionCharacterization:
    name: str
    order_fidelity: float
    proportionality_error: float
    isolation_violations: float
    trees_evaluated: int

    def row(self) -> str:
        return (f"{self.name:<12} order-fidelity={self.order_fidelity:.4f}  "
                f"proportionality-err={self.proportionality_error:.4f}  "
                f"isolation-violations={self.isolation_violations:.3f}")


def _random_tree(rng: np.random.Generator, max_groups: int = 3,
                 max_users: int = 4) -> FlatFairshare:
    """A random two-level hierarchy with random weights and usage."""
    spec: Dict = {}
    usage: Dict[str, float] = {}
    n_groups = int(rng.integers(1, max_groups + 1))
    for g in range(n_groups):
        users = {f"u{g}_{i}": float(rng.uniform(0.2, 5.0))
                 for i in range(int(rng.integers(2, max_users + 1)))}
        spec[f"g{g}"] = (float(rng.uniform(0.2, 5.0)), users)
    policy = PolicyTree.from_dict(spec)
    for leaf in policy.leaves():
        if rng.random() < 0.85:  # some users stay idle
            usage[leaf.path] = float(rng.exponential(100.0))
    return FlatPolicy(policy).compute(usage)


def _order_fidelity(projection: Projection, trees: List[FlatFairshare]) -> float:
    agree = total = 0
    for tree in trees:
        vectors = tree.vectors()
        values = projection.project_flat(tree)
        paths = list(vectors)
        for i, a in enumerate(paths):
            for b in paths[i + 1:]:
                if vectors[a] == vectors[b]:
                    continue
                total += 1
                want = vectors[a] > vectors[b]
                got = values[a] > values[b]
                if want == got:
                    agree += 1
    return agree / total if total else 1.0


def _proportionality_error(projection: Projection,
                           rng: np.random.Generator,
                           samples: int = 50) -> float:
    """Mean relative gap-ratio error on random flat trees."""
    errors = []
    for _ in range(samples):
        n = int(rng.integers(3, 6))
        policy = PolicyTree.from_dict({f"u{i}": 1 for i in range(n)})
        raw = np.sort(rng.uniform(0.0, 200.0, size=n))
        tree = FlatPolicy(policy).compute(
            {f"/u{i}": float(u) for i, u in enumerate(raw)})
        balances = dict(zip(tree.leaf_paths,
                            tree.balance[tree.flat.leaf_index].tolist()))
        values = projection.project_flat(tree)
        order = sorted(balances, key=balances.get)
        for i in range(len(order) - 2):
            a, b, c = order[i], order[i + 1], order[i + 2]
            gap_b1 = balances[b] - balances[a]
            gap_b2 = balances[c] - balances[b]
            gap_v1 = values[b] - values[a]
            gap_v2 = values[c] - values[b]
            if gap_b1 <= 1e-9 or gap_b2 <= 1e-9 or gap_v1 <= 1e-12 or gap_v2 <= 1e-12:
                continue
            true_ratio = gap_b2 / gap_b1
            got_ratio = gap_v2 / gap_v1
            errors.append(abs(np.log(got_ratio / true_ratio)))
    return float(np.mean(errors)) if errors else 0.0


def _isolation_violations(projection: Projection,
                          rng: np.random.Generator,
                          samples: int = 50) -> float:
    """Fraction of perturbation trials breaking isolation / top-down order."""
    violations = 0
    for _ in range(samples):
        base_usage = {
            "/A/a1": float(rng.exponential(50.0)),
            "/A/a2": float(rng.exponential(50.0)),
            "/B/b1": float(rng.exponential(50.0)),
            "/B/b2": float(rng.exponential(50.0)),
        }
        policy = PolicyTree.from_dict({
            "A": (float(rng.uniform(0.5, 2.0)), {"a1": 2, "a2": 1}),
            "B": (float(rng.uniform(0.5, 2.0)), {"b1": 1, "b2": 1}),
        })

        def project(usage_map):
            tree = FlatPolicy(policy).compute(usage_map)
            return projection.project_flat(tree), tree

        values1, tree1 = project(base_usage)
        perturbed = dict(base_usage)
        perturbed["/B/b1"] = base_usage["/B/b1"] * float(rng.uniform(5.0, 50.0))
        values2, _ = project(perturbed)
        # (a) within-group stability of the untouched group A
        if (values1["/A/a1"] > values1["/A/a2"]) != \
                (values2["/A/a1"] > values2["/A/a2"]):
            violations += 1
            continue
        # (b) top-down enforcement against the vector order
        vectors = tree1.vectors()
        for a in vectors:
            broken = False
            for b in vectors:
                if vectors[a] > vectors[b] and values1[a] < values1[b]:
                    violations += 1
                    broken = True
                    break
            if broken:
                break
    return violations / samples


def characterize_projections(seed: int = 0, n_trees: int = 60,
                             names: Optional[List[str]] = None
                             ) -> List[ProjectionCharacterization]:
    rng = np.random.default_rng(seed)
    trees = [_random_tree(rng) for _ in range(n_trees)]
    out = []
    for name in names or ("dictionary", "bitwise", "percental"):
        projection = make_projection(name)
        out.append(ProjectionCharacterization(
            name=name,
            order_fidelity=_order_fidelity(projection, trees),
            proportionality_error=_proportionality_error(
                projection, np.random.default_rng(seed + 1)),
            isolation_violations=_isolation_violations(
                projection, np.random.default_rng(seed + 2)),
            trees_evaluated=n_trees,
        ))
    return out
