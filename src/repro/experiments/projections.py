"""Table I regeneration: empirical probes of the projection properties.

The paper states that projecting a fairshare vector to a single float
cannot retain all vector properties, and tabulates which each algorithm
keeps (Table I): infinite depth, infinite precision, subgroup isolation,
proportionality, and combinability.  Rather than restating the table, we
*probe* each property with constructed vector families and report the
observed matrix.

Probe definitions (a property "holds" if every constructed case passes):

depth
    Vectors differing only at a deep level (beyond the bitwise bit budget)
    must still project to different values in the right order.
precision
    Vectors differing by a tiny amount at the top level must project to
    different values in the right order.
isolation
    Changing the balance of an entity in one subgroup must not reorder the
    projected values of users in a *different* subgroup.
proportional
    The projected values must preserve the relative magnitude of vector
    differences: for equally spaced top-level balances the projected
    values must be (close to) equally spaced.
combinable
    The projected value must lie in [0, 1] so schedulers can combine it
    linearly with other factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..core.flat import FlatFairshare, FlatPolicy
from ..core.policy import PolicyTree
from ..core.projection import (
    BitwiseVectorProjection,
    DictionaryOrderingProjection,
    PercentalProjection,
    Projection,
)
from ..core.vector import FairshareVector

__all__ = ["ProjectionProbeResult", "probe_projection", "regenerate_table1",
           "PAPER_TABLE1"]

#: Paper Table I as published ("✓"/"✗") — the vector row is the reference.
PAPER_TABLE1: Dict[str, Dict[str, bool]] = {
    "vectors": {"depth": True, "precision": True, "isolation": True,
                "proportional": True, "combinable": False},
    "dictionary": {"depth": True, "precision": True, "isolation": True,
                   "proportional": False, "combinable": True},
    "bitwise": {"depth": False, "precision": False, "isolation": True,
                "proportional": True, "combinable": True},
    "percental": {"depth": True, "precision": True, "isolation": False,
                  "proportional": True, "combinable": True},
}


@dataclass
class ProjectionProbeResult:
    name: str
    properties: Dict[str, bool]

    def render(self) -> str:
        marks = "  ".join(
            f"{prop}={'Y' if ok else 'n'}" for prop, ok in self.properties.items())
        return f"{self.name:<12} {marks}"


# ---------------------------------------------------------------------------
# probes on raw vectors (dictionary / bitwise)
# ---------------------------------------------------------------------------

def _probe_depth_vectors(project) -> bool:
    """A difference at depth 7 (beyond the bitwise bit budget) must survive."""
    base = [0.8, 0.5, 0.5, 0.5, 0.5, 0.5]
    a = FairshareVector.from_scores(base + [0.9])
    b = FairshareVector.from_scores(base + [0.1])
    values = project({"a": a, "b": b})
    return values["a"] > values["b"]


def _probe_precision_vectors(project) -> bool:
    """Tiny (1e-7) top-level differences must survive at several offsets.

    Multiple base points keep a quantizing projection from passing by luck
    of landing on a bucket boundary.
    """
    for base in (0.47, 0.212, 0.681, 0.9033):
        a = FairshareVector.from_scores([base + 5e-8])
        b = FairshareVector.from_scores([base - 5e-8])
        values = project({"a": a, "b": b})
        if not values["a"] > values["b"]:
            return False
    return True


def _probe_isolation_vectors(project) -> bool:
    """Perturbing group g2 must not reorder users inside group g1."""
    g1_u1 = [0.6, 0.7]
    g1_u2 = [0.6, 0.3]
    before = project({
        "g1/u1": FairshareVector.from_scores(g1_u1),
        "g1/u2": FairshareVector.from_scores(g1_u2),
        "g2/u3": FairshareVector.from_scores([0.4, 0.9]),
    })
    after = project({
        "g1/u1": FairshareVector.from_scores(g1_u1),
        "g1/u2": FairshareVector.from_scores(g1_u2),
        "g2/u3": FairshareVector.from_scores([0.4, 0.05]),
    })
    return (before["g1/u1"] > before["g1/u2"]) and (after["g1/u1"] > after["g1/u2"])


def _probe_proportional_vectors(project) -> bool:
    """Unequal balance gaps must be reflected proportionally.

    Input balances 0.1/0.2/0.8 have a 6:1 gap ratio; a proportional
    projection reproduces it (within quantization), a rank-based one
    flattens it to 1:1 ("the resulting fairshare number correctly indicates
    the sorting order, but the relative difference is lost").
    """
    scores = [0.1, 0.2, 0.8]
    vectors = {f"u{i}": FairshareVector.from_scores([s])
               for i, s in enumerate(scores)}
    values = project(vectors)
    small = values["u1"] - values["u0"]
    large = values["u2"] - values["u1"]
    if small <= 0 or large <= 0:
        return False
    ratio = large / small
    return 4.0 < ratio < 8.0  # true ratio 6


def _probe_combinable_vectors(project) -> bool:
    vectors = {f"u{i}": FairshareVector.from_scores([s, 1 - s])
               for i, s in enumerate([0.0, 0.3, 0.5, 0.9, 1.0])}
    values = project(vectors)
    return all(0.0 <= v <= 1.0 for v in values.values())


# ---------------------------------------------------------------------------
# probes through full trees (percental needs total shares)
# ---------------------------------------------------------------------------

def _two_group_tree(u3_usage: float) -> FlatFairshare:
    """Two projects with two users each; g2's internal balance is varied."""
    policy = PolicyTree.from_dict({
        "g1": (1, {"u1": 1, "u2": 1}),
        "g2": (1, {"u3": 1, "u4": 1}),
    })
    return FlatPolicy(policy).compute({"/g1/u1": 10.0, "/g1/u2": 40.0,
                                       "/g2/u3": u3_usage, "/g2/u4": 50.0})


def _probe_isolation_tree(projection: Projection) -> bool:
    """Two sub-checks of top-down subgroup isolation.

    (a) Perturbing group g2's internal balance must not reorder g1's users.
    (b) Top-down enforcement: when group A is overserved at the top level,
        *all* of A's users must rank below an underserved group B's user,
        however starved they are within A.  The fairshare vectors order
        this lexicographically; percental's total-share products let the
        deep within-group imbalance outweigh the top-level one.
    """
    before = projection.project_flat(_two_group_tree(u3_usage=5.0))
    after = projection.project_flat(_two_group_tree(u3_usage=400.0))
    stable = (before["/g1/u1"] > before["/g1/u2"]) == \
             (after["/g1/u1"] > after["/g1/u2"])

    policy = PolicyTree.from_dict({
        "A": (1, {"a_big": 9, "a_small": 1}),
        "B": (1, {"b_user": 1}),
    })
    # A consumed 70% of the system (overserved); within A, the 90%-entitled
    # a_big consumed almost nothing.  B consumed 30% (underserved).
    values = projection.project_flat(FlatPolicy(policy).compute(
        {"/A/a_big": 1.0, "/A/a_small": 69.0, "/B/b_user": 30.0}))
    # top-down enforcement: underserved group B's user must outrank both
    top_down = values["/B/b_user"] > values["/A/a_big"]
    return stable and top_down


def _probe_depth_tree(projection: Projection) -> bool:
    """A deep hierarchy: differences at level 5 must survive."""
    deep: Dict = {"lvl": (1, {"a": (1, {"b": (1, {"c": (1, {"ua": 1, "ub": 1})})})})}
    policy = PolicyTree.from_dict(deep)
    values = projection.project_flat(FlatPolicy(policy).compute(
        {"/lvl/a/b/c/ua": 10.0, "/lvl/a/b/c/ub": 90.0}))
    return values["/lvl/a/b/c/ua"] > values["/lvl/a/b/c/ub"]


def _probe_precision_tree(projection: Projection) -> bool:
    policy = PolicyTree.from_dict({"u1": 1, "u2": 1})
    values = projection.project_flat(FlatPolicy(policy).compute(
        {"/u1": 100.0, "/u2": 100.0 * (1 + 1e-9)}))
    return values["/u1"] > values["/u2"]


def _probe_proportional_tree(projection: Projection) -> bool:
    """Unequal usage gaps must be reflected proportionally in the values."""
    policy = PolicyTree.from_dict({f"u{i}": 1 for i in range(3)})
    # usage shares 0.6/0.3/0.1: target-usage diffs -0.267/0.033/0.233,
    # so value gaps have ratio (0.233-0.033)/(0.033+0.267) = 2/3
    values = projection.project_flat(FlatPolicy(policy).compute(
        {f"/u{i}": u for i, u in enumerate([0.6, 0.3, 0.1])}))
    gap_01 = values["/u1"] - values["/u0"]
    gap_12 = values["/u2"] - values["/u1"]
    if gap_01 <= 0 or gap_12 <= 0:
        return False
    ratio = gap_12 / gap_01
    return 0.55 < ratio < 0.80  # true ratio 2/3


def _probe_combinable_tree(projection: Projection) -> bool:
    values = projection.project_flat(_two_group_tree(u3_usage=5.0))
    return all(0.0 <= v <= 1.0 for v in values.values())


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def probe_projection(name: str) -> ProjectionProbeResult:
    """Run all five property probes against one projection algorithm."""
    if name == "dictionary":
        projection = DictionaryOrderingProjection()
        project = projection.project_vectors
        return ProjectionProbeResult(name, {
            "depth": _probe_depth_vectors(project),
            "precision": _probe_precision_vectors(project),
            "isolation": _probe_isolation_vectors(project)
            and _probe_isolation_tree(projection),
            "proportional": _probe_proportional_vectors(project),
            "combinable": _probe_combinable_vectors(project),
        })
    if name == "bitwise":
        projection = BitwiseVectorProjection(bits_per_level=10)
        project = projection.project_vectors
        return ProjectionProbeResult(name, {
            "depth": _probe_depth_vectors(project),
            "precision": _probe_precision_vectors(project),
            "isolation": _probe_isolation_vectors(project)
            and _probe_isolation_tree(projection),
            "proportional": _probe_proportional_vectors(project),
            "combinable": _probe_combinable_vectors(project),
        })
    if name == "percental":
        projection = PercentalProjection()
        return ProjectionProbeResult(name, {
            "depth": _probe_depth_tree(projection),
            "precision": _probe_precision_tree(projection),
            "isolation": _probe_isolation_tree(projection),
            "proportional": _probe_proportional_tree(projection),
            "combinable": _probe_combinable_tree(projection),
        })
    if name == "vectors":
        # raw vectors: compare directly (no projection); combinable fails by
        # definition (a vector is not a float in [0, 1])
        return ProjectionProbeResult(name, {
            "depth": FairshareVector.from_scores([0.5, 0.5, 0.5, 0.5, 0.9])
            > FairshareVector.from_scores([0.5, 0.5, 0.5, 0.5, 0.1]),
            "precision": FairshareVector.from_scores([0.5 + 5e-8])
            > FairshareVector.from_scores([0.5 - 5e-8]),
            "isolation": True,   # per-level comparison is isolated by construction
            "proportional": True,  # elements are linear in the balance score
            "combinable": False,
        })
    raise ValueError(f"unknown projection {name!r}")


def regenerate_table1() -> List[ProjectionProbeResult]:
    """All rows of the probed Table I (vectors + three projections)."""
    return [probe_projection(name)
            for name in ("vectors", "dictionary", "bitwise", "percental")]
