"""Projection of fairshare vectors to scalars in [0, 1] (paper Section III-C).

SLURM and Maui combine several job factors linearly, each a value in
``[0, 1]``.  A fairshare *vector* therefore has to be projected down to a
single float — and no projection can retain all four vector properties at
once (Table I).  Aequus ships three algorithms, selectable (and switchable
at run time):

``DictionaryOrdering``
    Vectors are ranked lexicographically (leftmost element first, i.e. a
    descending dictionary sort) and each is assigned an evenly spaced value
    by rank: three vectors yield 0.75, 0.50, 0.25.

``BitwiseVector``
    Each vector element is awarded N bits of entropy; the bits are merged
    most-significant-level-first into one number and rescaled to ``[0, 1]``.
    Depth and precision become finite (Table I ✗), but isolation and
    proportionality survive within the quantization.

``Percental``
    The user's *total* target share (product of shares down the path) minus
    the *total* usage share, rescaled to ``[0, 1]``.  Retains depth,
    precision, and proportionality but gives up subgroup isolation — the
    approach of SLURM prior to 2.5, and the configuration used in
    production and throughout the paper's evaluation.

Each projection has exactly one implementation, over arrays:
:meth:`Projection.project_flat_array` maps a refresh result
(:class:`~repro.core.flat.FlatFairshare`) to one value per leaf row, and
the dict surface :meth:`Projection.project_flat` is derived from it once,
in the base class.  The two vector projections run that same array code on
raw :class:`~repro.core.vector.FairshareVector` families too
(``project_vectors`` / ``project_one``, which Table I's probes call): the
vectors are stacked into the balance-point-padded element matrix a refresh
result carries.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from .vector import FairshareVector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (flat imports us not)
    from .flat import FlatFairshare

__all__ = [
    "Projection",
    "DictionaryOrderingProjection",
    "BitwiseVectorProjection",
    "PercentalProjection",
    "make_projection",
]


class Projection:
    """Base class: maps every user (leaf) of a fairshare refresh to [0, 1].

    Subclasses implement :meth:`project_flat_array`; everything else is
    derived from it.
    """

    name: str = "abstract"

    def project_flat(self, result: "FlatFairshare") -> Dict[str, float]:
        """Projected values keyed by leaf path."""
        return dict(zip(result.leaf_paths,
                        self.project_flat_array(result).tolist()))

    def project_flat_array(self, result: "FlatFairshare") -> np.ndarray:
        """Projected values as a float64 array aligned with
        ``result.leaf_paths``.

        The array surface lets consumers that hold results from several
        sites with one shared policy — the fairness recorder's cross-site
        divergence — compare values without any per-user dict traffic.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def _padded_matrix(vectors: Iterable[FairshareVector]
                   ) -> Tuple[np.ndarray, int]:
    """Raw vectors as one element matrix, balance-point padded to the
    deepest (the layout of :meth:`FlatFairshare.element_matrix`), plus
    their common resolution."""
    vectors = list(vectors)
    if not vectors:
        return np.empty((0, 0), dtype=np.float64), 1
    resolution = vectors[0].resolution
    if any(v.resolution != resolution for v in vectors):
        raise ValueError("vectors of different resolutions do not compare")
    depth = max(v.depth for v in vectors)
    return (np.array([v.padded(depth) for v in vectors], dtype=np.float64),
            resolution)


class DictionaryOrderingProjection(Projection):
    """Rank-based projection: evenly spaced values by descending sort.

    Equal vectors receive equal values (they are indistinguishable to the
    scheduler, as they should be).
    """

    name = "dictionary"

    def project_flat_array(self, result: "FlatFairshare") -> np.ndarray:
        return self._rank(result.element_matrix())

    def project_vectors(self, vectors: Mapping[str, FairshareVector]
                        ) -> Dict[str, float]:
        matrix, _ = _padded_matrix(vectors.values())
        return dict(zip(vectors, self._rank(matrix).tolist()))

    @staticmethod
    def _rank(matrix: np.ndarray) -> np.ndarray:
        """Rank all rows at once via a columnar lexicographic sort.

        Rows are balance-point padded, so comparing them column by column
        is exactly the padded :class:`FairshareVector` comparison.
        """
        n, depth = matrix.shape
        if n == 0:
            return np.empty(0, dtype=np.float64)
        # np.lexsort treats the *last* key as primary; feed columns reversed
        # and flip for a descending (best-first) order
        order = np.lexsort(tuple(matrix[:, c] for c in range(depth - 1, -1, -1)))[::-1]
        ranked = matrix[order]
        differs = np.any(ranked[1:] != ranked[:-1], axis=1)
        # rank of a row = index of the first row of its tie group
        boundaries = np.concatenate(([0], np.nonzero(differs)[0] + 1))
        group = np.cumsum(np.concatenate(([0], differs.astype(np.int64))))
        values_sorted = (n - boundaries[group]) / (n + 1)
        values = np.empty(n, dtype=np.float64)
        values[order] = values_sorted
        return values


class BitwiseVectorProjection(Projection):
    """Fixed-entropy bit packing of vector elements.

    ``bits_per_level`` bits represent the balance at each level, merged with
    the top level at the most significant end.  The total entropy is capped
    at 52 bits (an IEEE-754 double's integer-exact mantissa — the paper
    merges into "a double data primitive"), which bounds the representable
    depth: ``max_levels = 52 // bits_per_level`` unless set lower.  Deeper
    vector levels are silently dropped — the Table I depth limitation.
    """

    name = "bitwise"

    def __init__(self, bits_per_level: int = 16, max_levels: Optional[int] = None):
        if not 1 <= bits_per_level <= 52:
            raise ValueError("bits_per_level must lie in [1, 52]")
        self.bits_per_level = bits_per_level
        cap = 52 // bits_per_level
        self.max_levels = min(max_levels, cap) if max_levels is not None else cap
        if self.max_levels < 1:
            raise ValueError("configuration leaves no representable levels")

    def project_flat_array(self, result: "FlatFairshare") -> np.ndarray:
        return self._pack(result.element_matrix(),
                          result.parameters.resolution)

    def project_vectors(self, vectors: Mapping[str, FairshareVector]
                        ) -> Dict[str, float]:
        matrix, resolution = _padded_matrix(vectors.values())
        return dict(zip(vectors, self._pack(matrix, resolution).tolist()))

    def project_one(self, vector: FairshareVector) -> float:
        return float(self._pack(np.array([vector.elements]),
                                vector.resolution)[0])

    def _pack(self, matrix: np.ndarray, resolution: int) -> np.ndarray:
        """Pack every row at once.

        Per-level quantized values stay below ``2**bits_per_level`` and the
        packed total below ``2**52``, so float64 accumulation is exact:
        the same bits as integer shift-and-or packing.
        """
        n, depth = matrix.shape
        levels = self.max_levels
        quantum = (1 << self.bits_per_level) - 1
        balance = resolution / 2.0
        packed = np.zeros(n, dtype=np.float64)
        for i in range(levels):
            elem = matrix[:, i] if i < depth else np.full(n, balance)
            q = np.clip(np.rint(elem / float(resolution) * quantum), 0, quantum)
            packed = packed * (quantum + 1) + q
        packed /= float((1 << (self.bits_per_level * levels)) - 1)
        return packed


class PercentalProjection(Projection):
    """Total-share difference projection (SLURM < 2.5 style).

    ``f = ((target_total - usage_total) + 1) / 2`` — the signed difference
    of products down the path, rescaled from ``[-1, 1]`` to ``[0, 1]`` so
    perfect balance maps to 0.5.
    """

    name = "percental"

    def project_flat_array(self, result: "FlatFairshare") -> np.ndarray:
        target_total, usage_total = result.path_products()
        return np.clip((target_total - usage_total + 1.0) / 2.0, 0.0, 1.0)


_PROJECTIONS = {
    "dictionary": DictionaryOrderingProjection,
    "bitwise": BitwiseVectorProjection,
    "percental": PercentalProjection,
}


def make_projection(name: str, **kwargs) -> Projection:
    """Instantiate a projection by configuration name.

    The projection in use is a run-time configurable choice (paper Section
    III-C); schedulers construct it from a config string.
    """
    try:
        cls = _PROJECTIONS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown projection {name!r}; choose from {sorted(_PROJECTIONS)}") from None
    return cls(**kwargs)
