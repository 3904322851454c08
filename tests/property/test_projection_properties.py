"""Property-based tests for the projection algorithms."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flat import compute_fairshare_flat
from repro.core.policy import PolicyTree
from repro.core.projection import (
    BitwiseVectorProjection,
    DictionaryOrderingProjection,
    PercentalProjection,
)
from repro.core.vector import FairshareVector

vector_lists = st.lists(
    st.lists(st.floats(min_value=0.0, max_value=9999.0, allow_nan=False),
             min_size=1, max_size=4),
    min_size=1, max_size=8)


def as_vectors(lists):
    return {f"u{i}": FairshareVector(elems) for i, elems in enumerate(lists)}


class TestDictionaryProperties:
    @given(vector_lists)
    def test_values_in_unit_range(self, lists):
        values = DictionaryOrderingProjection().project_vectors(as_vectors(lists))
        assert all(0.0 < v < 1.0 for v in values.values())

    @given(vector_lists)
    def test_order_preservation(self, lists):
        vectors = as_vectors(lists)
        values = DictionaryOrderingProjection().project_vectors(vectors)
        names = list(vectors)
        for a in names:
            for b in names:
                if vectors[a] > vectors[b]:
                    assert values[a] > values[b]
                elif vectors[a] == vectors[b]:
                    assert values[a] == values[b]

    @given(vector_lists)
    def test_evenly_spaced_distinct_ranks(self, lists):
        vectors = as_vectors(lists)
        values = DictionaryOrderingProjection().project_vectors(vectors)
        n = len(vectors)
        allowed = {(n - i) / (n + 1) for i in range(n)}
        assert set(values.values()) <= {round(v, 12) for v in allowed} | set(values.values())
        for v in values.values():
            assert any(abs(v - a) < 1e-12 for a in allowed)


class TestBitwiseProperties:
    @given(vector_lists, st.integers(min_value=4, max_value=20))
    def test_values_in_unit_range(self, lists, bits):
        proj = BitwiseVectorProjection(bits_per_level=bits)
        values = proj.project_vectors(as_vectors(lists))
        assert all(0.0 <= v <= 1.0 for v in values.values())

    @given(vector_lists, st.integers(min_value=10, max_value=17))
    def test_order_preserved_at_quantized_resolution(self, lists, bits):
        """The projection is exactly the lexicographic order of the
        *quantized* vectors — sub-quantum differences at one level can be
        outweighed by deeper levels (the Table I precision loss), but
        whenever the quantized vectors order strictly, the values must too.
        """
        proj = BitwiseVectorProjection(bits_per_level=bits)
        vectors = {k: v for k, v in as_vectors(lists).items()
                   if v.depth <= proj.max_levels}
        values = proj.project_vectors(vectors)
        quantum = (1 << bits) - 1

        def quantized(v):
            padded = v.padded(proj.max_levels)
            return tuple(int(round(e / v.resolution * quantum)) for e in padded)

        for a in vectors:
            for b in vectors:
                qa, qb = quantized(vectors[a]), quantized(vectors[b])
                if qa > qb:
                    assert values[a] > values[b]
                elif qa == qb:
                    assert values[a] == values[b]

    @given(st.lists(st.floats(min_value=0.0, max_value=9999.0,
                              allow_nan=False), min_size=1, max_size=3))
    def test_deterministic(self, elems):
        proj = BitwiseVectorProjection()
        v = FairshareVector(elems)
        assert proj.project_one(v) == proj.project_one(v)


user_usage = st.dictionaries(
    st.sampled_from([f"u{i}" for i in range(5)]),
    st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
    min_size=2, max_size=5)


class TestPercentalProperties:
    @settings(max_examples=60)
    @given(user_usage)
    def test_values_in_unit_range(self, usage):
        policy = PolicyTree.from_dict({u: 1 for u in usage})
        tree = compute_fairshare_flat(policy, dict(usage))
        values = PercentalProjection().project_flat(tree)
        assert all(0.0 <= v <= 1.0 for v in values.values())

    @settings(max_examples=60)
    @given(user_usage)
    def test_flat_tree_order_matches_vectors(self, usage):
        """On a flat hierarchy percental and lexicographic order agree."""
        policy = PolicyTree.from_dict({u: 1 for u in usage})
        tree = compute_fairshare_flat(policy, dict(usage))
        values = PercentalProjection().project_flat(tree)
        vectors = tree.vectors()
        for a in values:
            for b in values:
                if vectors[a] > vectors[b]:
                    assert values[a] >= values[b] - 1e-12

    @settings(max_examples=60)
    @given(user_usage)
    def test_less_usage_never_hurts(self, usage):
        usage = dict(usage)
        users = sorted(usage)
        policy = PolicyTree.from_dict({u: 1 for u in users})
        tree = compute_fairshare_flat(policy, usage)
        values = PercentalProjection().project_flat(tree)
        ranked = sorted(users, key=lambda u: usage.get(u, 0.0))
        projected = [values[f"/{u}"] for u in ranked]
        assert all(projected[i] >= projected[i + 1] - 1e-12
                   for i in range(len(projected) - 1))
