"""Unit tests for the three vector-to-scalar projections (Section III-C)."""

import pytest

from repro.core.flat import compute_fairshare_flat
from repro.core.policy import PolicyTree
from repro.core.projection import (
    BitwiseVectorProjection,
    DictionaryOrderingProjection,
    PercentalProjection,
    make_projection,
)
from repro.core.vector import FairshareVector


def make_tree(usage):
    policy = PolicyTree.from_dict({u: 1 for u in usage})
    return compute_fairshare_flat(policy, usage)


class TestDictionaryOrdering:
    def test_paper_spacing_example(self):
        # paper: "three vectors would result in the numerical values 0.75,
        # 0.50, and 0.25, according to sorting order"
        proj = DictionaryOrderingProjection()
        vectors = {
            "a": FairshareVector([9000.0]),
            "b": FairshareVector([5000.0]),
            "c": FairshareVector([1000.0]),
        }
        values = proj.project_vectors(vectors)
        assert values["a"] == pytest.approx(0.75)
        assert values["b"] == pytest.approx(0.50)
        assert values["c"] == pytest.approx(0.25)

    def test_equal_vectors_equal_values(self):
        proj = DictionaryOrderingProjection()
        values = proj.project_vectors({
            "a": FairshareVector([5000.0]),
            "b": FairshareVector([5000.0]),
            "c": FairshareVector([1000.0]),
        })
        assert values["a"] == values["b"]
        assert values["c"] < values["a"]

    def test_empty_input(self):
        assert DictionaryOrderingProjection().project_vectors({}) == {}

    def test_order_preserved(self):
        proj = DictionaryOrderingProjection()
        vectors = {f"u{i}": FairshareVector([float(i * 1000)]) for i in range(8)}
        values = proj.project_vectors(vectors)
        ranked = sorted(vectors, key=lambda u: values[u])
        assert ranked == [f"u{i}" for i in range(8)]

    def test_project_tree(self):
        tree = make_tree({"a": 10.0, "b": 1.0})
        values = DictionaryOrderingProjection().project_flat(tree)
        assert values["/b"] > values["/a"]


class TestBitwiseVector:
    def test_values_in_unit_range(self):
        proj = BitwiseVectorProjection(bits_per_level=16)
        for elems in ([0.0], [9999.0], [5000.0, 2000.0, 9999.0]):
            v = proj.project_one(FairshareVector(elems))
            assert 0.0 <= v <= 1.0

    def test_top_level_dominates(self):
        proj = BitwiseVectorProjection(bits_per_level=16)
        high_top = proj.project_one(FairshareVector([6000.0, 0.0]))
        low_top = proj.project_one(FairshareVector([5999.0, 9999.0]))
        assert high_top > low_top

    def test_depth_capped_by_bit_budget(self):
        proj = BitwiseVectorProjection(bits_per_level=16)
        assert proj.max_levels == 3  # 52 // 16
        deep_a = FairshareVector([5000.0] * 3 + [9999.0])
        deep_b = FairshareVector([5000.0] * 3 + [0.0])
        assert proj.project_one(deep_a) == proj.project_one(deep_b)

    def test_quantization_limits_precision(self):
        proj = BitwiseVectorProjection(bits_per_level=8)
        a = proj.project_one(FairshareVector([5000.0]))
        b = proj.project_one(FairshareVector([5000.5]))
        assert a == b  # sub-quantum difference lost

    def test_explicit_max_levels(self):
        proj = BitwiseVectorProjection(bits_per_level=8, max_levels=2)
        assert proj.max_levels == 2

    def test_max_levels_clamped_to_mantissa(self):
        proj = BitwiseVectorProjection(bits_per_level=8, max_levels=100)
        assert proj.max_levels == 6  # 52 // 8

    def test_invalid_bits_rejected(self):
        with pytest.raises(ValueError):
            BitwiseVectorProjection(bits_per_level=0)
        with pytest.raises(ValueError):
            BitwiseVectorProjection(bits_per_level=60)

    def test_short_vector_padded_with_balance(self):
        proj = BitwiseVectorProjection(bits_per_level=16)
        short = proj.project_one(FairshareVector([6000.0]))
        explicit = proj.project_one(FairshareVector([6000.0, 4999.5, 4999.5]))
        assert short == pytest.approx(explicit)

    def test_monotone_within_budget(self):
        proj = BitwiseVectorProjection(bits_per_level=16)
        values = [proj.project_one(FairshareVector([x]))
                  for x in (0.0, 2500.0, 5000.0, 7500.0, 9999.0)]
        assert values == sorted(values)


class TestPercental:
    def test_balance_maps_to_half(self):
        tree = make_tree({"a": 1.0, "b": 1.0})  # equal targets, equal usage
        values = PercentalProjection().project_flat(tree)
        assert values["/a"] == pytest.approx(0.5)

    def test_underserved_above_half(self):
        tree = make_tree({"a": 0.0, "b": 10.0})
        values = PercentalProjection().project_flat(tree)
        assert values["/a"] > 0.5 > values["/b"]

    def test_values_in_unit_range(self):
        tree = make_tree({"a": 1000.0, "b": 0.001})
        for v in PercentalProjection().project_flat(tree).values():
            assert 0.0 <= v <= 1.0

    def test_uses_total_share_products(self):
        policy = PolicyTree.from_dict({"proj": (0.2, {"u": 1, "v": 3}),
                                       "rest": 0.8})
        # paper example: project share 0.20 * user share 0.25 = total 0.05
        tree = compute_fairshare_flat(policy, {})
        values = PercentalProjection().project_flat(tree)
        assert values["/proj/u"] == pytest.approx((0.05 - 0.0 + 1) / 2)


class TestFactory:
    def test_make_by_name(self):
        assert isinstance(make_projection("dictionary"), DictionaryOrderingProjection)
        assert isinstance(make_projection("bitwise"), BitwiseVectorProjection)
        assert isinstance(make_projection("percental"), PercentalProjection)

    def test_case_insensitive(self):
        assert isinstance(make_projection("Percental"), PercentalProjection)

    def test_kwargs_forwarded(self):
        proj = make_projection("bitwise", bits_per_level=4)
        assert proj.bits_per_level == 4

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_projection("nope")
