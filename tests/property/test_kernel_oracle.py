"""The array kernel equals the naive recursive reference (``tests/oracle``).

Random policy trees (the serialization suite's strategy), random usage
keyed by leaf path or bare name, random ``k``: every node's target share,
usage share, priority and balance, every node's vector, and the three
projections agree at 1e-9.  The dictionary and bitwise projections are
step functions of the vectors (a rank, a quantization), so the oracle's
versions run on the kernel's own vectors — a 1e-15 difference in a
balance must not be read as a wrong rank.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distance import FairshareParameters
from repro.core.flat import compute_fairshare_flat
from repro.core.projection import (BitwiseVectorProjection,
                                   DictionaryOrderingProjection,
                                   PercentalProjection)

from .. import oracle
from .test_core_properties import ks
from .test_service_properties import policy_trees

TOL = 1e-9


@st.composite
def refreshes(draw):
    policy = draw(policy_trees())
    usage = {}
    for leaf in policy.leaves():
        if draw(st.booleans()):
            key = leaf.path if draw(st.booleans()) else leaf.name
            usage[key] = draw(st.floats(min_value=0.0, max_value=1e6,
                                        allow_nan=False))
    return policy, usage, FairshareParameters(k=draw(ks))


class TestKernelEqualsOracle:
    @settings(max_examples=80, deadline=None)
    @given(refreshes())
    def test_every_node(self, refresh):
        policy, usage, params = refresh
        ref = oracle.fairshare(policy, usage, params)
        res = compute_fairshare_flat(policy, usage, params)
        assert sorted(ref) == sorted(res.flat.paths)
        for path, node in ref.items():
            i = res.flat.path_index[path]
            for column in ("target_share", "usage_share", "priority",
                           "balance"):
                assert abs(getattr(res, column)[i]
                           - getattr(node, column)) <= TOL, (path, column)
            want = oracle.vector(node, params.resolution).elements
            got = res.vector(path).elements
            assert len(got) == len(want)
            assert all(abs(a - b) <= TOL * params.resolution
                       for a, b in zip(got, want))

    @settings(max_examples=80, deadline=None)
    @given(refreshes(), st.integers(min_value=4, max_value=20))
    def test_three_projections(self, refresh, bits):
        policy, usage, params = refresh
        res = compute_fairshare_flat(policy, usage, params)
        percental = PercentalProjection().project_flat(res)
        for path, value in oracle.percental(
                oracle.fairshare(policy, usage, params)).items():
            assert abs(percental[path] - value) <= TOL
        vectors = res.vectors()
        assert DictionaryOrderingProjection().project_flat(res) == \
            oracle.dictionary(vectors)
        bitwise = BitwiseVectorProjection(bits_per_level=bits)
        assert bitwise.project_flat(res) == {
            path: oracle.bitwise(vec, bits, bitwise.max_levels)
            for path, vec in vectors.items()}
