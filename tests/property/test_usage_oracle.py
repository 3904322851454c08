"""Property: the columnar histogram is the dict-of-dict one, exactly.

:class:`repro.core.usage.UsageHistogram` keeps sorted ``(user, bin)`` key
and charge columns, folds scalar adds in from a pending buffer and keeps
change cursors as key arrays; the reference in ``tests/oracle/usage.py``
is the plain ``{user: {bin: charge}}`` layout it replaced.  A random
schedule of every mutation — scalar charges and bins, absolute sets,
prunes, partial and full array applies (repeated keys included), whole
replacements, merges — interleaved with cursor registrations, drains and
releases, is run against both:

* ``snapshot()`` and every cursor drain are equal with ``==``: stored
  values are bit-identical, so the fold must add in arrival order;
* ``decayed_totals``, ``decayed_totals_batch`` and ``newest_midpoints``
  agree at 1e-12 relative (the columnar sums run in bin order).
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decay import ExponentialDecay, LinearDecay, NoDecay
from repro.core.usage import UsageHistogram
from tests.oracle.usage import UsageHistogram as DictHistogram

INTERVAL = 60.0
USERS = ["alice", "bob", "čaroděj", "d"]

users = st.sampled_from(USERS)
bins = st.integers(-5, 25)
charges = st.floats(min_value=0.0, max_value=1e6, allow_nan=False) \
    | st.sampled_from([0.0, 5e-324, 0.1, 1 / 3])
positive = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False) \
    | st.sampled_from([0.1, 1 / 3, 7.0])
times = st.floats(min_value=-300.0, max_value=1500.0, allow_nan=False)
entries = st.lists(st.tuples(users, bins, charges), max_size=12)

ops = st.one_of(
    st.tuples(st.just("add_charge"), users, times,
              st.floats(min_value=0.0, max_value=400.0, allow_nan=False),
              st.integers(1, 4)),
    st.tuples(st.just("add_bin"), users, bins, positive),
    # a burst of adds on few keys, folded together at the next read: the
    # fold must add them in arrival order to stay bit-identical
    st.tuples(st.just("burst"),
              st.lists(st.tuples(st.sampled_from(USERS[:2]),
                                 st.integers(0, 2), positive),
                       min_size=2, max_size=10)),
    st.tuples(st.just("set_bin"), users, bins, charges),
    st.tuples(st.just("prune"), times,
              st.floats(min_value=0.0, max_value=600.0, allow_nan=False)),
    st.tuples(st.just("apply"), entries, st.booleans()),
    st.tuples(st.just("replace"),
              st.dictionaries(users, st.dictionaries(bins, charges,
                                                     min_size=1),
                              max_size=3)),
    st.tuples(st.just("merge"), st.lists(st.tuples(users, bins, positive),
                                         max_size=8)),
    st.tuples(st.just("register")),
    st.tuples(st.just("drain"), st.integers(0, 3)),
    st.tuples(st.just("release"), st.integers(0, 3)),
    st.tuples(st.just("check"), times),
)

DECAYS = [NoDecay(), ExponentialDecay(half_life=600.0),
          LinearDecay(window=900.0)]


def close(a, b):
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-300)


def assert_close_maps(got, want):
    assert set(got) == set(want)
    for key in want:
        assert close(got[key], want[key]), (key, got[key], want[key])


def compare(col, ref, now):
    assert col.snapshot() == ref.snapshot()
    assert col.users == ref.users
    assert col.n_bins() == ref.n_bins()
    assert_close_maps(col.newest_midpoints(), ref.newest_midpoints())
    for user in USERS:
        assert col.newest_midpoint(user) == ref.newest_midpoint(user)
        assert col.user_bins(user) == ref.user_bins(user)
    for decay in DECAYS:
        assert_close_maps(col.decayed_totals(now, decay),
                          ref.decayed_totals(now, decay))
        subset = USERS[::2] + ["ghost"]
        assert_close_maps(col.decayed_totals_batch(subset, now, decay),
                          ref.decayed_totals_batch(subset, now, decay))
        for user in USERS:
            assert close(col.decayed_total(user, now, decay),
                         ref.decayed_total(user, now, decay))


def arrays(listed):
    table = sorted({u for u, _, _ in listed})
    return (table, [table.index(u) for u, _, _ in listed],
            [b for _, b, _ in listed], [c for _, _, c in listed])


@settings(max_examples=150, deadline=None)
@given(st.lists(ops, max_size=40), times)
def test_columnar_histogram_matches_dict_oracle(schedule, end):
    col, ref = UsageHistogram(INTERVAL), DictHistogram(INTERVAL)
    cursors = []  # (columnar id, oracle id) pairs, live ones only
    for op in schedule:
        kind = op[0]
        if kind == "add_charge":
            _, user, start, duration, cores = op
            col.add_charge(user, start, start + duration, cores)
            ref.add_charge(user, start, start + duration, cores)
        elif kind == "burst":
            for add in op[1]:
                col.add_bin(*add)
                ref.add_bin(*add)
        elif kind in ("add_bin", "set_bin"):
            getattr(col, kind)(*op[1:])
            getattr(ref, kind)(*op[1:])
        elif kind == "prune":
            assert close(col.prune(*op[1:]), ref.prune(*op[1:]))
        elif kind == "apply":
            _, listed, full = op
            col.apply_arrays(*arrays(listed), full=full)
            ref.apply_arrays(*arrays(listed), full=full)
        elif kind == "replace":
            col.replace(op[1])
            ref.replace(op[1])
        elif kind == "merge":
            other_col, other_ref = UsageHistogram(INTERVAL), \
                DictHistogram(INTERVAL)
            for user, b, charge in op[1]:
                other_col.add_bin(user, b, charge)
                other_ref.add_bin(user, b, charge)
            col.merge(other_col)
            ref.merge(other_ref)
        elif kind == "register":
            cursors.append((col.register_cursor(), ref.register_cursor()))
        elif kind == "drain" and cursors:
            c, r = cursors[op[1] % len(cursors)]
            assert col.drain_cursor(c) == ref.drain_cursor(r)
        elif kind == "release" and cursors:
            c, r = cursors.pop(op[1] % len(cursors))
            col.release_cursor(c)
            ref.release_cursor(r)
        elif kind == "check":
            compare(col, ref, op[1])
    for c, r in cursors:
        assert col.drain_cursor(c) == ref.drain_cursor(r)
    compare(col, ref, end)
