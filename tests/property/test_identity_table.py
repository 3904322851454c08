"""One identity rule, three readers.

The FCS owns the only identity table (identity -> leaf row); ``fcs.lookup``,
the in-process :class:`FairshareSnapshot` and the shared-memory
:class:`ShmEpochView` all read it.  After every step of a random schedule
of usage, alias registrations and policy edits, the three must answer
every candidate identity alike at equal seq — and all three must agree
with the rule written out naively over the policy tree.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.decay import ExponentialDecay
from repro.core.policy import PolicyTree
from repro.core.usage import UsageRecord
from repro.serve.protocol import ERR_NOT_A_LEAF, ERR_UNKNOWN_USER, NO_LEAF_ID
from repro.serve.shm import ShmSnapshotReader, ShmSnapshotWriter
from repro.serve.snapshot import snapshot_from_fcs
from repro.services.fcs import FairshareCalculationService
from repro.services.network import Network
from repro.services.pds import PolicyDistributionService
from repro.services.ums import UsageMonitoringService
from repro.services.uss import UsageStatisticsService
from repro.sim.engine import SimulationEngine


def base_policy() -> PolicyTree:
    # bare names "a" and "b" are each held by two leaves: pre-order decides
    return PolicyTree.from_dict({
        "g0": {"a": 2, "b": 1},
        "g1": {"a": 1, "c": 3},
        "g2": {"sub": {"b": 1, "e": 2}, "d": 1},
    })


#: targets an alias may point at: paths (leaf and internal), bare names
#: (unique and duplicated), and names that resolve to nothing
TARGETS = ["a", "b", "c", "d", "e", "/g1/a", "/g2/sub/b", "/g1", "/g2/sub",
           "ghost", "/g9/zz"]
#: alias names: fresh ones, and ones named like a leaf, a path or a node
ALIASES = ["CN=dn", "CN=other", "a", "c", "/g0/a", "/g1", "new0"]
#: paths a policy edit may touch
EDIT_PATHS = ["/g0/a", "/g0/b", "/g1/c", "/g2/sub/e", "/g2/d", "/g1"]
#: where structural edits add leaves: new names, a duplicate bare name, and
#: under an existing leaf (which turns it into an internal node)
ADD_PATHS = ["/g2/new0", "/g0/new1", "/g1/b", "/g0/b/x", "/g2/sub/e/y"]
#: identities usage is recorded under
USAGE_USERS = ["a", "b", "c", "d", "e", "/g1/a", "CN=dn", "new0", "stranger"]

CANDIDATES = sorted(set(TARGETS + ALIASES + EDIT_PATHS + ADD_PATHS
                        + USAGE_USERS + ["/g0", "/g2", "/", "", "x", "y",
                                         "/g0/b/x", "nobody"]))

ops = st.one_of(
    st.tuples(st.just("job"), st.sampled_from(USAGE_USERS)),
    st.tuples(st.just("idle")),
    st.tuples(st.just("alias"), st.sampled_from(ALIASES),
              st.sampled_from(TARGETS)),
    st.tuples(st.just("weight"), st.sampled_from(EDIT_PATHS),
              st.floats(min_value=0.25, max_value=8.0, allow_nan=False)),
    st.tuples(st.just("add"), st.sampled_from(ADD_PATHS)),
    st.tuples(st.just("remove"), st.sampled_from(EDIT_PATHS + ADD_PATHS)),
)


def build_stack():
    engine = SimulationEngine()
    network = Network(engine, base_latency=0.1)
    uss = UsageStatisticsService("a", engine, network,
                                 histogram_interval=20.0, publish=False)
    ums = UsageMonitoringService("a", engine, [uss],
                                 decay=ExponentialDecay(half_life=3600.0),
                                 refresh_interval=10.0)
    pds = PolicyDistributionService("a", engine, base_policy(),
                                    refresh_interval=3600.0)
    fcs = FairshareCalculationService("a", engine, pds, ums,
                                      refresh_interval=10.0)
    return engine, uss, pds, fcs


def naive_node(policy: PolicyTree, identity_map, identity: str):
    """The identity rule over the tree itself: an alias redirects once,
    then a node path names that node and a bare name the first leaf in
    pre-order with that name."""
    target = identity_map.get(identity, identity)
    if target.startswith("/"):
        node = policy.find(target)
        if node is not None and node.parent is not None:
            return node
    return next((leaf for leaf in policy.leaves()
                 if leaf.parent is not None and leaf.name == target), None)


def check_fcs(fcs, policy):
    values = fcs.values()
    for identity in CANDIDATES:
        node = naive_node(policy, fcs.identity_map, identity)
        if node is not None and node.is_leaf:
            want = (values[node.path], True)
        else:
            want = (fcs.unknown_user_value, False)
        assert fcs.lookup(identity) == want, identity


def check_readers(fcs, policy, snap, view):
    assert view.seq == snap.seq == fcs.publishes
    check_fcs(fcs, policy)
    table = fcs.identity_table()
    for identity in CANDIDATES:
        assert snap.lookup(identity) == view.lookup(identity) \
            == fcs.lookup(identity), identity
        row = snap.resolve_leaf(identity)[2]
        assert view.resolve_leaf(identity)[2] == row, identity
        assert (row == NO_LEAF_ID) == (fcs.vector(identity) is None)
        code = snap.vector_error_code(identity)
        assert view.vector_error_code(identity) == code, identity
        if row == NO_LEAF_ID:
            node = naive_node(policy, fcs.identity_map, identity)
            assert code == (ERR_UNKNOWN_USER if node is None
                            else ERR_NOT_A_LEAF), identity
            assert (identity in table) == (node is not None), identity
        else:
            assert view.vector(identity) == snap.vector(identity) \
                == fcs.vector(identity), identity


class TestOneIdentityRule:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(ops, min_size=1, max_size=12))
    # an alias aimed at a name another alias claims resolves the name, not
    # that alias; an alias aimed at nothing shadows the node it is named as
    @example([("alias", "c", "d"), ("alias", "a", "c"),
              ("alias", "/g1", "ghost"), ("job", "a")])
    def test_fcs_snapshot_and_shm_resolve_alike(self, schedule):
        engine, uss, pds, fcs = build_stack()
        writer = ShmSnapshotWriter("idt")
        reader = ShmSnapshotReader(writer.name)
        try:
            for op in schedule:
                kind = op[0]
                if kind == "job":
                    t = engine.now
                    uss.record_job(UsageRecord(user=op[1], site="a",
                                               start=max(0.0, t - 50.0),
                                               end=t))
                elif kind == "alias":
                    fcs.register_identity(op[1], op[2])
                    # the FCS answers a new alias before any refresh
                    check_fcs(fcs, pds.policy())
                elif kind == "weight":
                    if pds.policy().find(op[1]) is not None:
                        pds.set_share(op[1], op[2])
                elif kind == "add":
                    pds.set_share(op[1], 1.0)
                elif kind == "remove":
                    if pds.policy().find(op[1]) is not None:
                        pds.policy().remove_path(op[1])
                engine.run_until(engine.now + 10.0)  # UMS, then FCS
                snap = snapshot_from_fcs(fcs)
                writer.publish(snap)
                check_readers(fcs, pds.policy(), snap, reader.view())
        finally:
            reader.close()
            writer.close()
            fcs.stop()
            fcs.ums.stop()
            pds.stop()
