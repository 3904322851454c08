"""A deliberately naive recursive fairshare reference (paper Figure 1).

The test oracle for the array kernel (:mod:`repro.core.flat`): one object
per policy node, recursion for the usage roll-up and the sibling
normalization, the scalar formulas of :mod:`repro.core.distance`, and the
projections as the paper states them — a sort, integer shift-and-or
packing, path products.  Slow on purpose; ``src/repro`` never imports it.
"""

from repro.core.distance import (FairshareParameters, balance_score,
                                 combined_priority)
from repro.core.vector import FairshareVector


class Node:
    """One fairshare-tree node: shares within its sibling group + scores."""

    def __init__(self, path, target_share, usage, usage_share, k, parent,
                 is_leaf):
        self.path = path
        self.target_share = target_share
        self.usage = usage
        self.usage_share = usage_share
        self.priority = combined_priority(target_share, usage_share, k)
        self.balance = balance_score(target_share, usage_share, k)
        self.parent = parent
        self.is_leaf = is_leaf

    def chain(self):
        """Nodes root→self (the root itself is not a node)."""
        return (self.parent.chain() if self.parent else []) + [self]


def fairshare(policy, per_user_usage=None, parameters=None):
    """``{path: Node}`` below the root, in pre-order.  Usage keys are leaf
    paths or bare names (first leaf in pre-order wins); others are ignored.
    """
    k = (parameters or FairshareParameters()).k
    by_name = {}
    for leaf in policy.leaves():
        by_name.setdefault(leaf.name, leaf.path)
    leaf_usage = {}
    for key, value in (per_user_usage or {}).items():
        leaf_usage[key if key.startswith("/") else by_name.get(key)] = value

    def usage(node):
        if not node.children:
            return float(leaf_usage.get(node.path, 0.0))
        return sum(usage(child) for child in node.children.values())

    out = {}

    def visit(node, parent):
        children = list(node.children.values())
        weight_total = sum(child.weight for child in children)
        usages = [usage(child) for child in children]
        usage_total = sum(usages)
        for child, used in zip(children, usages):
            share = used / usage_total if usage_total > 0 else 0.0
            out[child.path] = Node(child.path, child.weight / weight_total,
                                   used, share, k, parent, not child.children)
            visit(child, out[child.path])

    visit(policy.root, None)
    return out


def vector(node, resolution=9999):
    return FairshareVector.from_scores([n.balance for n in node.chain()], resolution)


def percental(nodes):
    values = {}
    for node in nodes.values():
        if node.is_leaf:
            target = usage = 1.0
            for n in node.chain():
                target *= n.target_share
                usage *= n.usage_share
            values[node.path] = min(max((target - usage + 1.0) / 2.0, 0.0), 1.0)
    return values


def dictionary(vectors):
    order = sorted(vectors, key=lambda path: vectors[path], reverse=True)
    values, rank = {}, 0
    for i, path in enumerate(order):
        if i and vectors[path] != vectors[order[i - 1]]:
            rank = i
        values[path] = (len(order) - rank) / (len(order) + 1)
    return values


def bitwise(vector, bits_per_level, max_levels):
    quantum = (1 << bits_per_level) - 1
    packed = 0
    for elem in vector.padded(max(max_levels, vector.depth))[:max_levels]:
        q = int(round(elem / vector.resolution * quantum))
        packed = (packed << bits_per_level) | min(max(q, 0), quantum)
    return packed / float((1 << (bits_per_level * max_levels)) - 1)
