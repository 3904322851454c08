"""The fairshare kernel: the policy tree flattened to NumPy arrays.

This is the paper's fairshare calculation (Figure 1): for every node of
the entity hierarchy, compare the node's *target* share (normalized policy
weight within its sibling group) with its *actual* share (decayed usage
within the same sibling group), giving a priority ``k·absolute +
(1−k)·relative`` and a balance score in ``[0, 1]`` centered at 0.5 — the
element fairshare vectors are made of.  Per-sibling-group normalization is
what gives top-down *subgroup isolation*.

This module lowers a :class:`~repro.core.policy.PolicyTree` into parallel
arrays *once per policy epoch* (:class:`FlatPolicy`) and then evaluates a
whole refresh — sibling-group target/usage normalization, priorities,
balance scores, fairshare-vector elements, and path products — as
segment-wise array operations over all nodes at once
(:meth:`FlatPolicy.compute` → :class:`FlatFairshare`).

Layout
------
Nodes are numbered in BFS order (the root is *not* stored).  Because a
parent's children are appended as one contiguous block when the parent is
dequeued, every sibling group occupies a contiguous segment, so per-group
sums are single ``np.add.reduceat`` calls and per-node normalization is one
gather + divide.  Usage roll-up runs level by level (deepest first) with
``np.add.at`` — ``depth`` vectorized passes instead of ``n`` recursive
calls.  ``leaf_levels`` maps each leaf row to the node indices on its
root→leaf path (``-1``-padded), turning vector extraction and the percental
path products into one fancy-indexing gather + ``prod`` over a matrix.

Incremental recompilation (DESIGN.md §12) generalizes the layout: a
*logical* sibling group may span several *physical* segments
(``group_start`` row offsets tagged with a logical group id in ``seg_gid``),
so a node added after compilation becomes a new one-row segment sharing its
siblings' logical group — no renumbering of existing rows, which is what
keeps serve-plane leaf ids stable.  Removed subtrees are tombstoned
(``dead`` mask, weight forced to 0) rather than spliced out; a full compile
compacts them away when the dead fraction grows too large.
:meth:`FlatPolicy.recompile` replays a :class:`~repro.core.policy.
PolicyEdit` journal suffix against the compiled form, and
:meth:`FlatPolicy.compute_delta` re-evaluates only the sibling groups
touched by a set of dirty leaves.

It is the only kernel: services, figures and examples all evaluate through
:meth:`FlatPolicy.compute`.  The tests pin it to a deliberately naive
recursive reference that lives with them (``tests/oracle``).
"""

from __future__ import annotations

import sys
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .distance import FairshareParameters
from .policy import PolicyEdit, PolicyTree
from .vector import FairshareVector

__all__ = ["FlatPolicy", "FlatFairshare", "compute_fairshare_flat"]


class FlatPolicy:
    """A :class:`PolicyTree` compiled to parallel arrays.

    Compilation is the once-per-policy-epoch step; :meth:`compute` is the
    per-refresh hot path.  The compiled form is immutable — consumers hold
    references across refreshes, and the serve plane publishes snapshots
    over the same arrays.  :meth:`recompile` therefore never mutates in
    place: it returns a *new* FlatPolicy sharing every array the edits did
    not touch (weight-only edits share the entire layout, which is what
    keeps leaf row ids — and the serve plane's leaf-id generation — stable).
    """

    #: recompile gives up beyond this many journal edits (a full compile
    #: amortizes better than replaying a long history)
    MAX_EDITS = 256
    #: recompile refuses to grow the tombstone fraction beyond this; the
    #: caller's full compile compacts the dead rows away
    MAX_DEAD_FRACTION = 0.5

    __slots__ = (
        "n_nodes", "n_leaves", "n_groups", "n_dead", "max_depth",
        "parent", "depth", "weight", "group_id", "group_start", "seg_gid",
        "dead", "live_child_count", "child_gid", "root_gid",
        "names", "paths", "path_index",
        "levels", "leaf_index", "leaf_paths", "leaf_names", "leaf_slot",
        "leaf_levels", "by_name", "name_collisions",
        "_target_share", "_target_valid", "_gid_rows",
    )

    def __init__(self, policy: PolicyTree):
        names: List[str] = []
        paths: List[str] = []
        parent: List[int] = []
        depth: List[int] = []
        weight: List[float] = []
        group_id: List[int] = []
        group_start: List[int] = []
        child_count: List[int] = []
        child_gid: List[int] = []
        self.root_gid = -1

        # BFS: children of one parent land in one contiguous block, giving
        # sibling groups as reduceat segments.
        queue: List[Tuple[object, int]] = [(policy.root, -1)]
        head = 0
        while head < len(queue):
            node, idx = queue[head]
            head += 1
            children = list(node.children.values())  # type: ignore[attr-defined]
            if not children:
                continue
            gid = len(group_start)
            group_start.append(len(names))
            if idx >= 0:
                child_gid[idx] = gid
            else:
                self.root_gid = gid
            base_path = paths[idx] if idx >= 0 else ""
            base_depth = depth[idx] if idx >= 0 else 0
            for child in children:
                cidx = len(names)
                names.append(child.name)
                paths.append(base_path + "/" + child.name)
                parent.append(idx)
                depth.append(base_depth + 1)
                weight.append(float(child.weight))
                group_id.append(gid)
                child_count.append(len(child.children))
                child_gid.append(-1)
                queue.append((child, cidx))

        self.n_nodes = len(names)
        self.names = names
        self.paths = paths
        self.path_index: Dict[str, int] = {p: i for i, p in enumerate(paths)}
        self.parent = np.asarray(parent, dtype=np.int64)
        self.depth = np.asarray(depth, dtype=np.int64)
        self.weight = np.asarray(weight, dtype=np.float64)
        self.group_id = np.asarray(group_id, dtype=np.int64)
        self.group_start = np.asarray(group_start, dtype=np.int64)
        # fresh compiles have exactly one physical segment per logical group
        self.seg_gid = np.arange(len(group_start), dtype=np.int64)
        self.n_groups = len(group_start)
        self.dead = np.zeros(self.n_nodes, dtype=bool)
        self.n_dead = 0
        self.live_child_count = np.asarray(child_count, dtype=np.int64)
        self.child_gid = np.asarray(child_gid, dtype=np.int64)

        # bare-name resolution: first leaf in *pre-order* wins
        # (Tree.leaves() traversal order)
        self.by_name: Dict[str, str] = {}
        self.name_collisions = 0
        for leaf in policy.leaves():
            if leaf.name in self.by_name:
                if self.by_name[leaf.name] != leaf.path:
                    self.name_collisions += 1
            else:
                self.by_name[leaf.name] = leaf.path

        self._derive()

    # -- shared derivation (fresh compile and recompile) ---------------------

    def _derive(self) -> None:
        """Compute everything that follows from the raw layout arrays:
        depth levels, leaf tables, path matrix, target shares."""
        alive = ~self.dead
        self.max_depth = int(self.depth[alive].max()) \
            if self.n_nodes and alive.any() else 0

        # node indices per depth level, for the level-wise usage roll-up
        self.levels = [
            np.nonzero(alive & (self.depth == d))[0]
            for d in range(1, self.max_depth + 1)
        ]

        self.leaf_index = np.nonzero(alive & (self.live_child_count == 0))[0]
        self.n_leaves = int(self.leaf_index.size)
        self.leaf_paths = [self.paths[i] for i in self.leaf_index]
        self.leaf_names = [self.names[i] for i in self.leaf_index]
        self.leaf_slot = {p: r for r, p in enumerate(self.leaf_paths)}

        # leaf row -> node indices along root->leaf path, -1 padded; built
        # by walking all leaves' parent chains in lock step (max_depth
        # vectorized passes instead of one Python loop per leaf)
        self.leaf_levels = np.full((self.n_leaves, self.max_depth), -1,
                                   dtype=np.int64)
        if self.n_leaves:
            rows = np.arange(self.n_leaves)
            col = self.depth[self.leaf_index] - 1
            cur = self.leaf_index.copy()
            active = col >= 0
            while active.any():
                self.leaf_levels[rows[active], col[active]] = cur[active]
                cur[active] = self.parent[cur[active]]
                col -= 1
                active &= (col >= 0) & (cur >= 0)

        # target shares depend only on the policy: precompute at compile
        # time (tombstones carry weight 0 and vanish from every group sum)
        if self.n_nodes:
            seg_sums = np.add.reduceat(self.weight, self.group_start)
            wsum = np.bincount(self.seg_gid, weights=seg_sums,
                               minlength=self.n_groups)[self.group_id]
            with np.errstate(divide="ignore", invalid="ignore"):
                self._target_share = np.where(wsum > 0.0,
                                              self.weight / wsum, 0.0)
        else:
            self._target_share = np.zeros(0, dtype=np.float64)
        self._target_valid = True
        self._gid_rows: Optional[List[np.ndarray]] = None

    def _gid_members(self) -> List[np.ndarray]:
        """Row indices per logical group (lazy; feeds :meth:`compute_delta`)."""
        if self._gid_rows is None:
            order = np.argsort(self.group_id, kind="stable")
            counts = np.bincount(self.group_id, minlength=self.n_groups)
            self._gid_rows = np.split(order, np.cumsum(counts)[:-1])
        return self._gid_rows

    def _group_usage(self, usage: np.ndarray) -> np.ndarray:
        """Per-logical-group usage sums (physical segments folded by gid)."""
        seg_sums = np.add.reduceat(usage, self.group_start)
        return np.bincount(self.seg_gid, weights=seg_sums,
                           minlength=self.n_groups)

    # -- per-refresh evaluation ---------------------------------------------

    def leaf_usage_vector(self, per_user_usage: Mapping[str, float]) -> np.ndarray:
        """Decayed usage totals as a dense per-leaf vector.

        Keys are leaf paths or bare leaf names (the UMS output format);
        later keys targeting the same leaf overwrite earlier ones.  Keys
        that name no leaf are ignored: policy enforcement is the PDS's job.
        """
        vec = np.zeros(self.n_leaves, dtype=np.float64)
        for key, value in per_user_usage.items():
            slot = self.leaf_slot.get(
                key if key.startswith("/") else self.by_name.get(key))
            if slot is not None:
                vec[slot] = float(value)
        return vec

    def _scores(self, params: FairshareParameters, usage: np.ndarray,
                usage_share: np.ndarray, rows: Optional[np.ndarray] = None
                ) -> Tuple[np.ndarray, np.ndarray]:
        """Priority and balance formulas over all nodes (or just ``rows``).

        Mirrors distance.combined_priority / distance.balance_score.
        """
        target = self._target_share if rows is None else self._target_share[rows]
        us = usage_share if rows is None else usage_share[rows]
        k = params.k
        absolute = np.clip(target - us, 0.0, target)
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.where(target > 0.0, target / (target + us), 0.0)
        priority = k * absolute + (1.0 - k) * rel
        signed_abs = np.clip(0.5 + (target - us) / 2.0, 0.0, 1.0)
        rel_balance = np.where(target > 0.0, rel,
                               np.where(us == 0.0, 0.5, 0.0))
        balance = k * signed_abs + (1.0 - k) * rel_balance
        return priority, balance

    def compute(self, per_user_usage: Optional[Mapping[str, float]] = None,
                parameters: Optional[FairshareParameters] = None,
                leaf_usage: Optional[np.ndarray] = None) -> "FlatFairshare":
        """Evaluate one refresh: all node values in a handful of array ops.

        Usage comes either as ``per_user_usage`` (see
        :meth:`leaf_usage_vector`) or as a dense ``leaf_usage`` vector in
        leaf-row order, not both.
        """
        if per_user_usage is not None and leaf_usage is not None:
            raise ValueError("pass either per-user usage or a leaf usage "
                             "vector, not both")
        params = parameters or FairshareParameters()
        if leaf_usage is None:
            leaf_usage = self.leaf_usage_vector(per_user_usage or {})
        usage = np.zeros(self.n_nodes, dtype=np.float64)
        usage[self.leaf_index] = leaf_usage
        # roll up, deepest level first (depth-1 nodes have the virtual root
        # as parent and need no propagation)
        for level_nodes in reversed(self.levels[1:]):
            np.add.at(usage, self.parent[level_nodes], usage[level_nodes])

        if self.n_nodes:
            gsum = self._group_usage(usage)
            usum = gsum[self.group_id]
        else:
            gsum = np.zeros(0)
            usum = np.zeros(0)
        with np.errstate(divide="ignore", invalid="ignore"):
            usage_share = np.where(usum > 0.0, usage / usum, 0.0)

        priority, balance = self._scores(params, usage, usage_share)
        return FlatFairshare(self, params, usage, usage_share, priority,
                             balance, group_usage_sum=gsum)

    def compute_delta(self, prev: "FlatFairshare",
                      dirty_rows: Sequence[int],
                      new_leaf_usage: Sequence[float],
                      parameters: Optional[FairshareParameters] = None,
                      extra_dirty_nodes: Optional[np.ndarray] = None
                      ) -> "FlatFairshare":
        """Re-evaluate only what a set of dirty leaves can have changed.

        ``dirty_rows`` are leaf rows (this layout's ``leaf_slot`` values)
        whose usage became ``new_leaf_usage``; ``extra_dirty_nodes`` are
        node rows whose *target* changed (weight-only recompiles).  Usage
        deltas are pushed up each dirty leaf's ancestor chain, then shares,
        priorities and balances are recomputed for exactly the logical
        sibling groups containing a touched node — every other row is
        carried over from ``prev`` untouched.

        ``self`` must share ``prev.flat``'s layout (be ``prev.flat`` itself
        or a weight-only clone of it); the caller guarantees this.
        """
        params = parameters or prev.parameters
        usage = prev.usage.copy()
        rows = np.asarray(dirty_rows, dtype=np.int64)
        touched_parts: List[np.ndarray] = []
        if rows.size:
            leaf_nodes = self.leaf_index[rows]
            delta = np.asarray(new_leaf_usage, dtype=np.float64) \
                - usage[leaf_nodes]
            chains = self.leaf_levels[rows]
            mask = chains >= 0
            np.add.at(usage, chains[mask],
                      np.broadcast_to(delta[:, None], chains.shape)[mask])
            touched_parts.append(chains[mask])
        if extra_dirty_nodes is not None and len(extra_dirty_nodes):
            touched_parts.append(np.asarray(extra_dirty_nodes, dtype=np.int64))

        gsum = prev.group_usage_sum.copy() \
            if prev.group_usage_sum is not None else self._group_usage(usage)
        usage_share = prev.usage_share.copy()
        priority = prev.priority.copy()
        balance = prev.balance.copy()

        touched_count = 0
        if touched_parts:
            touched = np.unique(np.concatenate(touched_parts))
            gids = np.unique(self.group_id[touched])
            members_by_gid = self._gid_members()
            member = np.concatenate([members_by_gid[g] for g in gids])
            touched_count = int(member.size)
            # group sums recomputed exactly from member usage (no drift
            # accumulation across refreshes at the group level)
            local = np.searchsorted(gids, self.group_id[member])
            gsum[gids] = np.bincount(local, weights=usage[member],
                                     minlength=gids.size)
            denom = gsum[self.group_id[member]]
            with np.errstate(divide="ignore", invalid="ignore"):
                usage_share[member] = np.where(denom > 0.0,
                                               usage[member] / denom, 0.0)
            priority[member], balance[member] = self._scores(
                params, usage, usage_share, rows=member)

        return FlatFairshare(self, params, usage, usage_share, priority,
                             balance, group_usage_sum=gsum,
                             touched_nodes=touched_count)

    # -- incremental recompilation (DESIGN.md §12) ---------------------------

    def _clone(self) -> "FlatPolicy":
        """Shallow copy sharing every attribute (copy-on-write substrate)."""
        new = object.__new__(FlatPolicy)
        for slot in FlatPolicy.__slots__:
            object.__setattr__(new, slot, getattr(self, slot))
        return new

    def recompile(self, policy: PolicyTree,
                  edits: Optional[Sequence[PolicyEdit]]
                  ) -> Optional[Tuple["FlatPolicy", Dict[str, object]]]:
        """Splice a journal suffix into the compiled form.

        Returns ``(new_flat, info)`` — ``info["layout_changed"]`` says
        whether leaf row numbering may have moved (structural edits) and
        ``info["target_dirty"]`` lists node rows whose target share changed
        (weight-only path) — or ``None`` when the edits are too structural
        to splice profitably and the caller should compile from scratch:
        unknown journal state, too many edits, excessive tombstone growth,
        bare-name ambiguity (pre-order first-wins semantics need the full
        tree), or inconsistencies between journal and layout.

        Weight-only suffixes share the *entire* layout with ``self`` (only
        the weight/target arrays are copied), so every consumer holding
        leaf rows — the serve plane's binary protocol above all — keeps
        its ids.
        """
        if edits is None or not self.n_nodes:
            return None
        if len(edits) > self.MAX_EDITS:
            return None
        if not edits:
            # epoch moved without tree edits (e.g. a PDS version bump):
            # the compiled form is still exact
            return self, {"layout_changed": False,
                          "target_dirty": np.zeros(0, dtype=np.int64)}
        if all(e.kind == "weight" for e in edits):
            return self._recompile_weights(policy, edits)
        if self.name_collisions:
            return None
        return self._recompile_structural(policy, edits)

    def _live_weight(self, policy: PolicyTree, edit: PolicyEdit) -> float:
        node = policy.find(edit.path)
        return float(node.weight) if node is not None \
            else float(edit.weight)  # type: ignore[attr-defined]

    def _recompile_weights(self, policy: PolicyTree,
                           edits: Sequence[PolicyEdit]
                           ) -> Optional[Tuple["FlatPolicy", Dict[str, object]]]:
        rows = []
        for e in edits:
            i = self.path_index.get(e.path)
            if i is None or self.dead[i]:
                return None
            rows.append(i)
        new = self._clone()
        new.weight = self.weight.copy()
        for e, i in zip(edits, rows):
            new.weight[i] = self._live_weight(policy, e)
        # renormalize only the touched sibling groups
        gids = np.unique(self.group_id[np.asarray(rows, dtype=np.int64)])
        members_by_gid = self._gid_members()
        member = np.concatenate([members_by_gid[g] for g in gids])
        new._target_share = self._target_share.copy()
        local = np.searchsorted(gids, self.group_id[member])
        wsum = np.bincount(local, weights=new.weight[member],
                           minlength=gids.size)[local]
        with np.errstate(divide="ignore", invalid="ignore"):
            new._target_share[member] = np.where(
                wsum > 0.0, new.weight[member] / wsum, 0.0)
        return new, {"layout_changed": False, "target_dirty": member}

    def _recompile_structural(self, policy: PolicyTree,
                              edits: Sequence[PolicyEdit]
                              ) -> Optional[Tuple["FlatPolicy", Dict[str, object]]]:
        n_old = self.n_nodes
        # copy-on-write working state: old rows as mutable array copies,
        # appended rows as plain lists glued on at the end
        weight = self.weight.copy()
        dead = self.dead.copy()
        lcc = self.live_child_count.copy()
        cgid = self.child_gid.copy()
        app: Dict[str, list] = {k: [] for k in (
            "names", "paths", "parent", "depth", "weight", "gid",
            "dead", "lcc", "cgid")}
        pindex = dict(self.path_index)
        by_name = dict(self.by_name)
        seg_start = self.group_start.tolist()
        seg_gid_l = self.seg_gid.tolist()
        n_groups = self.n_groups
        root_gid = self.root_gid
        n_dead = self.n_dead
        # adjacency over the old rows (lazy) + side table for appended ones
        adj: Optional[Tuple[np.ndarray, np.ndarray]] = None
        new_kids: Dict[int, List[int]] = {}

        def old_children(p: int) -> np.ndarray:
            nonlocal adj
            if adj is None:
                order = np.argsort(self.parent, kind="stable")
                adj = (self.parent[order.astype(np.int64)], order)
            lo = np.searchsorted(adj[0], p, side="left")
            hi = np.searchsorted(adj[0], p, side="right")
            return adj[1][lo:hi]

        def children_of(p: int) -> List[int]:
            return [int(c) for c in old_children(p)] + new_kids.get(p, [])

        def get_dead(i: int) -> bool:
            return app["dead"][i - n_old] if i >= n_old else bool(dead[i])

        def set_dead(i: int) -> None:
            nonlocal n_dead
            if i >= n_old:
                app["dead"][i - n_old] = True
            else:
                dead[i] = True
            n_dead += 1

        def get_lcc(i: int) -> int:
            return app["lcc"][i - n_old] if i >= n_old else int(lcc[i])

        def add_lcc(i: int, d: int) -> None:
            if i >= n_old:
                app["lcc"][i - n_old] += d
            else:
                lcc[i] += d

        def get_cgid(i: int) -> int:
            return app["cgid"][i - n_old] if i >= n_old else int(cgid[i])

        def set_cgid(i: int, g: int) -> None:
            nonlocal root_gid
            if i < 0:
                root_gid = g
            elif i >= n_old:
                app["cgid"][i - n_old] = g
            else:
                cgid[i] = g

        def get_path(i: int) -> str:
            return app["paths"][i - n_old] if i >= n_old else self.paths[i]

        def get_name(i: int) -> str:
            return app["names"][i - n_old] if i >= n_old else self.names[i]

        def get_depth(i: int) -> int:
            return app["depth"][i - n_old] if i >= n_old else int(self.depth[i])

        def set_weight(i: int, w: float) -> None:
            if i >= n_old:
                app["weight"][i - n_old] = w
            else:
                weight[i] = w

        name_clash = False

        def name_drop(i: int) -> None:
            name = get_name(i)
            if by_name.get(name) == get_path(i):
                del by_name[name]

        def name_claim(i: int) -> None:
            nonlocal name_clash
            name = get_name(i)
            if name in by_name:
                name_clash = True
            else:
                by_name[name] = get_path(i)

        def append_row(name: str, path: str, pid: int, w: float,
                       gid: int) -> int:
            row = n_old + len(app["names"])
            app["names"].append(name)
            app["paths"].append(path)
            app["parent"].append(pid)
            app["depth"].append(get_depth(pid) + 1 if pid >= 0 else 1)
            app["weight"].append(w)
            app["gid"].append(gid)
            app["dead"].append(False)
            app["lcc"].append(0)
            app["cgid"].append(-1)
            pindex[path] = row
            new_kids.setdefault(pid, []).append(row)
            # extend the previous segment when rows stay contiguous in the
            # same logical group, else open a new one-row segment
            if not (seg_gid_l and seg_gid_l[-1] == gid
                    and seg_start[-1] <= row - 1):
                seg_start.append(row)
                seg_gid_l.append(gid)
            return row

        def kill_subtree(root: int) -> None:
            stack = [root]
            while stack:
                i = stack.pop()
                if get_dead(i):
                    continue
                set_dead(i)
                set_weight(i, 0.0)
                pindex.pop(get_path(i), None)
                name_drop(i)
                stack.extend(children_of(i))

        def graft(root_row: int, live_node) -> None:
            """BFS-append ``live_node``'s children under ``root_row``."""
            nonlocal n_groups
            queue = [(root_row, live_node)]
            head = 0
            while head < len(queue):
                prow, pnode = queue[head]
                head += 1
                kids = list(pnode.children.values())
                if not kids:
                    continue
                gid = n_groups
                n_groups += 1
                set_cgid(prow, gid)
                base = get_path(prow)
                for child in kids:
                    crow = append_row(child.name, base + "/" + child.name,
                                      prow, float(child.weight), gid)
                    app["lcc"][crow - n_old] = len(child.children)
                    if not child.children:
                        name_claim(crow)
                    queue.append((crow, child))
                if prow >= n_old:
                    app["lcc"][prow - n_old] = len(kids)
                else:
                    lcc[prow] = len(kids)

        for e in edits:
            if e.kind == "weight":
                i = pindex.get(e.path)
                if i is None or get_dead(i):
                    return None
                set_weight(i, self._live_weight(policy, e))
            elif e.kind == "add":
                if e.path in pindex:
                    return None
                cut = e.path.rfind("/")
                parent_path = e.path[:cut] if cut > 0 else ""
                if parent_path:
                    pid = pindex.get(parent_path)
                    if pid is None or get_dead(pid):
                        return None
                else:
                    pid = -1
                gid = get_cgid(pid) if pid >= 0 else root_gid
                if gid < 0:
                    gid = n_groups
                    n_groups += 1
                    set_cgid(pid, gid)
                if pid >= 0 and get_lcc(pid) == 0:
                    name_drop(pid)  # the parent leaf just became internal
                row = append_row(e.path[cut + 1:], e.path, pid,
                                 self._live_weight(policy, e), gid)
                if pid >= 0:
                    add_lcc(pid, 1)
                name_claim(row)
            elif e.kind == "remove":
                i = pindex.get(e.path)
                if i is None:
                    return None
                if get_dead(i):
                    continue
                pid = int(self.parent[i]) if i < n_old \
                    else app["parent"][i - n_old]
                kill_subtree(i)
                if pid >= 0:
                    add_lcc(pid, -1)
                    if get_lcc(pid) == 0:
                        name_claim(pid)  # the parent became a leaf
            elif e.kind == "replace":
                i = pindex.get(e.path)
                if i is None or get_dead(i):
                    return None
                live = policy.find(e.path)
                set_weight(i, float(live.weight)  # type: ignore[attr-defined]
                           if live is not None else float(e.weight))
                had_children = get_lcc(i) > 0
                for c in children_of(i):
                    if not get_dead(c):
                        kill_subtree(c)
                if i >= n_old:
                    app["lcc"][i - n_old] = 0
                else:
                    lcc[i] = 0
                if live is not None and live.children:
                    if not had_children:
                        name_drop(i)  # leaf mount point gains children
                    graft(i, live)
                elif not had_children:
                    pass  # leaf stayed a leaf
                else:
                    name_claim(i)  # unmount: the mount point is a leaf now
            else:
                return None
            if name_clash:
                return None

        n_new = n_old + len(app["names"])
        if n_new == 0 or n_dead / n_new > self.MAX_DEAD_FRACTION:
            return None

        new = self._clone()
        new.n_nodes = n_new
        new.names = self.names + app["names"]
        new.paths = self.paths + app["paths"]
        new.path_index = pindex
        new.by_name = by_name
        new.name_collisions = 0
        new.parent = np.concatenate(
            [self.parent, np.asarray(app["parent"], dtype=np.int64)])
        new.depth = np.concatenate(
            [self.depth, np.asarray(app["depth"], dtype=np.int64)])
        new.weight = np.concatenate(
            [weight, np.asarray(app["weight"], dtype=np.float64)])
        new.group_id = np.concatenate(
            [self.group_id, np.asarray(app["gid"], dtype=np.int64)])
        new.dead = np.concatenate(
            [dead, np.asarray(app["dead"], dtype=bool)])
        new.n_dead = n_dead
        new.live_child_count = np.concatenate(
            [lcc, np.asarray(app["lcc"], dtype=np.int64)])
        new.child_gid = np.concatenate(
            [cgid, np.asarray(app["cgid"], dtype=np.int64)])
        new.group_start = np.asarray(seg_start, dtype=np.int64)
        new.seg_gid = np.asarray(seg_gid_l, dtype=np.int64)
        new.n_groups = n_groups
        new.root_gid = root_gid
        new._derive()
        return new, {"layout_changed": True, "target_dirty": None}

    # -- memory accounting ---------------------------------------------------

    def memory_bytes(self) -> int:
        """Approximate resident bytes of the compiled form.

        Array payloads are exact (``nbytes``); Python containers (path
        dicts, name lists) are estimated from container size plus string
        payloads.  Feeds the benchmark's bytes/user column.
        """
        total = sum(
            getattr(self, a).nbytes for a in (
                "parent", "depth", "weight", "group_id", "group_start",
                "seg_gid", "dead", "live_child_count", "child_gid",
                "leaf_index", "leaf_levels", "_target_share"))
        total += sum(a.nbytes for a in self.levels)
        total += sys.getsizeof(self.path_index) + sys.getsizeof(self.leaf_slot)
        total += sys.getsizeof(self.names) + sys.getsizeof(self.paths)
        total += sum(sys.getsizeof(p) for p in self.paths) * 2  # index keys
        total += sum(sys.getsizeof(n) for n in self.names)
        return int(total)


class FlatFairshare:
    """One refresh worth of fairshare values over a :class:`FlatPolicy`.

    Everything the services and projections consume — vectors, path share
    products, priorities — is served from arrays.
    """

    __slots__ = ("flat", "parameters", "usage", "usage_share", "priority",
                 "balance", "group_usage_sum", "touched_nodes",
                 "_element_matrix", "_path_products")

    def __init__(self, flat: FlatPolicy, parameters: FairshareParameters,
                 usage: np.ndarray, usage_share: np.ndarray,
                 priority: np.ndarray, balance: np.ndarray,
                 group_usage_sum: Optional[np.ndarray] = None,
                 touched_nodes: Optional[int] = None):
        self.flat = flat
        self.parameters = parameters
        self.usage = usage
        self.usage_share = usage_share
        self.priority = priority
        self.balance = balance
        #: per-logical-group usage sums of this refresh — the carry state
        #: that makes the next :meth:`FlatPolicy.compute_delta` exact
        self.group_usage_sum = group_usage_sum
        #: node rows re-evaluated when this result came from a delta
        #: computation (None for full evaluations)
        self.touched_nodes = touched_nodes
        self._element_matrix: Optional[np.ndarray] = None
        self._path_products: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @property
    def target_share(self) -> np.ndarray:
        return self.flat._target_share

    @property
    def leaf_paths(self) -> List[str]:
        return self.flat.leaf_paths

    @property
    def leaf_depths(self) -> np.ndarray:
        return self.flat.depth[self.flat.leaf_index]

    # -- vector extraction (all leaves at once) -----------------------------

    def element_matrix(self) -> np.ndarray:
        """``(n_leaves, max_depth)`` fairshare-vector elements.

        Row *r* holds leaf *r*'s path balances scaled to the vector
        resolution; levels below the leaf are padded with the balance point,
        so rows compare exactly like padded :class:`FairshareVector` tuples.
        """
        if self._element_matrix is None:
            flat = self.flat
            res = float(self.parameters.resolution)
            idx = np.maximum(flat.leaf_levels, 0)
            scores = np.clip(self.balance[idx], 0.0, 1.0) * res
            self._element_matrix = np.where(flat.leaf_levels >= 0, scores,
                                            self.parameters.balance_point)
        return self._element_matrix

    def path_products(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-leaf ``(target_total, usage_total)`` share products."""
        if self._path_products is None:
            flat = self.flat
            idx = np.maximum(flat.leaf_levels, 0)
            mask = flat.leaf_levels >= 0
            tt = np.where(mask, self.target_share[idx], 1.0).prod(axis=1)
            ut = np.where(mask, self.usage_share[idx], 1.0).prod(axis=1)
            self._path_products = (tt, ut)
        return self._path_products

    # -- point queries ------------------------------------------------------

    def node_priority(self, path: str) -> float:
        return float(self.priority[self.flat.path_index[path]])

    def priorities(self) -> Dict[str, float]:
        pr = self.priority[self.flat.leaf_index]
        return dict(zip(self.flat.leaf_paths, pr.tolist()))

    def vector(self, path: str) -> FairshareVector:
        """Balances on the root→node path of any node, leaf or internal."""
        flat = self.flat
        chain = []
        i = flat.path_index[path]
        while i >= 0:
            chain.append(i)
            i = int(flat.parent[i])
        return FairshareVector.from_scores(self.balance[chain[::-1]].tolist(),
                                           self.parameters.resolution)

    def vectors(self) -> Dict[str, FairshareVector]:
        matrix = self.element_matrix()
        depths = self.leaf_depths
        res = self.parameters.resolution
        return {path: FairshareVector(matrix[r, :int(depths[r])].tolist(), res)
                for r, path in enumerate(self.flat.leaf_paths)}

    # -- memory accounting ---------------------------------------------------

    def memory_bytes(self) -> int:
        """Array payload bytes of this refresh result."""
        total = sum(a.nbytes for a in (self.usage, self.usage_share,
                                       self.priority, self.balance))
        if self.group_usage_sum is not None:
            total += self.group_usage_sum.nbytes
        if self._element_matrix is not None:
            total += self._element_matrix.nbytes
        return int(total)


def compute_fairshare_flat(policy: PolicyTree,
                           per_user_usage: Optional[Mapping[str, float]] = None,
                           parameters: Optional[FairshareParameters] = None) -> FlatFairshare:
    """One-shot convenience: compile and evaluate in one call.

    Services that refresh repeatedly should keep the :class:`FlatPolicy`
    compiled across refreshes instead (the FCS does).
    """
    return FlatPolicy(policy).compute(per_user_usage, parameters)
