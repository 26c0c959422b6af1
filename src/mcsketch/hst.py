"""Hierarchical tree construction and long-edge compression.

The hierarchy is the standard threshold-graph 2-HST: level-i nodes are the
connected components of the graph G_i that joins points at distance < 2**i
(strict, no tolerance), leaves sit at level 0, and the root is the first
level where a single component remains.  Components that persist across
levels contribute one chain node per level.

Building all G_i explicitly is quadratic per level; instead we take a
minimum spanning tree of the metric (single-linkage clustering yields the
same components: every MST edge of weight w first connects its endpoints'
components at the smallest level i with 2**i > w) and replay merges level by
level.  ``math.frexp`` gives that level exactly, with no log rounding.  The
MST comes from a dense Prim pass over the rows of the distance matrix: n - 1
steps of an argmin plus a masked update of the distance-to-tree vector, O(n)
working memory beside the matrix.  Which MST a tie-break picks cannot change
the tree: every MST has the same multiset of edge weights, and for every
threshold its edges below the threshold span exactly the components of the
threshold graph, so the level-by-level replay sees the same merges.

Compression then contracts each maximal run of one-child nodes into a
single "long" parent edge when the run is provably redundant for distance
estimation: a run of gap >= 2 levels above a cluster of diameter diam at
level lo is contracted iff diam == 0 or

    gap > log2(diam / 2**lo) + log2(1/epsilon),

which guarantees diam < epsilon * 2**(level of the surviving top node).

Only this module reads pair distances: one block per merge node, grouped
by child, yields the cluster diameter and the per-child-pair tables that
annotation needs (smallest cross distance, closest member; see
:class:`ClusterIndex`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import FormatError, InputError, PointSet, oracle_all_pairs, snap_epsilon

__all__ = [
    "SketchTree",
    "ClusterIndex",
    "Decomposition",
    "build_hst",
    "compress",
    "subtree_decomposition",
]


@dataclass
class SketchTree:
    """Rooted tree with levels and short/long parent edges.

    Node ids are dense ints.  ``parent[root] == -1``.  ``leaf_label[v]`` is
    the point label for leaves and -1 for internal nodes.  ``long_edge[v]``
    describes the edge from v to its parent (False for the root).  After
    :func:`compress`, node ids coincide with DFS preorder (root == 0,
    children in stored order).
    """

    level: list[int]
    parent: list[int]
    children: list[list[int]]
    long_edge: list[bool]
    leaf_label: list[int]
    root: int

    @property
    def n_nodes(self) -> int:
        return len(self.level)

    def is_leaf(self, v: int) -> bool:
        return self.leaf_label[v] >= 0

    def is_long_top(self, v: int) -> bool:
        ch = self.children[v]
        return len(ch) == 1 and self.long_edge[ch[0]]

    def is_subtree_leaf(self, v: int) -> bool:
        """True when v has no short-edge child (tree leaf or long-edge top)."""
        return all(self.long_edge[c] for c in self.children[v])

    def edge_gap(self, v: int) -> int:
        """Level gap of the edge from v to its parent."""
        return self.level[self.parent[v]] - self.level[v]

    def leaf_of(self) -> dict[int, int]:
        return {lbl: v for v, lbl in enumerate(self.leaf_label) if lbl >= 0}

    def dfs_preorder(self) -> list[int]:
        order: list[int] = []
        stack = [self.root]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(reversed(self.children[v]))
        return order

    def leaf_labels_under(self) -> list[np.ndarray]:
        """For every node, the sorted array of leaf labels in its subtree."""
        out: list[np.ndarray | None] = [None] * self.n_nodes
        for v in reversed(self.dfs_preorder()):
            if self.is_leaf(v):
                out[v] = np.array([self.leaf_label[v]], dtype=np.int64)
            else:
                out[v] = np.sort(np.concatenate([out[c] for c in self.children[v]]))
        return out  # type: ignore[return-value]

    def verify(self) -> None:
        """Structural sanity checks; raises FormatError on violation."""
        if self.parent[self.root] != -1:
            raise FormatError("root has a parent")
        seen_labels = set()
        for v in range(self.n_nodes):
            for c in self.children[v]:
                if self.parent[c] != v:
                    raise FormatError(f"parent/children mismatch at {v}->{c}")
                gap = self.level[v] - self.level[c]
                if self.long_edge[c]:
                    if gap < 2:
                        raise FormatError(f"long edge {v}->{c} has gap {gap} < 2")
                    if len(self.children[v]) != 1:
                        raise FormatError(f"long-edge top {v} has degree != 1")
                elif gap != 1:
                    raise FormatError(f"short edge {v}->{c} has gap {gap} != 1")
            if self.is_leaf(v):
                if self.children[v]:
                    raise FormatError(f"leaf {v} has children")
                if self.level[v] != 0:
                    raise FormatError(f"leaf {v} at level {self.level[v]} != 0")
                if self.leaf_label[v] in seen_labels:
                    raise FormatError(f"duplicate leaf label {self.leaf_label[v]}")
                seen_labels.add(self.leaf_label[v])
            elif not self.children[v]:
                raise FormatError(f"internal node {v} has no children")
        if len(self.children[self.root]) < 2 and not self.is_leaf(self.root):
            if not self.long_edge[self.children[self.root][0]]:
                raise FormatError("root is a degree-1 chain node")


@dataclass
class ClusterIndex:
    """Per-node cluster contents plus the per-merge pair tables.

    ``members[v]`` is the sorted array of leaf labels under v and
    ``diameter[v]`` their exact diameter.  At a merge node v with k children
    ``gap[v]`` is the (k, k) array of smallest cross distances between
    children i and j, and ``near[v][i, j]`` the label of child i closest to
    child j (ties to the smallest label); both are None at leaves and chain
    nodes.  Rows and columns follow the order of ``tree.children[v]``, which
    is the order of the children's smallest member labels.
    """

    members: list[np.ndarray]
    diameter: list[float]
    gap: list[np.ndarray | None]
    near: list[np.ndarray | None]


class _DSU:
    __slots__ = ("parent",)

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def _merge_level(w: float) -> int:
    # smallest integer i with 2**i > w; exact for all positive floats.
    # Normalization leaves the minimum distance within a few ulps of 1, and
    # recomputing distances from divided coordinates can land marginally
    # below it; clamp so such rounding dust cannot collide with leaf level 0.
    _, e = math.frexp(w)  # w = m * 2**e, m in [0.5, 1)
    return max(1, e)


def _prim_mst(dm: np.ndarray) -> list[tuple[float, int, int]]:
    """Minimum spanning tree of a dense symmetric matrix as (w, i, j) edges.

    Grows the tree from point 0; ``best[j]`` is the distance from j to the
    tree and ``via[j]`` the tree point that attains it.  Weights are matrix
    entries, so they are the oracle's floats bit for bit.
    """
    n = dm.shape[0]
    outside = np.ones(n, dtype=bool)
    outside[0] = False
    best = dm[0].copy()
    best[0] = np.inf
    via = np.zeros(n, dtype=np.int64)
    edges = []
    for _ in range(n - 1):
        j = int(best.argmin())
        edges.append((float(best[j]), int(via[j]), j))
        outside[j] = False
        best[j] = np.inf
        row = dm[j]
        closer = (row < best) & outside
        best[closer] = row[closer]
        via[closer] = j
    return edges


def build_hst(ps: PointSet) -> tuple[SketchTree, ClusterIndex]:
    """Uncompressed hierarchy of a normalized point set.

    Reads the oracle matrix through :func:`oracle_all_pairs`, which returns
    the one stored by ``normalize``.  Children of every merge node are
    ordered by smallest member label, which makes the construction fully
    deterministic; each merge node's distance block, grouped by child in
    that order, is reduced to its diameter and its ``gap`` / ``near`` tables.
    """
    n = ps.n
    if n < 2:
        raise InputError("need at least two points")
    dm = oracle_all_pairs(ps)

    mst = _prim_mst(dm)
    if not all(math.isfinite(w) for w, _, _ in mst):
        raise InputError("non-finite pairwise distance (coordinates too large?)")
    edges = sorted(((_merge_level(w), i, j) for w, i, j in mst), key=lambda e: e[0])

    level: list[int] = [0] * n
    parent: list[int] = [-1] * n
    children: list[list[int]] = [[] for _ in range(n)]
    long_edge: list[bool] = [False] * n
    leaf_label: list[int] = list(range(n))
    members: list[np.ndarray] = [np.array([i], dtype=np.int64) for i in range(n)]
    diameter: list[float] = [0.0] * n
    gap: list[np.ndarray | None] = [None] * n
    near: list[np.ndarray | None] = [None] * n

    def new_node(lvl: int, labels: np.ndarray, diam: float, tables=(None, None)) -> int:
        node = len(level)
        level.append(lvl)
        parent.append(-1)
        children.append([])
        long_edge.append(False)
        leaf_label.append(-1)
        members.append(labels)
        diameter.append(diam)
        gap.append(tables[0])
        near.append(tables[1])
        return node

    def attach(child: int, par: int) -> None:
        parent[child] = par
        children[par].append(child)

    def extend_chain(top: int, to_level: int) -> int:
        # materialize one chain node per level for a persisting component
        cur = top
        for lvl in range(level[top] + 1, to_level + 1):
            nxt = new_node(lvl, members[cur], diameter[cur])
            attach(cur, nxt)
            cur = nxt
        return cur

    dsu = _DSU(n)
    comp_top: dict[int, int] = {i: i for i in range(n)}  # DSU root -> top node id

    pos = 0
    while pos < len(edges):
        lvl = edges[pos][0]
        batch = []
        while pos < len(edges) and edges[pos][0] == lvl:
            batch.append(edges[pos])
            pos += 1
        old_root_of = {}
        for _, i, j in batch:
            for x in (i, j):
                r = dsu.find(x)
                old_root_of.setdefault(r, comp_top[r])
        for _, i, j in batch:
            dsu.union(i, j)
        groups: dict[int, list[int]] = {}
        for old_root, top in old_root_of.items():
            groups.setdefault(dsu.find(old_root), []).append(top)
        for new_root, tops in groups.items():
            tops.sort(key=lambda t: int(members[t][0]))
            raised = [extend_chain(t, lvl - 1) for t in tops]
            kid_labels = [members[t] for t in tops]
            labels = np.concatenate(kid_labels)
            block = dm[np.ix_(labels, labels)]
            starts = np.cumsum([0] + [g.size for g in kid_labels[:-1]])
            # distance from every member to every child, then per child pair
            to_child = np.minimum.reduceat(block, starts, axis=1)
            tables = (
                np.minimum.reduceat(to_child, starts, axis=0),
                np.stack([
                    g[np.argmin(to_child[s : s + g.size], axis=0)]
                    for g, s in zip(kid_labels, starts)
                ]),
            )
            node = new_node(lvl, np.sort(labels), float(block.max()), tables)
            for r in raised:
                attach(r, node)
            comp_top[new_root] = node

    root = comp_top[dsu.find(0)]  # a spanning tree leaves one component

    tree = SketchTree(
        level=level,
        parent=parent,
        children=children,
        long_edge=long_edge,
        leaf_label=leaf_label,
        root=root,
    )
    return tree, ClusterIndex(members=members, diameter=diameter, gap=gap, near=near)


def compress(
    tree: SketchTree, clusters: ClusterIndex, epsilon: float
) -> tuple[SketchTree, ClusterIndex]:
    """Contract provably redundant one-child runs into long edges.

    Returns a new tree (node ids renumbered to DFS preorder) together with
    the matching re-indexed cluster index; merge nodes keep their children
    in order, so their pair tables carry over.  A maximal run above node b
    is contracted iff gap >= 2 and (diam(b) == 0 or
    gap > log2(diam(b)/2**level(b)) + log2(1/eps)); the surviving top keeps
    level(top), so diam(b) < eps * 2**level(top) holds for every long edge.
    """
    eps = snap_epsilon(epsilon)
    t = int(round(-math.log2(eps)))

    # A run's interior nodes have exactly one child each, so every run is
    # identified by its bottom (a leaf or branching node).  Dropped interiors
    # are never children of any surviving node except via the long edge.
    long_child: dict[int, int] = {}  # surviving top -> run bottom
    for b in range(tree.n_nodes):
        if len(tree.children[b]) == 1:
            continue
        top = b
        while tree.parent[top] != -1 and len(tree.children[tree.parent[top]]) == 1:
            top = tree.parent[top]
        gap = tree.level[top] - tree.level[b]
        if gap < 2:
            continue
        diam = clusters.diameter[b]
        if diam > 0.0 and not gap > math.log2(diam) - tree.level[b] + t:
            continue
        long_child[top] = b

    new_id: dict[int, int] = {}
    order: list[int] = []
    stack = [tree.root]
    while stack:
        v = stack.pop()
        new_id[v] = len(order)
        order.append(v)
        kids = [long_child[v]] if v in long_child else tree.children[v]
        stack.extend(reversed(kids))

    N = len(order)
    level = [tree.level[v] for v in order]
    parent = [-1] * N
    children: list[list[int]] = [[] for _ in range(N)]
    long_flag = [False] * N
    leaf_label = [tree.leaf_label[v] for v in order]
    for v in order:
        is_long = v in long_child
        kids = [long_child[v]] if is_long else tree.children[v]
        for c in kids:
            parent[new_id[c]] = new_id[v]
            children[new_id[v]].append(new_id[c])
            long_flag[new_id[c]] = is_long

    out = SketchTree(
        level=level,
        parent=parent,
        children=children,
        long_edge=long_flag,
        leaf_label=leaf_label,
        root=0,
    )
    idx = ClusterIndex(
        members=[clusters.members[v] for v in order],
        diameter=[clusters.diameter[v] for v in order],
        gap=[clusters.gap[v] for v in order],
        near=[clusters.near[v] for v in order],
    )
    return out, idx


@dataclass
class Decomposition:
    """Partition of tree nodes into subtrees obtained by cutting long edges.

    ``roots`` holds the tree root plus every long-edge bottom, in DFS
    preorder; ``parts[i]`` lists the nodes of part i (DFS order);
    ``part_of[v]`` maps a node to its part.
    """

    part_of: list[int]
    parts: list[list[int]]
    roots: list[int]


def subtree_decomposition(tree: SketchTree) -> Decomposition:
    part_of = [-1] * tree.n_nodes
    parts: list[list[int]] = []
    roots: list[int] = []
    for v in tree.dfs_preorder():
        if tree.parent[v] == -1 or tree.long_edge[v]:
            part_of[v] = len(parts)
            parts.append([v])
            roots.append(v)
        else:
            pid = part_of[tree.parent[v]]
            part_of[v] = pid
            parts[pid].append(v)
    return Decomposition(part_of=part_of, parts=parts, roots=roots)
