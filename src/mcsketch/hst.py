"""Hierarchical tree construction and long-edge compression.

The hierarchy is the standard threshold-graph 2-HST: level-i clusters are
the connected components of the graph G_i that joins points at distance
< 2**i (strict, no tolerance), leaves sit at level 0, and the root is the
first level where a single component remains.

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

:func:`build_hst` returns the replay as a merge tree (the single-linkage
dendrogram with levels): the leaves plus one node per merge.  A cluster
that persists from its own level up to the merge that ends it is one node
there, standing for a run of one-child levels of the 2-HST.
:func:`compress` turns it into the sketch tree: it contracts a run into a
single "long" parent edge when the run is provably redundant for distance
estimation and spells every other run out, one node per level.  A run of
gap >= 2 levels above a cluster of diameter diam at level lo is contracted
iff diam == 0 or

    gap > log2(diam / 2**lo) + log2(1/epsilon),

which guarantees diam < epsilon * 2**(level of the surviving top node).

Only this module reads pair distances.  A copy of the matrix is permuted
once into the merge tree's leaf preorder, where every node's leaves, and
within them each child's, are one contiguous range; each merge node's
block is then a slice view.  The copy is permuted in place: its columns in
strips of a few rows through one small temporary, then its rows along the
permutation's cycles (``core._permute_in_place``), in about half the time
of a fancy-indexed gather at n = 2000.  It yields the cluster diameter,
the tau-tree and, on each tau edge, the closest member (see
:class:`ClusterIndex`); the per-pair minima these come from are not kept.
A two-child merge reads only the rectangle between its children and takes
the rest of its diameter from theirs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import FormatError, GuaranteeError, InputError, PointSet
from .core import _permute_in_place, oracle_all_pairs, snap_epsilon

__all__ = [
    "SketchTree",
    "ClusterIndex",
    "build_hst",
    "compress",
]


@dataclass
class SketchTree:
    """Rooted tree with levels and short/long parent edges, its nodes
    numbered in DFS preorder.

    Node 0 is the root and ``parent[0] == -1``; the children of a node come
    in id order, so the subtree of v is the id range ``v:end[v]``.
    ``leaf_label[v]`` is the point label for leaves and -1 for internal
    nodes.  ``long_edge[v]`` describes the edge from v to its parent (False
    for the root).

    A sketch tree, from :func:`compress` or from the decoder, has short
    edges that descend one level and long edges that descend at least two.
    :func:`build_hst`'s merge tree is held in the same class: it has no
    long edges, and one edge may descend several levels.  :meth:`verify`
    checks a sketch tree.

    Four arrays are derived from the edges at construction:
    ``has_short[v]`` (some child of v hangs on a short edge),
    ``part_root[v]`` (v is the root or the bottom of a long edge),
    ``part_of[v]`` (the index of v's part, the subtree left under its part
    root when every long edge is cut; parts are numbered in id order of
    their roots) and ``end[v]`` (one past the last node of v's subtree:
    v's children are v+1, then ``end[c]`` of each child c while that is
    below ``end[v]``).
    """

    level: list[int]
    parent: list[int]
    long_edge: list[bool]
    leaf_label: list[int]
    has_short: np.ndarray = field(init=False, repr=False, compare=False)
    part_root: np.ndarray = field(init=False, repr=False, compare=False)
    part_of: np.ndarray = field(init=False, repr=False, compare=False)
    end: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.n_nodes
        nodes = np.arange(n)
        parent = np.array(self.parent, dtype=np.int64)
        self.part_root = (parent < 0) | np.array(self.long_edge, dtype=bool)
        short_parents = parent[~self.part_root]
        self.has_short = np.bincount(short_parents, minlength=n) > 0
        up, _ = _jump(np.where(self.part_root, nodes, parent))
        self.part_of = np.cumsum(self.part_root)[up] - 1
        # a subtree ends at the next sibling of its nearest ancestor-or-self
        # that has one (n for the root): siblings sit side by side in a
        # stable sort by parent
        by_parent = np.argsort(parent, kind="stable")
        same = parent[by_parent[1:]] == parent[by_parent[:-1]]
        sibling = np.full(n, n)
        sibling[by_parent[:-1][same]] = by_parent[1:][same]
        up, _ = _jump(np.where((sibling < n) | (parent < 0), nodes, parent))
        self.end = sibling[up]

    @property
    def n_nodes(self) -> int:
        return len(self.level)

    def is_leaf(self, v: int) -> bool:
        return self.leaf_label[v] >= 0

    def edge_gap(self, v: int) -> int:
        """Level gap of the edge from v to its parent."""
        return self.level[self.parent[v]] - self.level[v]

    def leaf_of(self) -> dict[int, int]:
        return {lbl: v for v, lbl in enumerate(self.leaf_label) if lbl >= 0}

    def leaf_ranges(self) -> tuple[list[int], list[int]]:
        """For every node v the range ``lo[v]:hi[v]`` of its leaves among
        all leaves in id order.  The ranges of v's children tile v's, in
        order."""
        before = np.cumsum(np.array(self.leaf_label) >= 0)
        before = np.concatenate(([0], before))  # leaves before each id
        return before[:-1].tolist(), before[self.end].tolist()

    def verify(self) -> None:
        """Structural sanity checks of a sketch tree, as array checks over
        all nodes and edges at once; raises FormatError naming the first
        violation.  A merge tree fails them wherever an edge spans more
        than one level."""
        if self.parent[0] != -1:
            raise FormatError("root has a parent")
        n = self.n_nodes
        nodes = np.arange(n)
        parent = np.array(self.parent, dtype=np.int64)
        level = np.array(self.level, dtype=np.int64)
        label = np.array(self.leaf_label, dtype=np.int64)
        leaf = label >= 0
        labels = np.sort(label[leaf])
        # one entry per edge: its top (owner) and bottom (kid)
        kid = nodes[1:]
        owner = parent[1:]
        degree = np.bincount(owner[owner >= 0], minlength=n)
        # preorder: node v+1 is v's first child, or v is a leaf and its
        # subtree ends at v+1
        follows = np.where(degree[:-1] > 0, owner == kid - 1, self.end[:-1] == kid)
        gap = level[owner] - level[kid]
        is_long = np.array(self.long_edge, dtype=bool)[kid]
        # a part root other than the root tops no long edge: a chain of
        # long edges would make part roots, rows of every (n_nodes, d)
        # array, that store no displacement
        chained = self.part_root[owner] & (owner != 0)
        for fails, msg, *fields in (
            ((owner < 0) | (owner >= kid), "parent {} of node {} is not below it", owner, kid),
            (~follows, "node {} is out of preorder", kid),
            (is_long & (gap < 2), "long edge {}->{} has gap {} < 2", owner, kid, gap),
            (is_long & (degree[owner] != 1), "long-edge top {} has degree != 1", owner),
            (is_long & chained, "long-edge top {} is a part root", owner),
            (~is_long & (gap != 1), "short edge {}->{} has gap {} != 1", owner, kid, gap),
            (leaf & (degree > 0), "leaf {} has children", nodes),
            (leaf & (level != 0), "leaf {} at level {} != 0", nodes, level),
            (~leaf & (degree == 0), "internal node {} has no children", nodes),
            (labels[1:] == labels[:-1], "duplicate leaf label {}", labels),
        ):
            bad = np.flatnonzero(fails)
            if bad.size:
                raise FormatError(msg.format(*(f[bad[0]] for f in fields)))
        if degree[0] == 1 and not self.long_edge[1]:
            raise FormatError("root is a degree-1 chain node")


def _jump(up: np.ndarray, weight: np.ndarray | None = None):
    """Pointer jumping over the links ``up``, where a node that links to
    itself ends a chain: every node's chain end, and with ``weight`` (0 at
    chain ends) the sum of the weights on the way.  After k rounds every
    node links 2^k steps on, or to its chain's end; a chain has fewer than
    ``len(up)`` links.  A node on a cycle links to a node of the cycle."""
    for _ in range(len(up).bit_length()):
        if weight is not None:
            weight = weight + weight[up]
        up = up[up]
    return up, weight


def _children(end: list[int], v: int) -> list[int]:
    """The children of node v of a preorder tree, from its subtree ends
    (``SketchTree.end`` as a list)."""
    kids = [v + 1]
    while end[kids[-1]] < end[v]:
        kids.append(end[kids[-1]])
    return kids


@dataclass
class ClusterIndex:
    """Per-node cluster diameters plus each merge's tau-tree and near points.

    ``diameter[v]`` is the exact diameter of the leaf labels under v.  The
    tau-tree of a merge node v is the BFS tree from child 0 of the graph
    joining children that come within 2^level(v), neighbours in ascending
    child index (the children of v, in id order, are in smallest-label
    order).
    ``tau[v][i]`` is the index of child i's tau-parent and ``near[v][i]``
    the parent's label closest to child i (ties to the smallest label),
    -1 at child 0; both are None at leaves and one-child nodes.
    """

    diameter: list[float]
    tau: list[list[int] | None]
    near: list[list[int] | None]


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
    """Single-linkage merge tree of a normalized point set.

    The n leaves, at level 0, plus one node per merge at its level; an edge
    spans every level between a cluster's own and the level of the merge
    that ends it (see :func:`compress`).  Reads the oracle matrix through
    :func:`oracle_all_pairs`, which returns the one stored by
    ``normalize``.  Children of every merge node are ordered by smallest
    member label, which makes the construction fully deterministic, and
    the nodes are numbered in DFS preorder, as in every :class:`SketchTree`.

    Two passes: the first replays the merges for the tree alone; the
    second permutes a copy of the matrix once into the tree's leaf
    preorder, where every node's leaves, and within them each child's, are
    one contiguous range, and reduces each merge node's block, a slice
    view of that matrix, to its diameter, its tau-tree and its ``near``
    labels.  Minima and maxima do not depend on the order of their terms,
    and ``near`` breaks ties by label, not by position, so the results are
    those of blocks gathered in label order.
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
    children: list[list[int]] = [[] for _ in range(n)]
    smallest: list[int] = list(range(n))  # smallest leaf label under each node

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
            tops.sort(key=smallest.__getitem__)
            node = len(level)
            level.append(lvl)
            children.append(tops)
            smallest.append(smallest[tops[0]])
            comp_top[new_root] = node

    # the replay numbers the leaves (id = label) and then the merges as they
    # form; a walk from the root, a spanning tree's one component, numbers
    # them in preorder
    pre_level, pre_parent, pre_label = [], [], []
    stack = [(comp_top[dsu.find(0)], -1)]  # (node, preorder id of its parent)
    while stack:
        v, up = stack.pop()
        stack.extend((c, len(pre_parent)) for c in reversed(children[v]))
        pre_level.append(level[v])
        pre_parent.append(up)
        pre_label.append(v if v < n else -1)
    tree = SketchTree(pre_level, pre_parent, [False] * len(level), pre_label)
    return tree, _pair_tables(dm, tree)


def _tau_parents(adj: np.ndarray) -> list[int]:
    """BFS tree from child 0 of a children graph given as a (k, k) boolean
    adjacency matrix, neighbours in ascending position: the position of
    every child's parent, -1 at child 0.  Raises GuaranteeError if the
    graph is disconnected, which no merge of the build can be."""
    k = len(adj)
    parent = [-1] * k
    # neighbour lists in ascending order from one nonzero pass, so a pop
    # scans only its own edges
    nbr = np.nonzero(adj)[1].tolist()
    start = [0, *np.count_nonzero(adj, axis=1).cumsum().tolist()]
    queue = [0]
    for i in queue:
        for j in nbr[start[i] : start[i + 1]]:
            if j and parent[j] < 0:
                parent[j] = i
                queue.append(j)
    if -1 in parent[1:]:
        raise GuaranteeError(f"children graph of a {k}-child merge is disconnected")
    return parent


def _pair_tables(dm: np.ndarray, tree: SketchTree) -> ClusterIndex:
    """Diameters, tau-trees and near points of :func:`build_hst`'s merge
    tree.  ``P`` is ``dm`` with rows and columns in leaf preorder, so node
    v's block is ``P[lo[v]:hi[v], lo[v]:hi[v]]`` and each child's rows and
    columns are a range of it.  Each merge's (k, k) smallest cross
    distances are thresholded once, for its tau-tree.

    A two-child merge, the commonest, reads only its cross rectangle
    ``P[lo:m, m:hi]`` (``m`` where child 1 starts): ``dm`` is symmetric, so
    the rest of its block is the children's blocks and the rectangle's
    transpose, and its diameter is the larger of the children's diameters
    and the rectangle's maximum.  The merges are visited children first,
    so the children's diameters are known."""
    label = np.array(tree.leaf_label)
    order = label[label >= 0]  # the labels in leaf preorder
    lo, hi = tree.leaf_ranges()
    end = tree.end.tolist()
    P = dm.copy()  # dm is read-only, and evaluate reads it after the build
    _permute_in_place(P, order)

    nodes = tree.n_nodes
    out = ClusterIndex(diameter=[0.0] * nodes, tau=[None] * nodes, near=[None] * nodes)
    for v in np.flatnonzero(label < 0)[::-1].tolist():
        a, b = lo[v], hi[v]
        kids = _children(end, v)
        if len(kids) == 2:
            m = hi[kids[0]]
            rect = P[a:m, m:b]
            to_child = rect.min(axis=1)  # child 0's members to child 1
            gap = to_child.min()
            if not gap < math.ldexp(1.0, tree.level[v]):
                raise GuaranteeError("children graph of a 2-child merge is disconnected")
            out.diameter[v] = max(out.diameter[kids[0]], out.diameter[kids[1]], float(rect.max()))
            out.tau[v] = [-1, 0]
            out.near[v] = [-1, int(order[a:m][to_child == gap].min())]
            continue
        block = P[a:b, a:b]
        starts = [lo[c] - a for c in kids]
        # distance from every member to every child, then per child pair
        to_child = np.minimum.reduceat(block, starts, axis=1)
        gap = np.minimum.reduceat(to_child, starts, axis=0)
        tau = _tau_parents(gap < math.ldexp(1.0, tree.level[v]))
        # the parent child's members at the gap of each tau edge, the
        # smallest label among them
        near = [-1]
        for j, i in enumerate(tau[1:], 1):
            r0, r1 = lo[kids[i]], hi[kids[i]]
            hit = to_child[r0 - a : r1 - a, j] == gap[i, j]
            near.append(int(order[r0:r1][hit].min()))
        out.diameter[v] = float(block.max())
        out.tau[v] = tau
        out.near[v] = near
    return out


def compress(
    tree: SketchTree, clusters: ClusterIndex, epsilon: float
) -> tuple[SketchTree, ClusterIndex]:
    """The sketch tree of :func:`build_hst`'s merge tree.

    The edge from node b up to its merge spans a run of
    gap = level(merge) - 1 - level(b) one-child levels.  The run is
    contracted iff gap >= 2 and (diam(b) == 0 or
    gap > log2(diam(b)/2**level(b)) + log2(1/eps)): its top, at
    level(merge) - 1, hangs on a short edge and b under it on a long edge,
    so diam(b) < eps * 2**level(top) holds for every long edge.  Otherwise
    all gap one-child nodes are kept, each on a short edge.  Every merge-tree
    node b, in id order, becomes one block of ids: its kept run, top down,
    then b itself, so ids stay DFS preorder.  The blocks are laid out with
    array code; merge nodes keep their tau-trees and near points, one-child
    nodes have none.
    """
    eps = snap_epsilon(epsilon)
    t = int(round(-math.log2(eps)))
    level = np.array(tree.level)
    parent = np.array(tree.parent)
    run = np.append(0, level[parent[1:]] - 1 - level[1:])  # the root has none
    contract = np.array([
        gap >= 2 and (diam == 0.0 or gap > math.log2(diam) - lo + t)
        for gap, diam, lo in zip(run.tolist(), clusters.diameter, tree.level)
    ])
    kept = np.where(contract, 1, run)
    # node b's block of ids: its kept run, top down, then b itself at own[b]
    own = np.cumsum(kept + 1) - 1
    b_of = np.repeat(np.arange(tree.n_nodes), kept + 1)
    ids = np.arange(b_of.size)
    step = ids - (own - kept)[b_of]
    is_own = step == kept[b_of]
    up = np.where(step == 0, own[parent[b_of]], ids - 1)
    up[0] = -1
    merge = np.where(is_own, b_of, -1).tolist()  # -1 on a run
    out = ClusterIndex(
        diameter=np.array(clusters.diameter)[b_of].tolist(),
        tau=[clusters.tau[b] if b >= 0 else None for b in merge],
        near=[clusters.near[b] if b >= 0 else None for b in merge],
    )
    return SketchTree(
        level=np.where(is_own, level[b_of], level[parent[b_of]] - 1 - step).tolist(),
        parent=up.tolist(),
        long_edge=(is_own & contract[b_of]).tolist(),
        leaf_label=np.where(is_own, np.array(tree.leaf_label)[b_of], -1).tolist(),
    ), out
