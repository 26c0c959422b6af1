"""Independent reference implementations used as test oracles.

Everything here is deliberately naive: per-level union-find over all point
pairs for the hierarchy, plain loops for distances.  The production code
must agree with these on small inputs; none of this is imported by the
package itself.  :func:`small_instance` draws the inputs of the property
tests that compare them.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from mcsketch import net
from mcsketch.core import DuplicatePointError, FormatError, InputError, _pairwise, encode_p


def matrix_min_distance(coords, p) -> float:
    """Closest-pair distance the way normalization once found it.

    The first minimum, in row-major order, of the full ``_pairwise`` matrix
    of the raw coordinates with its diagonal masked: the same reduction as
    the package, so the float is comparable bit for bit.  Raises
    DuplicatePointError naming that pair when the minimum is zero.
    """
    dm = _pairwise(np.ascontiguousarray(coords, dtype=np.float64), p)
    np.fill_diagonal(dm, np.inf)
    i, j = np.unravel_index(int(dm.argmin()), dm.shape)
    if dm[i, j] == 0.0:
        raise DuplicatePointError(f"points {i} and {j} coincide")
    return float(dm[i, j])


def brute_lp(u, v, p) -> float:
    diff = [abs(float(a) - float(b)) for a, b in zip(u, v)]
    if math.isinf(p):
        return max(diff)
    return sum(x**p for x in diff) ** (1.0 / p)


def brute_matrix(coords, p) -> np.ndarray:
    n = len(coords)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = brute_lp(coords[i], coords[j], p)
    return out


def components_below(dm: np.ndarray, threshold: float) -> list[frozenset[int]]:
    """Connected components of the graph joining pairs at distance < threshold."""
    n = dm.shape[0]
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        for j in range(i + 1, n):
            if dm[i, j] < threshold:
                parent[find(i)] = find(j)
    groups: dict[int, set[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), set()).add(i)
    return sorted((frozenset(g) for g in groups.values()), key=min)


def naive_level_partitions(dm: np.ndarray) -> list[list[frozenset[int]]]:
    """Partitions at levels 0, 1, 2, ... up to the first single component.

    Level i joins pairs at distance < 2**i (strict).  Level 0 is all
    singletons for a normalized metric (min distance 1).
    """
    n = dm.shape[0]
    # level 0: singletons by definition for a normalized metric (the minimum
    # distance is 1; values a few ulps below it are normalization dust)
    out = [sorted((frozenset({i}) for i in range(n)), key=min)]
    i = 0
    while len(out[-1]) > 1:
        i += 1
        out.append(components_below(dm, float(2**i)))
        if i > 2100:
            raise AssertionError("runaway level loop")
    return out


def naive_tree_clusters(dm: np.ndarray) -> dict[int, list[frozenset[int]]]:
    """level -> clusters present at that level in the uncompressed tree."""
    parts = naive_level_partitions(dm)
    return {lvl: part for lvl, part in enumerate(parts)}


def naive_compressed_runs(dm: np.ndarray, eps: float):
    """All maximal one-child runs of the naive tree and their fate.

    Returns a list of (bottom_cluster, bottom_level, top_level, compressed)
    with gap = top_level - bottom_level >= 1, where `compressed` applies the
    rule: gap >= 2 and (diam == 0 or gap > log2(diam / 2**bottom) + log2(1/eps)).
    """
    parts = naive_level_partitions(dm)
    t = round(-math.log2(eps))
    lifespan: dict[frozenset[int], list[int]] = {}
    for lvl, part in enumerate(parts):
        for cl in part:
            lifespan.setdefault(cl, []).append(lvl)
    runs = []
    for cl, levels in lifespan.items():
        lo, hi = min(levels), max(levels)
        assert levels == list(range(lo, hi + 1))
        if hi == lo:
            continue
        # nodes at levels lo..hi represent the same cluster; the run bottom is
        # the node at lo (a leaf or a merge), interiors are lo+1..hi
        diam = max(
            (dm[i, j] for i in cl for j in cl if i != j),
            default=0.0,
        )
        gap = hi - lo
        ok = gap >= 2 and (diam == 0.0 or gap > math.log2(diam) - lo + t)
        runs.append((cl, lo, hi, ok))
    return runs


def children_of(tree) -> list[list[int]]:
    """Every node's children in id order, gathered from ``parent``."""
    kids: list[list[int]] = [[] for _ in range(tree.n_nodes)]
    for v, u in enumerate(tree.parent):
        if u >= 0:
            kids[u].append(v)
    return kids


def edge_gap(tree, v: int) -> int:
    """Level gap of the edge from v to its parent."""
    return tree.level[tree.parent[v]] - tree.level[v]


def leaf_labels_under(tree) -> list[np.ndarray]:
    """For every node, the sorted array of leaf labels in its subtree.

    Nodes are visited by ascending level: children sit strictly below
    their parent, so each child's array is ready before its parent's."""
    kids = children_of(tree)
    out: list[np.ndarray | None] = [None] * tree.n_nodes
    for v in np.argsort(tree.level, kind="stable").tolist():
        if tree.leaf_label[v] >= 0:
            out[v] = np.array([tree.leaf_label[v]], dtype=np.int64)
        else:
            out[v] = np.sort(np.concatenate([out[c] for c in kids[v]]))
    return out  # type: ignore[return-value]


def tau_from_tables(gap, near, level: int) -> tuple[list[int], list[int]]:
    """Tau-parent positions and near labels of one merge from its (k, k)
    tables: ``gap[i][j]`` the smallest distance between children i and j,
    ``near[i][j]`` the label of child i closest to child j.  A plain BFS
    from child 0 over the pairs with gap < 2^level, each popped child's
    neighbours in ascending position; -1 at child 0 in both lists.  Raises
    AssertionError if the children graph is disconnected."""
    k = len(gap)
    bound = math.ldexp(1.0, level)
    parent = [-1] * k
    labels = [-1] * k
    queue = [0]
    for i in queue:
        for j in range(1, k):
            if parent[j] < 0 and gap[i][j] < bound:
                parent[j] = i
                labels[j] = int(near[i][j])
                queue.append(j)
    assert len(queue) == k, "children graph is disconnected"
    return parent, labels


@dataclass
class ChainTree:
    """:func:`build_chain_hst`'s tree, whose ids are not in preorder: each
    node's children as stored lists, and the root's id."""

    level: list[int]
    parent: list[int]
    children: list[list[int]]
    leaf_label: list[int]
    root: int

    @property
    def n_nodes(self) -> int:
        return len(self.level)


@dataclass
class ChainClusters:
    """Cluster index of the chain tree: every node's sorted leaf labels,
    its diameter and, at merges, the per-child-pair tables."""

    members: list[np.ndarray]
    diameter: list[float]
    gap: list[np.ndarray | None]
    near: list[np.ndarray | None]


def build_chain_hst(ps):
    """The threshold-graph 2-HST with one chain node per level, as the
    package once built it: every component that persists across a level
    gets a one-child node there.  Returns (ChainTree, ChainClusters)."""
    from mcsketch.core import oracle_all_pairs
    from mcsketch.hst import _DSU, _merge_level, _prim_mst

    n = ps.n
    dm = oracle_all_pairs(ps)
    edges = sorted(((_merge_level(w), i, j) for w, i, j in _prim_mst(dm)), key=lambda e: e[0])

    level: list[int] = [0] * n
    parent: list[int] = [-1] * n
    children: list[list[int]] = [[] for _ in range(n)]
    members: list[np.ndarray] = [np.array([i], dtype=np.int64) for i in range(n)]
    diameter: list[float] = [0.0] * n
    gap: list[np.ndarray | None] = [None] * n
    near: list[np.ndarray | None] = [None] * n

    def new_node(lvl, labels, diam, tables=(None, None)):
        level.append(lvl)
        parent.append(-1)
        children.append([])
        members.append(labels)
        diameter.append(diam)
        gap.append(tables[0])
        near.append(tables[1])
        return len(level) - 1

    def attach(child, par):
        parent[child] = par
        children[par].append(child)

    def extend_chain(top, to_level):
        cur = top
        for lvl in range(level[top] + 1, to_level + 1):
            nxt = new_node(lvl, members[cur], diameter[cur])
            attach(cur, nxt)
            cur = nxt
        return cur

    dsu = _DSU(n)
    comp_top = {i: i for i in range(n)}
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

    tree = ChainTree(
        level=level,
        parent=parent,
        children=children,
        leaf_label=list(range(n)) + [-1] * (len(level) - n),
        root=comp_top[dsu.find(0)],
    )
    return tree, ChainClusters(members=members, diameter=diameter, gap=gap, near=near)


def compress_chain_hst(tree, clusters, epsilon):
    """Long-edge compression of :func:`build_chain_hst`'s tree, as the
    package once made it: find every maximal one-child run by walking up
    from its bottom, contract the runs the rule allows, then renumber the
    survivors in DFS preorder in a second pass."""
    from mcsketch.core import snap_epsilon
    from mcsketch.hst import SketchTree

    t = round(-math.log2(snap_epsilon(epsilon)))
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
    parent = [-1] * N
    long_flag = [False] * N
    for v in order:
        is_long = v in long_child
        for c in [long_child[v]] if is_long else tree.children[v]:
            parent[new_id[c]] = new_id[v]
            long_flag[new_id[c]] = is_long

    out = SketchTree(
        level=[tree.level[v] for v in order],
        parent=parent,
        long_edge=long_flag,
        leaf_label=[tree.leaf_label[v] for v in order],
    )
    return out, ChainClusters(
        members=[clusters.members[v] for v in order],
        diameter=[clusters.diameter[v] for v in order],
        gap=[clusters.gap[v] for v in order],
        near=[clusters.near[v] for v in order],
    )


def triangle_violation(d: np.ndarray, rel_tol: float = 1e-9):
    """First (i, j, k) with d[i, j] > d[i, k] + d[k, j] + slack, else None.

    The brute-force O(n^3) loop over the middle point k, with the slack
    ``rel_tol * max|d|`` that ``DistanceMatrix.validate`` allows.
    """
    slack = rel_tol * np.abs(d).max()
    for k in range(d.shape[0]):
        through_k = d[:, k : k + 1] + d[k : k + 1, :]
        if np.any(d > through_k + slack):
            i, j = np.unravel_index(np.argmax(d - through_k), d.shape)
            return int(i), int(j), k
    return None


def exact_shift_floats(model) -> np.ndarray:
    """Every node's shifted surrogate from exact Python-int sums, one
    coordinate at a time, the way the package once carried them.

    A node's shift is the sum, over the nodes of its ingress chain below
    its part root, of each one's grid integers shifted left by level(v),
    and by t = log2(1/eps) more at nodes with short children.  Floats are
    ``float(k) * unit`` per coordinate.
    """
    tree = model.tree
    kids = children_of(tree)
    d = model.d
    t = round(-math.log2(model.epsilon))
    unit = model.epsilon / d ** (1.0 / model.p)
    ints: dict[int, list[int]] = {
        v: [0] * d for v, u in enumerate(model.ingress) if u < 0
    }
    out = np.zeros((tree.n_nodes, d))
    for v in range(tree.n_nodes):
        chain = []
        cur = v
        while cur not in ints:
            chain.append(cur)
            cur = model.ingress[cur]
        acc = ints[cur]
        for node in reversed(chain):
            leafy = all(tree.long_edge[c] for c in kids[node])
            sh = tree.level[node] + (0 if leafy else t)
            acc = [a + (int(m) << sh) for a, m in zip(acc, model.eta_ints[node])]
        out[v] = [float(k) * unit for k in acc]
    return out


def dfs_preorder(tree) -> list[int]:
    """Node ids in DFS preorder from the node without a parent, children in
    id order (:func:`children_of`), by a stack walk."""
    kids = children_of(tree)
    order: list[int] = []
    stack = [tree.parent.index(-1)]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(reversed(kids[v]))
    return order


def verify_tree(tree) -> None:
    """The structural rules of a sketch tree, node by node; raises
    FormatError naming the first violation.  A merge tree fails them
    wherever an edge spans more than one level.

    The decoder checks only the rules its balanced-parenthesis shape and
    its own field checks leave open (``codec._part_fault``); the property
    tests apply all of them to every tree the builder or the decoder
    makes."""
    n = tree.n_nodes
    parent, level, label = tree.parent, tree.level, tree.leaf_label
    if parent[0] != -1:
        raise FormatError("root has a parent")
    for v in range(1, n):
        if not 0 <= parent[v] < v:
            raise FormatError(f"parent {parent[v]} of node {v} is not below it")
    order = dfs_preorder(tree)
    for v in range(n):
        if order[v] != v:
            raise FormatError(f"node {v} is out of preorder")
    kids = children_of(tree)
    for v in range(1, n):
        u = parent[v]
        gap = level[u] - level[v]
        if tree.long_edge[v]:
            if gap < 2:
                raise FormatError(f"long edge {u}->{v} has gap {gap} < 2")
            if len(kids[u]) != 1:
                raise FormatError(f"long-edge top {u} has degree != 1")
            if u != 0 and tree.long_edge[u]:
                raise FormatError(f"long-edge top {u} is a part root")
        elif gap != 1:
            raise FormatError(f"short edge {u}->{v} has gap {gap} != 1")
    for v in range(n):
        if label[v] >= 0 and kids[v]:
            raise FormatError(f"leaf {v} has children")
        if label[v] >= 0 and level[v] != 0:
            raise FormatError(f"leaf {v} at level {level[v]} != 0")
        if label[v] < 0 and not kids[v]:
            raise FormatError(f"internal node {v} has no children")
    labels = sorted(x for x in label if x >= 0)
    for a, b in zip(labels, labels[1:]):
        if a == b:
            raise FormatError(f"duplicate leaf label {a}")
    if len(kids[0]) == 1 and not tree.long_edge[1]:
        raise FormatError("root is a degree-1 chain node")


def check_point_set(ps) -> None:
    """A normalized point set's invariants against its full distance
    matrix: the least distance is 1 to within 1e-12 and the largest is the
    recorded spread to within 1e-9 relative.  InputError otherwise.  The
    stored matrix is not read: the check recomputes it."""
    dm = _pairwise(ps.coords, ps.p)
    off = dm[~np.eye(ps.n, dtype=bool)]
    mn, mx = off.min(), off.max()
    if abs(mn - 1.0) > 1e-12:
        raise InputError(f"point set not normalized: min distance {mn}")
    if abs(mx - ps.spread) > 1e-9 * max(1.0, ps.spread):
        raise InputError(f"recorded spread {ps.spread} but measured {mx}")


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


def subtree_decomposition(tree) -> Decomposition:
    """The parts of a tree by a walk in DFS preorder, the way the package
    once numbered them; ``SketchTree.part_of`` must agree with it."""
    part_of = [-1] * tree.n_nodes
    parts: list[list[int]] = []
    roots: list[int] = []
    for v in dfs_preorder(tree):
        if tree.parent[v] < 0 or tree.long_edge[v]:
            part_of[v] = len(parts)
            parts.append([v])
            roots.append(v)
        else:
            pid = part_of[tree.parent[v]]
            part_of[v] = pid
            parts[pid].append(v)
    return Decomposition(part_of=part_of, parts=parts, roots=roots)


def greedy_landmarks(ingress, K: int) -> set[int]:
    """Landmarks of an ingress forest (-1 at part roots) by the greedy the
    package once ran on each part's ingress tree: repeatedly take the
    deepest remaining node (smallest id on ties); stop when its depth is
    below K; otherwise its K-th ingress ancestor becomes a landmark and
    that ancestor's whole ingress subtree is removed."""
    ingress = [int(u) for u in ingress]
    ingress_children: dict[int, list[int]] = {}
    for v, u in enumerate(ingress):
        if u >= 0:
            ingress_children.setdefault(u, []).append(v)
    landmarks: set[int] = set()
    for root in (v for v, u in enumerate(ingress) if u < 0):
        depth = {root: 0}
        order = [root]
        i = 0
        while i < len(order):
            v = order[i]
            i += 1
            for c in ingress_children.get(v, ()):
                depth[c] = depth[v] + 1
                order.append(c)
        removed: set[int] = set()
        for v in sorted(depth, key=lambda v: (-depth[v], v)):
            if v in removed:
                continue
            if depth[v] < K:
                break
            anc = v
            for _ in range(K):
                anc = ingress[anc]
            landmarks.add(anc)
            stack = [anc]
            while stack:
                w = stack.pop()
                if w in removed:
                    continue
                removed.add(w)
                stack.extend(ingress_children.get(w, ()))
    return landmarks


def member_search_ingresses(tree, tau, clusters) -> list:
    """Ingresses found by searching member labels, as the package once did.

    Each descent step from the tau-predecessor toward leaf(y), y the near
    label stored for the tau edge, takes the child whose sorted member
    labels contain y, by binary search over :func:`leaf_labels_under`, and
    stops before a long edge or at a leaf.
    """
    def contains(labels, y):
        i = int(np.searchsorted(labels, y))
        return i < labels.size and int(labels[i]) == y

    members = leaf_labels_under(tree)
    kids = children_of(tree)
    ingress = [None] * tree.n_nodes
    for v, tt in tau.items():
        for i, c in enumerate(kids[v]):
            j = tt.parent[c]
            if j is None:
                ingress[c] = v
                continue
            y = clusters.near[v][i]
            cur = j
            while tree.leaf_label[cur] < 0:
                nxt = next(k for k in kids[cur] if contains(members[k], y))
                if tree.long_edge[nxt]:
                    break
                cur = nxt
            ingress[c] = cur
    return ingress


def node_by_node_surrogates(tree, ingress, center, ps, params, clusters):
    """Precisions, grid integers, exact shifts and surrogates the way the
    package once computed them: one node at a time in ingress order, with
    a scalar rounding per node.  Returns (inv_delta, grid, shift_int,
    s_star) with the dtypes of the package's arrays."""
    from mcsketch import net
    from mcsketch.annotate import ingress_layers, shift_dtype
    from mcsketch.core import k_parameter

    eps, d, p = params.epsilon, ps.d, ps.p
    kids = children_of(tree)
    unit = net.per_coord_scale(eps, d, p)
    dtype = shift_dtype(k_parameter(ps.spread, eps, d, p))
    n_nodes = tree.n_nodes
    inv_delta = [
        5 + math.ceil(clusters.diameter[v] / math.ldexp(1.0, tree.level[v]) - 1e-12)
        for v in range(n_nodes)
    ]
    grid = np.zeros((n_nodes, d), dtype=np.int64)
    shift_int = np.zeros((n_nodes, d), dtype=dtype)
    s_star = np.zeros((n_nodes, d))
    part_root = list(range(n_nodes))
    ing = np.array([-1 if u is None else u for u in ingress], dtype=np.int64)
    for v in (v for layer in ingress_layers(ing) for v in layer.tolist()):
        u = ingress[v]
        if u is None:
            s_star[v] = ps.coords[center[v]]
            continue
        part_root[v] = part_root[u]
        leafy = all(tree.long_edge[c] for c in kids[v])
        delta_eff = net.delta_effective(eps, leafy, inv_delta[v])
        es = (ps.coords[center[v]] - s_star[u]) / (
            inv_delta[v] * math.ldexp(1.0, tree.level[v])
        )
        m = net.grid_indices(es, delta_eff, d, p)
        grid[v] = m
        sh = tree.level[v] + (0 if leafy else params.t)
        shift_int[v] = shift_int[u] + (m.astype(dtype) << sh)
        s_star[v] = s_star[part_root[v]] + shift_int[v].astype(np.float64) * unit
    return inv_delta, grid, shift_int, s_star


class BitWriter:
    """Scalar MSB-first bit writer, one field per call, as the codec once
    wrote blobs: the reference the array packer must match bit for bit."""

    def __init__(self) -> None:
        self._buf = bytearray()
        self._acc = 0
        self._nbits = 0

    @property
    def bit_length(self) -> int:
        return 8 * len(self._buf) + self._nbits

    def write_uint(self, value: int, width: int) -> None:
        value = int(value)
        if width < 0:
            raise ValueError("negative width")
        if value < 0 or value >> width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        acc = (self._acc << width) | value
        nbits = self._nbits + width
        full, nbits = divmod(nbits, 8)
        if full:
            self._buf += (acc >> nbits).to_bytes(full, "big")
        self._acc = acc & ((1 << nbits) - 1)
        self._nbits = nbits

    def write_unary(self, q: int) -> None:
        """q zero bits, then a one."""
        self.write_uint(0, q)
        self.write_uint(1, 1)

    def getvalue(self) -> bytes:
        """Bytes with zero padding in the final partial byte."""
        out = bytes(self._buf)
        if self._nbits:
            out += bytes([(self._acc << (8 - self._nbits)) & 0xFF])
        return out


class BitReader:
    """Scalar reader matching :class:`BitWriter`, bounded by a bit length."""

    def __init__(self, data: bytes, bit_length: int) -> None:
        self._data = data
        self._limit = bit_length
        self.position = 0

    def read_uint(self, width: int) -> int:
        pos = self.position
        end = pos + width
        if end > self._limit:
            raise FormatError("bit stream truncated")
        self.position = end
        last = (end + 7) >> 3
        chunk = int.from_bytes(self._data[pos >> 3 : last], "big")
        return (chunk >> (8 * last - end)) & ((1 << width) - 1)

    def read_unary(self) -> int:
        q = 0
        while self.read_uint(1) == 0:
            q += 1
        return q


def write_gammas(w: BitWriter, values) -> None:
    """An Elias gamma column, one code at a time: every value's
    bitlen(v) - 1 in unary, then every value's bitlen(v) - 1 low bits."""
    for v in values:
        w.write_unary(int(v).bit_length() - 1)
    for v in values:
        n = int(v).bit_length() - 1
        w.write_uint(int(v) - (1 << n), n)


def read_gammas(r: BitReader, count: int) -> list[int]:
    lows = [r.read_unary() for _ in range(count)]
    return [(1 << n) | r.read_uint(n) for n in lows]


def zigzag(m: int) -> int:
    return 2 * m if m >= 0 else -2 * m - 1


def write_rice_rows(w: BitWriter, rows, ks) -> None:
    """Rows of non-negative integers in Rice codes of one parameter k per
    row, one bit at a time: every value's quotient z >> k in unary, row by
    row, then each row's k planes of d bits, most significant plane first."""
    for row, k in zip(rows, ks):
        for z in row:
            w.write_unary(int(z) >> k)
    for row, k in zip(rows, ks):
        for j in reversed(range(k)):
            for z in row:
                w.write_uint(int(z) >> j & 1, 1)


def read_rice_rows(r: BitReader, ks, d: int) -> list[list[int]]:
    quotients = [[r.read_unary() for _ in range(d)] for _ in ks]
    rows = []
    for qs, k in zip(quotients, ks):
        rest = [0] * d
        for _ in range(k):
            rest = [2 * x + r.read_uint(1) for x in rest]
        rows.append([q << k | x for q, x in zip(qs, rest)])
    return rows


def subtree_ends(tree) -> list[int]:
    """One past the last id of every node's subtree, from child lists: ids
    are preorder, so that is the largest id below a node, plus one."""
    kids = children_of(tree)
    end = list(range(1, tree.n_nodes + 1))
    for v in reversed(range(tree.n_nodes)):
        for c in kids[v]:
            end[v] = max(end[v], end[c])
    return end


def rank_range(tree, c: int) -> list[int]:
    """The nodes a later child c of v may take as its ingress, in id
    order, by a scan: the ids of v's subtree outside c's, v excluded,
    whose children all hang on long edges (leaves among them)."""
    kids = children_of(tree)
    end = subtree_ends(tree)
    v = tree.parent[c]
    return [
        u
        for u in range(v + 1, end[v])
        if not c <= u < end[c] and all(tree.long_edge[k] for k in kids[u])
    ]


def ingress_ranks(tree, ingress) -> list[tuple[int, int | None, int]]:
    """(c, rank, count) for every later child c of its parent that is not
    a part root, in id order: the index of c's ingress in
    :func:`rank_range` (None when it is not there) and the range's size."""
    out = []
    for c in range(1, tree.n_nodes):
        if tree.long_edge[c] or tree.parent[c] == c - 1:
            continue
        span = rank_range(tree, c)
        u = int(ingress[c])
        out.append((c, span.index(u) if u in span else None, len(span)))
    return out


def rice_classes(tree) -> list[int | None]:
    """Every node's Rice class, None at part roots: 0 and 1 for a first
    child with and without short children, 2 and 3 for any other node."""
    kids = children_of(tree)
    out = []
    for v in range(tree.n_nodes):
        if tree.parent[v] < 0 or tree.long_edge[v]:
            out.append(None)
            continue
        leafy = all(tree.long_edge[k] for k in kids[v])
        out.append(2 * (tree.parent[v] != v - 1) + leafy)
    return out


def best_rice(values) -> tuple[int, int]:
    """The k in 0..63 whose Rice codes of ``values`` take the fewest bits,
    the smallest on a tie, by costing every k, and those bits."""
    costs = [sum((z >> k) + 1 + k for z in values) for k in range(64)]
    return costs.index(min(costs)), min(costs)


def rice_tops(classes, bounds, d: int) -> list[tuple[int, int] | None]:
    """Per class, (2 B_max, count of values) over its rows with a bound
    above 0, the rows it stores, or None when it stores none."""
    out = []
    for c in range(4):
        members = [v for v, k in enumerate(classes) if k == c and bounds[v] > 0]
        out.append((2 * max(int(bounds[v]) for v in members), d * len(members)) if members else None)
    return out


def rice_heads(rows, classes, bounds) -> list[tuple[list[int] | None, int] | None]:
    """Per class, None when it stores no row, else its table (None for
    none) and Rice parameter, by exhaustive search: the best k of the
    class's zigzag values, or, where the alphabet 0..2 B_max is no larger
    than the class's count of values and it costs fewer bits, the best k
    of their ranks in the table of the class's distinct values by
    descending count (ties to the smaller value), plus the table's bits,
    gamma(A) and A values of bitlen(2 B_max) bits."""
    heads = []
    for c, top in enumerate(rice_tops(classes, bounds, len(rows[0]) if rows else 0)):
        if top is None:
            heads.append(None)
            continue
        values = [
            zigzag(int(m))
            for v, row in enumerate(rows)
            if classes[v] == c and bounds[v] > 0
            for m in row
        ]
        k, cost = best_rice(values)
        head = (None, k)
        if top[0] + 1 <= top[1]:
            counts = {}
            for z in values:
                counts[z] = counts.get(z, 0) + 1
            table = sorted(counts, key=lambda z: (-counts[z], z))
            rank = {z: i for i, z in enumerate(table)}
            rank_k, rank_cost = best_rice([rank[z] for z in values])
            a = len(table)
            if rank_cost + 2 * a.bit_length() - 1 + a * top[0].bit_length() < cost:
                head = (table, rank_k)
        heads.append(head)
    return heads


def write_rice_heads(w: BitWriter, heads, tops) -> None:
    """The class heads of the displacement section, one field at a time:
    per class that stores rows, a flag bit where its alphabet 0..2 B_max
    is no larger than its count of values (``tops``, from
    :func:`rice_tops`), set when a table follows; the table, gamma(A) and
    A values of bitlen(2 B_max) bits; k in bitlen(min(63, bitlen(2
    B_max))) bits."""
    for head, top in zip(heads, tops):
        if top is None:
            continue
        table, k = head
        if top[0] + 1 <= top[1]:
            w.write_uint(int(table is not None), 1)
        if table is not None:
            write_gammas(w, [len(table)])
            for z in table:
                w.write_uint(z, top[0].bit_length())
        w.write_uint(k, min(63, top[0].bit_length()).bit_length())


def write_rice_section(w: BitWriter, rows, classes, bounds, heads) -> tuple[int, int]:
    """The MCSK v7 displacement section of grid rows under ``heads`` (see
    :func:`rice_heads`): the heads, then every stored row's codes, the rank
    of each zigzag value in its class's table or the value itself, in Rice
    codes (:func:`write_rice_rows`).  Returns the bits where the quotients
    and the remainder planes start."""
    write_rice_heads(w, heads, rice_tops(classes, bounds, len(rows[0]) if rows else 0))
    quotients = w.bit_length
    codes, ks = [], []
    for v, row in enumerate(rows):
        if classes[v] is None or bounds[v] == 0:
            continue
        table, k = heads[classes[v]]
        zs = [zigzag(int(m)) for m in row]
        codes.append([table.index(z) for z in zs] if table is not None else zs)
        ks.append(k)
    write_rice_rows(w, codes, ks)
    return quotients, w.bit_length - sum(k * len(row) for row, k in zip(codes, ks))


def read_rice_section(r: BitReader, classes, bounds, d: int) -> list[list[int]]:
    """Every row's grid integers from the section :func:`write_rice_section`
    wrote, zeros where a row stores nothing; no check of the values."""
    tops = rice_tops(classes, bounds, d)
    heads = []
    for top in tops:
        if top is None:
            heads.append(None)
            continue
        table = None
        if top[0] + 1 <= top[1] and r.read_uint(1):
            (a,) = read_gammas(r, 1)
            table = [r.read_uint(top[0].bit_length()) for _ in range(a)]
        heads.append((table, r.read_uint(min(63, top[0].bit_length()).bit_length())))
    stored = [v for v in range(len(classes)) if classes[v] is not None and bounds[v] > 0]
    codes = read_rice_rows(r, [heads[classes[v]][1] for v in stored], d)
    rows = [[0] * d for _ in classes]
    for v, row in zip(stored, codes):
        table = heads[classes[v]][0]
        zs = [table[x] for x in row] if table is not None else row
        rows[v] = [z >> 1 if z % 2 == 0 else -(z + 1 >> 1) for z in zs]
    return rows


def write_payload(model, heads=None) -> tuple[bytes, int, dict[str, int]]:
    """The payload of an MCSK v7 blob written one field at a time, straight
    from the layout: its bytes, its bit length and the first bit of every
    column of ``COLUMNS``.  Ranks come from :func:`ingress_ranks`, grid
    bounds from ``net.tree_bounds`` and the displacement heads from
    :func:`rice_heads`, unless ``heads`` gives them; a model whose ingress
    is not in its range raises AssertionError."""
    tree = model.tree
    kids = children_of(tree)
    w = BitWriter()
    starts = {}
    starts["shape"] = w.bit_length
    stack = [(0, True)]
    while stack:
        v, opening = stack.pop()
        w.write_uint(int(opening), 1)
        if opening:
            stack.append((v, False))
            stack.extend((c, True) for c in reversed(kids[v]))
    starts["edge flags"] = w.bit_length
    for v in range(1, tree.n_nodes):
        w.write_uint(int(tree.long_edge[v]), 1)
    starts["gaps"] = w.bit_length
    write_gammas(w, [edge_gap(tree, v) for v in range(1, tree.n_nodes) if tree.long_edge[v]])
    starts["leaf labels"] = w.bit_length
    for label in tree.leaf_label:
        if label >= 0:
            w.write_uint(label, (model.n - 1).bit_length())
    starts["ingress ranks"] = w.bit_length
    for _, rank, count in ingress_ranks(tree, model.ingress):
        assert rank is not None, "ingress outside its range"
        w.write_uint(rank, (count - 1).bit_length())
    classes = rice_classes(tree)
    bounds = [int(b) for b in net.tree_bounds(tree, model.epsilon, model.d, model.p)]
    rows = [[int(m) for m in model.eta_ints[v]] for v in range(tree.n_nodes)]
    heads = rice_heads(rows, classes, bounds) if heads is None else heads
    starts["Rice heads"] = w.bit_length
    starts["quotients"], starts["remainders"] = write_rice_section(w, rows, classes, bounds, heads)
    starts["landmark count"] = w.bit_length
    if model.landmarks is not None:
        write_gammas(w, [len(model.landmarks) + 1])
    starts["landmark ids"] = w.bit_length
    for v in model.landmarks or ():
        w.write_uint(v, (tree.n_nodes - 1).bit_length())
    return w.getvalue(), w.bit_length, starts


def write_blob(model) -> bytes:
    """A whole MCSK v7 blob written straight from the layout, with no
    check of the model: the header, :func:`write_payload`'s payload and
    the CRC.  It writes the hostile blobs that ``serialize`` refuses to."""
    payload, bits, _ = write_payload(model)
    code, num, den = encode_p(model.p)
    head = b"MCSK" + struct.pack("<HB", 7, code)
    if code == 0:
        head += struct.pack("<II", num, den)
    flags = 2 if model.landmarks is not None else 0
    head += struct.pack(
        "<QQdddBQQQ",
        model.n,
        model.d,
        model.epsilon,
        model.scale,
        model.spread,
        flags,
        model.jl_seed,
        model.jl_orig_dim,
        bits,
    )
    return head + payload + struct.pack("<I", zlib.crc32(head + payload))


COLUMNS = (
    "shape",
    "edge flags",
    "gaps",
    "leaf labels",
    "ingress ranks",
    "Rice heads",
    "quotients",
    "remainders",
    "landmark count",
    "landmark ids",
)


def payload_columns(blob: bytes) -> dict[str, range]:
    """The bits, counted from the blob's first bit, of every payload column
    of an MCSK v7 blob, from the decoded model through :func:`write_payload`,
    which must give the blob's payload bit for bit; a column the blob lacks
    is an empty range."""
    from mcsketch.codec import deserialize, size_report

    rep = size_report(blob)
    payload, bits, starts = write_payload(deserialize(blob))
    assert bits == rep.payload_bits
    assert payload == blob[rep.header_bytes : -rep.crc_bytes]
    at = 8 * rep.header_bytes
    ends = [starts[name] for name in COLUMNS[1:]] + [bits]
    return {name: range(at + starts[name], at + e) for name, e in zip(COLUMNS, ends)}


def small_instance(seed: int, n: int, d: int, p: float, kind: str):
    """A normalized point set for property tests: the Frechet embedding of a
    random graph metric (``"graph"``), a high-spread line (``"line"``) or a
    lattice of small integer coordinates, whose many equal distances make
    ties at merges (``"lattice"``); None when the lattice draw has fewer
    than two distinct points."""
    from mcsketch.cli import gen_high_spread_line, gen_random_graph_metric
    from mcsketch.core import DistanceMatrix, normalize
    from mcsketch.reduce import frechet_embed

    if kind == "graph":
        return frechet_embed(DistanceMatrix(entries=gen_random_graph_metric(max(n, 3), seed)))
    if kind == "line":
        return normalize(gen_high_spread_line(max(n, 11), 40, seed), p)
    rng = np.random.default_rng(seed)
    pts = np.unique(rng.integers(0, 5, size=(n, d)).astype(float), axis=0)
    return normalize(pts, p) if len(pts) >= 2 else None
