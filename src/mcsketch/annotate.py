"""Annotation passes over a compressed sketch tree.

Four passes, in dependency order:

1. centers: every node gets a representative input point, chosen bottom-up
   so the center of a node is the center of its child 0, the child holding
   the smallest label.  For a node v whose children hang on short edges that
   child is the root of the tau-tree: a BFS tree over the children graph
   that connects two children when their clusters come within 2^level(v),
   with neighbor lists sorted by smallest member label so the construction
   is deterministic.

2. ingresses: every node other than a part root gets a previously processed
   node whose surrogate anchors its own.  The tau-root's ingress is the
   parent; any other child v_i of v takes the closest point y of its
   tau-predecessor's cluster and descends from that predecessor toward
   leaf(y), stopping before any long edge, which always lands on a node
   with no short children.

3. precisions: inv_delta(v) = 5 + ceil(Delta(v)/2^level(v)), computed with
   a 1e-12 downward nudge so diameters that are exact multiples of the
   level scale do not round up on float dust.

4. surrogates: walking the ingress forest from the part roots (see
   :func:`ingress_order`), so every node comes after its ingress, the
   normalized displacement
   eta*(v) = (delta(v)/2^level(v)) * (f(c(v)) - s*(in(v))) is rounded to
   the net of granularity delta_eff (delta_eff = delta(v)*eps at nodes
   with no short children, else delta(v)), and the surrogate is rebuilt as
   s*(v) = s*(in(v)) + (2^level(v)/delta(v)) * eta(v).  eta(v) is kept as
   its d grid integers, row v of one (n_nodes, d) int64 array
   ``Annotations.eta_ints`` with zero rows at part roots; the codec stores
   and the decoder returns that same array.  Because eps and the
   levels are powers of two, every surrogate minus its part root is an
   integer multiple of eps/d^(1/p) per coordinate: the sum, along the
   ingress chain, of each node's grid integers shifted left by its
   :func:`shift_exponents` entry.  Those integers are carried exactly, as
   one (n_nodes, d) numpy array whose dtype :func:`shift_dtype` picks once
   per sketch: int64 when K+2 <= 62, Python ints (``object``) beyond.  The
   decoder's estimator uses the same walk, the same exponents and the same
   conversion, so shifted surrogates and the landmark replay reproduce
   identical floats no matter how they are recomputed.

No pass reads a distance: passes 1 and 2 read the per-merge ``gap`` and
``near`` tables and pass 3 the diameters that the build stores in
:class:`~mcsketch.hst.ClusterIndex`.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import net
from .core import GuaranteeError, InputError, PointSet, SketchParams, k_parameter
from .hst import ClusterIndex, SketchTree

__all__ = [
    "TauTree",
    "Annotations",
    "SurrogateTable",
    "assign_centers",
    "assign_ingresses",
    "ingress_layers",
    "ingress_order",
    "shift_exponents",
    "shift_dtype",
    "compute_surrogates",
    "annotate",
    "shift_to_float",
]


@dataclass
class TauTree:
    """BFS tree over the children of one node (short edges only)."""

    root: int
    parent: dict[int, int | None]
    children: dict[int, list[int]]


@dataclass
class Annotations:
    """Per-node annotations; filled in stages (see module docstring)."""

    center: list[int]
    tau: dict[int, TauTree]
    ingress: list[int | None] = field(default_factory=list)
    inv_delta: list[int] = field(default_factory=list)
    is_subtree_leaf: list[bool] = field(default_factory=list)
    # (n_nodes, d) int64 grid integers, zero rows at part roots
    eta_ints: np.ndarray = field(default_factory=lambda: np.zeros((0, 0), np.int64))


@dataclass
class SurrogateTable:
    """Float surrogates plus the exact integer shifts they come from.

    ``shift_int`` is an (n_nodes, d) integer array, of the dtype
    :func:`shift_dtype` picks, whose row v holds the k with
    s*(v) - s*(part root of v) == k * unit exactly (as reals), where
    ``unit`` = eps/d^(1/p).  ``shift_float`` is the one sanctioned
    int->float conversion; every consumer must go through it so that
    independently recomputed surrogates agree bit for bit.
    """

    s_star: np.ndarray
    shift_int: np.ndarray
    unit: float

    def shift_float(self, v: int) -> np.ndarray:
        return shift_to_float(self.shift_int[v], self.unit)


def shift_to_float(ks: np.ndarray, unit: float) -> np.ndarray:
    """Correctly rounded floats of an int64 or ``object`` array of integer
    shifts, times the fixed-point unit (elementwise, any shape)."""
    out = np.asarray(ks).astype(np.float64)
    out *= unit
    return out


# --------------------------------------------------------------------------
# Pass 1: centers and tau-trees.


def assign_centers(
    tree: SketchTree, clusters: ClusterIndex
) -> tuple[list[int], dict[int, TauTree]]:
    """Representative point per node plus the tau-tree of every node with
    short children.  Raises GuaranteeError if some children graph is
    disconnected (the build never produces one, so that means corrupt
    inputs)."""
    center = [-1] * tree.n_nodes
    tau: dict[int, TauTree] = {}
    # node ids are DFS preorder, so descending order visits children first
    for v in range(tree.n_nodes - 1, -1, -1):
        if tree.is_leaf(v):
            center[v] = tree.leaf_label[v]
            continue
        if not tree.is_long_top(v):
            tau[v] = _build_tau(tree, v, clusters.gap[v])
        # child 0 holds the smallest label and is always the tau-root
        center[v] = center[tree.children[v][0]]
    return center, tau


def _build_tau(tree: SketchTree, v: int, gap: np.ndarray | None) -> TauTree:
    # children are stored by smallest member label, so child 0 is the root
    # and ascending child index is the neighbor order
    kids = tree.children[v]
    parent: dict[int, int | None] = {kids[0]: None}
    children: dict[int, list[int]] = {c: [] for c in kids}
    if len(kids) > 1:
        adj = gap < math.ldexp(1.0, tree.level[v])
        seen = np.zeros(len(kids), dtype=bool)
        seen[0] = True
        queue = deque([0])
        while queue:
            i = queue.popleft()
            fresh = np.flatnonzero(adj[i] & ~seen)
            seen[fresh] = True
            children[kids[i]] = [kids[j] for j in fresh]
            parent.update((kids[j], kids[i]) for j in fresh)
            queue.extend(fresh)
        if not seen.all():
            raise GuaranteeError(
                f"children graph of node {v} is disconnected below 2^{tree.level[v]}"
            )
    return TauTree(root=kids[0], parent=parent, children=children)


# --------------------------------------------------------------------------
# Pass 2: ingresses.


def assign_ingresses(
    tree: SketchTree, tau: dict[int, TauTree], clusters: ClusterIndex
) -> list[int | None]:
    """Ingress node per non-part-root node (None at part roots)."""
    ingress: list[int | None] = [None] * tree.n_nodes
    for v, tt in tau.items():
        index = {c: i for i, c in enumerate(tree.children[v])}
        for c, j in tt.parent.items():
            if j is None:
                ingress[c] = v
            else:
                y = int(clusters.near[v][index[j], index[c]])
                ingress[c] = _descend_short(tree, j, y, clusters.members)
    return ingress


def _contains(sorted_labels: np.ndarray, y: int) -> bool:
    i = int(np.searchsorted(sorted_labels, y))
    return i < sorted_labels.size and int(sorted_labels[i]) == y


def _descend_short(
    tree: SketchTree, start: int, y: int, members: list[np.ndarray]
) -> int:
    """Lowest node on the path start -> leaf(y) reachable over short edges."""
    cur = start
    while not tree.is_leaf(cur):
        nxt = next(c for c in tree.children[cur] if _contains(members[c], y))
        if tree.long_edge[nxt]:
            break
        cur = nxt
    return cur


# --------------------------------------------------------------------------
# Pass 4 walk and step, shared with the decoder's estimator.


def ingress_layers(ingress: list[int | None]) -> list[list[int]]:
    """Nodes reachable from a part root (ingress None), by depth in the
    ingress forest: layer 0 holds the part roots in id order, layer k+1 the
    nodes whose ingress lies in layer k.

    A node on an ingress cycle, or below one, is never reached and is left
    out, so fewer than ``len(ingress)`` nodes in all means the references
    contain a cycle.
    """
    kids: list[list[int]] = [[] for _ in ingress]
    layer: list[int] = []
    for v, u in enumerate(ingress):
        if u is None:
            layer.append(v)
        else:
            kids[u].append(v)
    layers = []
    while layer:
        layers.append(layer)
        layer = [c for v in layer for c in kids[v]]
    return layers


def ingress_order(ingress: list[int | None]) -> list[int]:
    """The nodes of :func:`ingress_layers`, layer after layer, so every node
    comes after its ingress."""
    return [v for layer in ingress_layers(ingress) for v in layer]


def shift_exponents(tree: SketchTree, t: int) -> np.ndarray:
    """Per node v, the power of two its grid integers m scale by in its exact
    shift over its ingress, ``m << sh[v]`` in units of eps/d^(1/p).

    sh[v] = level(v), plus t = log2(1/eps) at nodes with short children,
    whose net is 1/eps times coarser.
    """
    has_short = np.zeros(tree.n_nodes, dtype=bool)
    short = np.flatnonzero(~np.array(tree.long_edge, dtype=bool))
    parents = np.array(tree.parent, dtype=np.int64)[short]
    has_short[parents[parents >= 0]] = True
    return np.array(tree.level, dtype=np.int64) + t * has_short


# A valid shift lies within +-2^(K+1): s*(v) is within 2^level(v) <= 2*spread
# of c(v), which is within spread of its part root's center, and 2^K >=
# 2*spread*d^(1/p)/eps.  So a step (the difference of two shifts) lies within
# +-2^(K+2), and a shift plus a step cannot leave int64 while K+2 <= 62.
_INT64_MAX_K = 60


def shift_dtype(k: int) -> np.dtype:
    """Dtype of a sketch's shift arrays from its landmark spacing K (see
    :func:`~mcsketch.core.k_parameter`): int64 when K+2 <= 62, else
    ``object`` (exact Python ints, as for spreads near 2^512)."""
    return np.dtype(np.int64) if k <= _INT64_MAX_K else np.dtype(object)


# --------------------------------------------------------------------------
# Passes 3 + 4: precisions and quantized surrogates.


def compute_surrogates(
    tree: SketchTree,
    ann: Annotations,
    ps: PointSet,
    params: SketchParams,
    clusters: ClusterIndex,
) -> SurrogateTable:
    """Fill inv_delta / subtree-leaf flags / grid integers in ``ann`` and
    build the surrogate table.  Raises InputError when epsilon is so small
    that some node's grid bound leaves int64 (see
    :func:`~mcsketch.net.grid_bound_fits`), and GuaranteeError when a
    normalized displacement overflows 1 + delta_eff."""
    eps = params.epsilon
    t = params.t
    p = ps.p
    d = ps.d
    n_nodes = tree.n_nodes
    coords = ps.coords
    unit = net.per_coord_scale(eps, d, p)

    inv_delta = [0] * n_nodes
    for v in range(n_nodes):
        ratio = clusters.diameter[v] / math.ldexp(1.0, tree.level[v])
        inv_delta[v] = 5 + math.ceil(ratio - 1e-12)
    is_leafy = [tree.is_subtree_leaf(v) for v in range(n_nodes)]

    sh = shift_exponents(tree, t)
    dtype = shift_dtype(k_parameter(ps.spread, eps, d, p))
    grid = np.zeros((n_nodes, d), dtype=np.int64)
    shift_int = np.zeros((n_nodes, d), dtype=dtype)
    s_star = np.zeros((n_nodes, d), dtype=np.float64)

    part_root = list(range(n_nodes))
    for v in ingress_order(ann.ingress):
        u = ann.ingress[v]
        if u is None:
            s_star[v] = coords[ann.center[v]]
            continue
        part_root[v] = part_root[u]
        q = inv_delta[v]
        delta_eff = net.delta_effective(eps, is_leafy[v], q)
        if not net.grid_bound_fits(delta_eff, d, p):
            raise InputError(
                f"epsilon {eps} is too small: the grid integers of node {v} "
                "would not fit in 64 bits"
            )
        dv = coords[ann.center[v]] - s_star[u]
        es = dv / (q * math.ldexp(1.0, tree.level[v]))
        m = net.grid_indices(es, delta_eff, d, p)
        grid[v] = m
        shift_int[v] = shift_int[u] + (m.astype(dtype, copy=False) << sh[v])
        s_star[v] = s_star[part_root[v]] + shift_to_float(shift_int[v], unit)

    ann.inv_delta = inv_delta
    ann.is_subtree_leaf = is_leafy
    ann.eta_ints = grid
    return SurrogateTable(s_star=s_star, shift_int=shift_int, unit=unit)


def annotate(
    tree: SketchTree, clusters: ClusterIndex, ps: PointSet, params: SketchParams
) -> tuple[Annotations, SurrogateTable]:
    """All four passes in one call."""
    center, tau = assign_centers(tree, clusters)
    ingress = assign_ingresses(tree, tau, clusters)
    ann = Annotations(center=center, tau=tau, ingress=ingress)
    table = compute_surrogates(tree, ann, ps, params, clusters)
    return ann, table
