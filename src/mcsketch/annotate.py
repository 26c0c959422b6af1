"""Annotation passes over a compressed sketch tree.

Four passes, in dependency order:

1. centers: every node gets a representative input point, the center of
   its child 0, the child holding the smallest label; with node ids in DFS
   preorder that is the label of the first leaf at or after the node.  For
   a node v whose children hang on short edges that child is the root of
   the tau-tree: a BFS tree over the children graph that connects two
   children when their clusters come within 2^level(v), with neighbor
   lists sorted by smallest member label so the construction is
   deterministic.  The build decides each merge's tau-tree while it holds
   the merge's distances and stores its edges as tau-parent positions;
   this pass turns them into :class:`TauTree` objects.  The blob stores
   no center: the decoder derives each from the leaf labels.

2. ingresses: every node other than a part root gets a previously processed
   node whose surrogate anchors its own.  The tau-root's ingress is the
   parent; any other child v_i of v takes the closest point y of its
   tau-predecessor's cluster, which the build stores as the near label of
   that tau edge, and the deepest ancestor of leaf(y) in v's part: the
   node where a descent from the predecessor toward leaf(y) over short
   edges stops, which always has no short children.  All of these are
   found at once: from leaf(y), climb from each part's root to the top of
   the long edge above it until the part is v's.  So a node's ingress is
   its parent exactly when it is the parent's first child; the decoder
   derives those and the blob stores only the others.  The pass returns
   one int64 array with -1 at part roots, which pass 4,
   :func:`ingress_layers`, the sketch model, the codec and the estimator
   take; ``Annotations.ingress`` holds it as a list with None there.

3. precisions: inv_delta(v) = 5 + ceil(Delta(v)/2^level(v)), computed with
   a 1e-12 downward nudge so diameters that are exact multiples of the
   level scale do not round up on float dust.  They size the nets of pass
   4 only: the blob stores none, and the decoder bounds each node's grid
   integers from the tree alone (:func:`~mcsketch.net.tree_bounds`).

4. surrogates: one array operation per layer of the ingress forest (see
   :func:`ingress_layers`), from the part roots down, so every node comes
   after its ingress.  The normalized displacement
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
   decoder's estimator uses the same layers, the same exponents and the
   same conversion, so shifted surrogates and the landmark replay
   reproduce identical floats no matter how they are recomputed.

No pass reads a distance: passes 1 and 2 read the tau edges and near
labels and pass 3 the diameters that the build stores in
:class:`~mcsketch.hst.ClusterIndex`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import net
from .core import InputError, PointSet, SketchParams, k_parameter
from .hst import ClusterIndex, SketchTree, _children, _jump

__all__ = [
    "TauTree",
    "Annotations",
    "SurrogateTable",
    "assign_centers",
    "assign_ingresses",
    "ingress_layers",
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
    # (n_nodes, d) int64 grid integers, zero rows at part roots
    eta_ints: np.ndarray = field(default_factory=lambda: np.zeros((0, 0), np.int64))


@dataclass
class SurrogateTable:
    """Float surrogates plus the exact integer shifts they come from.

    ``shift_int`` is an (n_nodes, d) integer array, of the dtype
    :func:`shift_dtype` picks, whose row v holds the k with
    s*(v) - s*(part root of v) == k * unit exactly (as reals), where
    ``unit`` = eps/d^(1/p).  The builder and the estimator turn shifts into
    floats with :func:`shift_to_float`, or with the same correctly rounded
    cast, so independently recomputed surrogates agree bit for bit.
    """

    s_star: np.ndarray
    shift_int: np.ndarray
    unit: float


def shift_to_float(ks: np.ndarray, unit: float) -> np.ndarray:
    """Correctly rounded floats of an int64 or ``object`` array of integer
    shifts, times the fixed-point unit (elementwise, any shape).  One ufunc
    call: the multiply casts its input to float64 as ``astype`` does,
    rounding each int64 or Python int correctly, and makes no temporary."""
    return np.multiply(ks, unit, dtype=np.float64, casting="unsafe")


# --------------------------------------------------------------------------
# Pass 1: centers and tau-trees.


def assign_centers(
    tree: SketchTree, clusters: ClusterIndex
) -> tuple[list[int], dict[int, TauTree]]:
    """Representative point per node plus the tau-tree of every node with
    short children: a merge node's from the tau-parent positions the build
    stores in ``clusters.tau``, a one-child node's its child alone."""
    label = np.array(tree.leaf_label)
    leaves = np.flatnonzero(label >= 0)
    # node ids are DFS preorder, so the first leaf at or after v ends the
    # chain of child 0s below v
    center = label[leaves[np.searchsorted(leaves, np.arange(tree.n_nodes))]]
    end = tree.end.tolist()
    tau = {}
    for v in np.flatnonzero(tree.has_short).tolist():
        kids = _children(end, v)
        pos = clusters.tau[v] or [-1]  # None at a one-child node
        parent = {c: kids[i] if i >= 0 else None for c, i in zip(kids, pos)}
        children: dict[int, list[int]] = {c: [] for c in kids}
        for c, up in parent.items():
            if up is not None:
                children[up].append(c)
        tau[v] = TauTree(root=kids[0], parent=parent, children=children)
    return center.tolist(), tau


# --------------------------------------------------------------------------
# Pass 2: ingresses.


def assign_ingresses(tree: SketchTree, clusters: ClusterIndex) -> np.ndarray:
    """Ingress node per node as an int64 array, -1 at part roots.  A first
    child's is its parent; a later child i of v takes the deepest ancestor
    of the leaf of ``clusters.near[v][i]`` in v's part."""
    parent = np.array(tree.parent, dtype=np.int64)
    ingress = np.full(tree.n_nodes, -1, dtype=np.int64)
    kid = np.flatnonzero(~tree.part_root)  # every node on a short edge
    first = kid == parent[kid] + 1  # ids are preorder
    ingress[kid[first]] = parent[kid[first]]
    # the later children by parent, then id: the order of their near labels
    later = kid[~first]
    later = later[np.argsort(parent[later], kind="stable")]
    near = np.fromiter(
        (y for ys in clusters.near if ys for y in ys[1:]), np.int64, later.size
    )
    label = np.array(tree.leaf_label)
    leaves = np.flatnonzero(label >= 0)
    leaf = np.empty(leaves.size, dtype=np.int64)
    leaf[label[leaves]] = leaves
    # from the leaf, climb a part at a time to the long-edge top above the
    # part's root, until the part is v's
    part = tree.part_of
    top = parent[tree.part_root]  # by part
    x = leaf[near]
    want = part[parent[later]]
    i = np.flatnonzero(part[x] != want)
    while i.size:
        x[i] = top[part[x[i]]]
        i = i[part[x[i]] != want[i]]
    ingress[later] = x
    return ingress


# --------------------------------------------------------------------------
# Pass 4 walk and step, shared with the decoder's estimator.


def ingress_layers(ingress: np.ndarray) -> list[np.ndarray]:
    """Nodes reachable from a part root (ingress -1), by depth in the
    ingress forest given as an int64 array: layer k holds, in id order, the
    nodes k ingress hops below a part root.

    Depths come from pointer jumping.  A node on an ingress cycle, or below
    one, never reaches a part root and is left out, so fewer than
    ``len(ingress)`` nodes in all means the references contain a cycle.
    """
    n = len(ingress)
    root = ingress < 0
    # a node that never reaches a part root sums 2^bit_length(n) > n hops
    _, depth = _jump(np.where(root, np.arange(n), ingress), (~root).astype(np.int64))
    order = np.argsort(depth, kind="stable")
    counts = np.bincount(depth[depth < n])
    return np.split(order[: counts.sum()], np.cumsum(counts)[:-1])


def shift_exponents(tree: SketchTree, t: int) -> np.ndarray:
    """Per node v, the power of two its grid integers m scale by in its exact
    shift over its ingress, ``m << sh[v]`` in units of eps/d^(1/p).

    sh[v] = level(v), plus t = log2(1/eps) at nodes with short children,
    whose net is 1/eps times coarser.
    """
    return np.array(tree.level, dtype=np.int64) + t * tree.has_short


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
    ingress: np.ndarray,
    ps: PointSet,
    params: SketchParams,
    clusters: ClusterIndex,
) -> SurrogateTable:
    """Fill inv_delta and the grid integers in ``ann`` and build the
    surrogate table, one array operation per layer of ``ingress``, the
    forest of ``ann.ingress`` as an int64 array (-1 at part roots).  Raises
    InputError when epsilon is so small that some node's grid bound, the
    decoder's (:func:`~mcsketch.net.tree_bounds`), which no precision
    exceeds, leaves int64, and GuaranteeError when a normalized
    displacement overflows 1 + delta_eff."""
    eps = params.epsilon
    p, d = ps.p, ps.d
    n_nodes = tree.n_nodes
    unit = net.per_coord_scale(eps, d, p)
    level = np.array(tree.level, dtype=np.int64)
    ratio = np.array(clusters.diameter, dtype=np.float64) / np.ldexp(1.0, level)
    inv_delta = 5 + np.ceil(ratio - 1e-12).astype(np.int64)
    scale = np.ldexp(inv_delta, level)  # 2^level(v) / delta(v)

    try:
        net.tree_bounds(tree, eps, d, p)
    except OverflowError as exc:
        raise InputError(f"epsilon {eps} is too small: {exc}") from None
    # the scalar net helper, once per (has_short, inv_delta)
    nodes = np.flatnonzero(~tree.part_root)
    key = 2 * inv_delta[nodes] + tree.has_short[nodes]
    keys, which = np.unique(key, return_inverse=True)
    nets = [net.delta_effective(eps, not k & 1, k >> 1) for k in keys.tolist()]
    delta_eff = np.zeros(n_nodes)
    delta_eff[nodes] = np.array(nets)[which]

    sh = shift_exponents(tree, params.t)
    dtype = shift_dtype(k_parameter(ps.spread, eps, d, p))
    center = np.array(ann.center, dtype=np.int64)
    part_root = np.arange(n_nodes)
    grid = np.zeros((n_nodes, d), dtype=np.int64)
    shift_int = np.zeros((n_nodes, d), dtype=dtype)
    s_star = ps.coords[center]  # exact at the part roots, layer 0
    for layer in ingress_layers(ingress)[1:]:
        u = ingress[layer]
        es = (s_star[layer] - s_star[u]) / scale[layer, None]
        grid[layer] = m = net.grid_indices(es, delta_eff[layer], d, p)
        shift_int[layer] = shift_int[u] + (m.astype(dtype) << sh[layer, None])
        part_root[layer] = part_root[u]
        s_star[layer] = s_star[part_root[layer]] + shift_to_float(shift_int[layer], unit)

    ann.inv_delta = inv_delta.tolist()
    ann.eta_ints = grid
    return SurrogateTable(s_star=s_star, shift_int=shift_int, unit=unit)


def annotate(
    tree: SketchTree, clusters: ClusterIndex, ps: PointSet, params: SketchParams
) -> tuple[Annotations, np.ndarray, SurrogateTable]:
    """All four passes in one call.  The ingress array (-1 at part roots)
    is returned between the annotations and the table, for the sketch
    model; ``Annotations.ingress`` holds it as a list with None there."""
    center, tau = assign_centers(tree, clusters)
    ingress = assign_ingresses(tree, clusters)
    listed = [None if u < 0 else u for u in ingress.tolist()]
    ann = Annotations(center=center, tau=tau, ingress=listed)
    table = compute_surrogates(tree, ann, ingress, ps, params, clusters)
    return ann, ingress, table
