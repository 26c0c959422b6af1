"""Distance estimation from a decoded sketch, plus landmark machinery.

The estimate for a pair (x, y) is

    scale * || s(v_x) - s(v_y) ||_p

where u is the lowest common ancestor of the two leaves, v_x is the top of
the long edge nearest u on the path from u down to leaf(x) (the leaf itself
when the path has none), and s(v) is the *shifted surrogate*: the surrogate
of v minus the surrogate of its part root.  Shifted surrogates cancel the
unknown absolute positions because both anchors of a query live in the same
part as u, and they are exact integer multiples of eps/d^(1/p) per
coordinate: sums of :func:`~mcsketch.annotate.shift_step` integers down the
ingress forest, the same walk and step the builder takes.  So both
evaluation modes reproduce the builder's floats:

* ``precomputed`` materializes all shifted surrogates at load time, in
  :func:`~mcsketch.annotate.ingress_order`;
* ``landmark`` replays the ingress chain from the nearest stored anchor
  (part root or landmark) on every call, never caching, so the replay
  length per query is a measurable quantity; with a landmark table built
  for spacing K every chain is at most K hops.

Landmark selection on one part's ingress tree: repeatedly take the deepest
remaining node (smallest id on ties); stop when its depth is below K;
otherwise its K-th ingress ancestor becomes a landmark and that ancestor's
whole ingress subtree is removed.  Every selection removes at least K+1
nodes, so a part of size s yields at most ceil(s/K) landmarks and a part of
size <= K yields none.
"""

from __future__ import annotations

import math
from operator import add

import numpy as np

from . import codec, net
from .annotate import ingress_order, shift_step, shift_to_float
from .core import InputError, UnknownLabelError, k_parameter, lp_distance
from .core import _BLOCK_ELEMS, _lp_reduce

__all__ = [
    "Estimator",
    "select_landmarks",
    "select_all_landmarks",
    "k_parameter",
]

_MODES = ("precomputed", "landmark")


class Estimator:
    """Query-time view of one sketch blob (or already-decoded model)."""

    def __init__(self, blob, mode: str = "precomputed") -> None:
        if isinstance(blob, (bytes, bytearray, memoryview)):
            model = codec.deserialize(bytes(blob))
        elif isinstance(blob, codec.SketchModel):
            model = blob
        else:
            raise InputError(f"expected blob bytes or SketchModel, got {type(blob)}")
        if mode not in _MODES:
            raise InputError(f"unknown mode {mode!r}, expected one of {_MODES}")
        self.model = model
        self.mode = mode
        self.tree = model.tree
        self.n = model.n
        self.scale = model.scale
        self._p = model.p
        self._d = model.d
        self._t = int(round(-math.log2(model.epsilon)))
        self._unit = net.per_coord_scale(model.epsilon, model.d, model.p)
        self._leaf_of = self.tree.leaf_of()
        self.last_hops = 0  # ingress-chain replays in the latest call
        self.max_hops = 0  # high-water mark across all calls
        zero = (0,) * self._d
        # part roots: the nodes without an ingress
        self._known: dict[int, tuple[int, ...]] = {
            v: zero for v, u in enumerate(model.ingress) if u is None
        }
        if mode == "landmark":
            if model.landmarks is None:
                raise InputError("sketch carries no landmark table")
            self._known.update(model.landmarks)
            self._sf = None
        else:
            self._sf = self._materialize()

    # -- shifted surrogates ------------------------------------------------

    def _materialize(self) -> np.ndarray:
        model = self.model
        ints = [(0,) * self._d] * self.tree.n_nodes
        sf = np.zeros((self.tree.n_nodes, self._d), dtype=np.float64)
        for v in ingress_order(model.ingress):
            u = model.ingress[v]
            if u is not None:
                step = shift_step(self.tree, v, model.eta_ints[v], self._t)
                ints[v] = tuple(map(add, ints[u], step))
                sf[v] = shift_to_float(ints[v], self._unit)
        return sf

    def shifted_surrogate(self, v: int) -> np.ndarray:
        """s(v) = s*(v) - s*(part root of v), as float coordinates."""
        if not 0 <= v < self.tree.n_nodes:
            raise InputError(f"node id {v} out of range")
        if self.mode == "precomputed":
            return self._sf[v]
        # landmark: stateless replay, chain length <= K by construction
        chain = []
        cur = v
        while cur not in self._known:
            chain.append(cur)
            cur = self.model.ingress[cur]
        self.last_hops = len(chain)
        self.max_hops = max(self.max_hops, self.last_hops)
        acc = self._known[cur]
        for node in reversed(chain):
            step = shift_step(self.tree, node, self.model.eta_ints[node], self._t)
            acc = tuple(map(add, acc, step))
        return shift_to_float(acc, self._unit)

    # -- query paths ---------------------------------------------------------

    def _leaf(self, label: int) -> int:
        try:
            return self._leaf_of[label]
        except KeyError:
            raise UnknownLabelError(
                f"label {label} outside 0..{self.n - 1}"
            ) from None

    def _lca(self, a: int, b: int) -> int:
        level = self.tree.level
        parent = self.tree.parent
        while a != b:
            if level[a] < level[b]:
                a = parent[a]
            elif level[b] < level[a]:
                b = parent[b]
            else:
                a = parent[a]
                b = parent[b]
        return a

    def _anchor(self, leaf: int, u: int) -> int:
        """Top of the long edge nearest u on the u -> leaf path, else leaf."""
        anchor = leaf
        cur = leaf
        parent = self.tree.parent
        long_edge = self.tree.long_edge
        while cur != u:
            if long_edge[cur]:
                anchor = parent[cur]
            cur = parent[cur]
        return anchor

    def estimate(self, x: int, y: int) -> float:
        """Estimated distance between input points x and y (original units)."""
        lx = self._leaf(int(x))
        ly = self._leaf(int(y))
        if lx == ly:
            return 0.0
        u = self._lca(lx, ly)
        vx = self._anchor(lx, u)
        vy = self._anchor(ly, u)
        return self.scale * lp_distance(
            self.shifted_surrogate(vx), self.shifted_surrogate(vy), self._p
        )

    def estimate_all_pairs(self) -> np.ndarray:
        """Full n x n matrix of estimates; identical floats to estimate().

        One distance block per LCA: for every node u with two or more
        children, the cross-child leaf pairs (exactly those whose LCA is u)
        are assigned from a single vectorized reduction over the leaves'
        per-ancestor anchors.
        """
        tree = self.tree
        n = self.n
        if self.mode == "precomputed":
            sf = self._sf
        else:
            sf = np.zeros((tree.n_nodes, self._d), dtype=np.float64)
            for v in range(tree.n_nodes):
                sf[v] = self.shifted_surrogate(v)
        members = tree.leaf_labels_under()
        parent = tree.parent
        long_edge = tree.long_edge
        branching = [v for v in range(tree.n_nodes) if len(tree.children[v]) >= 2]
        anchor_at: dict[int, dict[int, int]] = {u: {} for u in branching}
        for leaf, label in (
            (v, tree.leaf_label[v]) for v in range(tree.n_nodes) if tree.is_leaf(v)
        ):
            cur = leaf
            a = leaf
            while parent[cur] != -1:
                par = parent[cur]
                if long_edge[cur]:
                    a = par
                if par in anchor_at:
                    anchor_at[par][label] = a
                cur = par
        out = np.zeros((n, n), dtype=np.float64)
        for u in branching:
            anc = anchor_at[u]
            child_labels = [members[c] for c in tree.children[u]]
            rows = [
                sf[[anc[int(x)] for x in labels]] for labels in child_labels
            ]
            # suffix concatenations so each cross-child pair is hit once;
            # the A side is chunked to cap each broadcast temp at _BLOCK_ELEMS
            suf_labels = child_labels[-1]
            suf_rows = rows[-1]
            for i in range(len(child_labels) - 2, -1, -1):
                a_labels = child_labels[i]
                a_rows = rows[i]
                chunk = max(1, _BLOCK_ELEMS // max(1, suf_rows.shape[0] * self._d))
                for s in range(0, a_rows.shape[0], chunk):
                    block = _lp_reduce(
                        a_rows[s : s + chunk][:, None, :] - suf_rows[None, :, :],
                        self._p,
                    )
                    out[np.ix_(a_labels[s : s + chunk], suf_labels)] = block
                    out[np.ix_(suf_labels, a_labels[s : s + chunk])] = block.T
                suf_labels = np.concatenate([a_labels, suf_labels])
                suf_rows = np.concatenate([rows[i], suf_rows])
        out *= self.scale
        np.fill_diagonal(out, 0.0)
        return out


# --------------------------------------------------------------------------
# Landmark selection.


def select_landmarks(
    ingress_children: dict[int, list[int]], root: int, K: int
) -> set[int]:
    """Landmarks of one part's ingress tree (see module docstring)."""
    if K < 1:
        raise InputError(f"landmark spacing must be >= 1, got {K}")
    depth = {root: 0}
    ingress_parent: dict[int, int] = {}
    order = [root]
    i = 0
    while i < len(order):
        v = order[i]
        i += 1
        for c in ingress_children.get(v, ()):
            depth[c] = depth[v] + 1
            ingress_parent[c] = v
            order.append(c)
    removed: set[int] = set()
    landmarks: set[int] = set()
    for v in sorted(depth, key=lambda v: (-depth[v], v)):
        if v in removed:
            continue
        if depth[v] < K:
            break
        anc = v
        for _ in range(K):
            anc = ingress_parent[anc]
        landmarks.add(anc)
        stack = [anc]
        while stack:
            w = stack.pop()
            if w in removed:
                continue
            removed.add(w)
            stack.extend(ingress_children.get(w, ()))
    return landmarks


def select_all_landmarks(tree, ingress, K: int) -> set[int]:
    """Union of per-part landmark selections over the whole tree; the part
    roots are the nodes without an ingress."""
    kids: dict[int, list[int]] = {}
    for v in range(tree.n_nodes):
        if ingress[v] is not None:
            kids.setdefault(ingress[v], []).append(v)
    out: set[int] = set()
    for root in (v for v in range(tree.n_nodes) if ingress[v] is None):
        out |= select_landmarks(kids, root, K)
    return out
