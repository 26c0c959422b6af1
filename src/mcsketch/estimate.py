"""Distance estimation from a decoded sketch, plus landmark machinery.

The estimate for a pair (x, y) is

    scale * || s(v_x) - s(v_y) ||_p

where u is the lowest common ancestor of the two leaves, v_x is the top of
the long edge nearest u on the path from u down to leaf(x) (the leaf itself
when the path has none), and s(v) is the *shifted surrogate*: the surrogate
of v minus the surrogate of its part root.  Shifted surrogates cancel the
unknown absolute positions because both anchors of a query live in the same
part as u, and they are exact integer multiples of eps/d^(1/p) per
coordinate: sums of steps down the ingress forest, each step a node's grid
integers (its row of the model's (n_nodes, d) int64 ``eta_ints``) shifted
left by its :func:`~mcsketch.annotate.shift_exponents` entry, the same walk
and steps the builder takes.  All steps sit in one more (n_nodes, d)
integer array, int64 or exact ints as the sketch allows (see
``Estimator._steps_of``), so both evaluation modes reproduce the builder's
floats:

* ``precomputed`` materializes all shifted surrogates at load time, one
  array operation per layer of :func:`~mcsketch.annotate.ingress_layers`;
* ``landmark`` replays the ingress chain from the nearest stored anchor
  (part root or landmark) on every call, adding the chain's step rows and
  never caching, so the replay length per query is a measurable quantity;
  with a landmark table built for spacing K every chain is at most K hops.

Landmark selection on one part's ingress tree: repeatedly take the deepest
remaining node (smallest id on ties); stop when its depth is below K;
otherwise its K-th ingress ancestor becomes a landmark and that ancestor's
whole ingress subtree is removed.  Every selection removes at least K+1
nodes, so a part of size s yields at most ceil(s/K) landmarks and a part of
size <= K yields none.
"""

from __future__ import annotations

import math

import numpy as np

from . import codec, net
from .annotate import ingress_layers, shift_dtype, shift_exponents, shift_to_float
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
        if mode == "landmark" and model.landmarks is None:
            raise InputError("sketch carries no landmark table")
        steps, layers, ing = self._steps_of(model)
        if mode == "landmark":
            zero = np.zeros(self._d, dtype=steps.dtype)
            # part roots (the nodes without an ingress) and landmarks
            self._known = {v: zero for v in layers[0]}
            self._known.update(
                (v, np.asarray(ks).astype(steps.dtype))
                for v, ks in model.landmarks.items()
            )
            self._steps = steps
            self._sf = None
        else:
            # layer by layer each row becomes its node's shift: its ingress's
            # row, one layer up, already holds the ingress's shift
            for layer in layers[1:]:
                steps[layer] += steps[ing[layer]]
            self._sf = shift_to_float(steps, self._unit)

    # -- shifted surrogates ------------------------------------------------

    def _steps_of(self, model) -> tuple[np.ndarray, list, np.ndarray]:
        """Every node's exact step over its ingress as one (n_nodes, d) array
        (zero rows at part roots), plus the ingress layers and the ingress
        of every node as an array (-1 at part roots).

        The steps are the model's grid integers ``eta_ints`` shifted left
        by :func:`~mcsketch.annotate.shift_exponents`, in a fresh array:
        the caller sums it in place, and the model is never written.

        The dtype is :func:`~mcsketch.annotate.shift_dtype`'s (int64 up to
        K+2 = 62) unless the decoded values cannot prove that every sum
        fits in int64; then it is exact ints.  Every sum the
        materialization or a replay forms is zero or a landmark shift plus
        steps along one ingress chain, and a landmark shift lies within
        +-2^61, the range of its K+2-bit field.  So int64 needs only that
        the largest |step| of each node, summed down its chain, stays
        below 2^62.  That bound is summed in floats; the room between
        2^62 + 2^61 and 2^63 absorbs their rounding.
        """
        tree = self.tree
        grid = model.eta_ints
        sh = shift_exponents(tree, self._t)
        layers = ingress_layers(model.ingress)
        ing = np.array([-1 if u is None else u for u in model.ingress], np.int64)
        kk = k_parameter(model.spread, model.epsilon, self._d, self._p)
        dtype = shift_dtype(kk)
        if dtype == np.int64:
            lo = grid.min(axis=1).astype(np.float64)
            hi = grid.max(axis=1).astype(np.float64)
            step = np.ldexp(np.maximum(hi, -lo), sh)
            reach = np.zeros(tree.n_nodes)
            for layer in layers[1:]:
                reach[layer] = reach[ing[layer]] + step[layer]
            if not reach.max() < 2.0**62:
                dtype = np.dtype(object)
        steps = grid.astype(dtype)  # the one new array; the model's stays put
        steps <<= sh[:, None]
        return steps, layers, ing

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
        if chain:
            acc = acc + self._steps[chain].sum(axis=0)
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
        # every block's differences go to this one buffer, so the loop makes
        # no block-sized temporaries and its page faults do not depend on
        # where the allocator happens to place them
        buf = np.empty(_BLOCK_ELEMS)
        for u in branching:
            anc = anchor_at[u]
            child_labels = [members[c] for c in tree.children[u]]
            rows = [
                sf[[anc[int(x)] for x in labels]] for labels in child_labels
            ]
            # suffix concatenations so each cross-child pair is hit once;
            # the A side is chunked to cap each block at _BLOCK_ELEMS
            suf_labels = child_labels[-1]
            suf_rows = rows[-1]
            for i in range(len(child_labels) - 2, -1, -1):
                a_labels = child_labels[i]
                a_rows = rows[i]
                chunk = max(1, _BLOCK_ELEMS // max(1, suf_rows.size))
                if chunk * suf_rows.size > buf.size:  # one row exceeds a block
                    buf = np.empty(chunk * suf_rows.size)
                for s in range(0, a_rows.shape[0], chunk):
                    a = a_rows[s : s + chunk]
                    diff = buf[: a.shape[0] * suf_rows.size].reshape(
                        a.shape[0], *suf_rows.shape
                    )
                    np.subtract(a[:, None, :], suf_rows[None, :, :], out=diff)
                    block = _lp_reduce(diff, self._p)
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
