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
  A stored landmark shift other than the one the layers give is refused.
  Rows shorter than ``core._SHORT_AXIS`` (any p) replay in Python ints, one
  sum per column over that column's steps as a list, and each coordinate
  is ``float(total) * unit``.  Python ints are exact and ``float(int)``
  rounds correctly, as numpy's cast does, so these are the array replay's
  floats for int64 and exact-int steps alike.  Longer rows sum the
  chain's step rows in numpy, where a Python loop per column would cost
  more.

A single query finds u and both anchors in one walk up from the two
leaves.  Its norm is ``core._lp_reduce``'s float in either mode.  Rows
shorter than ``core._SHORT_AXIS`` at p in {1, 2, inf} go to
:func:`~mcsketch.core._lp_pair`, which takes each of that reduction's
steps on Python floats and adds the terms in order, the order numpy sums
so few terms in; so a query makes no numpy call, and the precomputed mode
keeps its table as one flat list for it.  Other rows go to ``_lp_reduce``
itself.

Landmark selection on one part's ingress tree: repeatedly take the deepest
remaining node (smallest id on ties); stop when its depth is below K;
otherwise its K-th ingress ancestor becomes a landmark and that ancestor's
whole ingress subtree is removed.  Every selection removes at least K+1
nodes, so a part of size s yields at most ceil(s/K) landmarks and a part of
size <= K yields none.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from . import codec, net
from .annotate import ingress_layers, shift_dtype, shift_exponents, shift_to_float
from .core import FormatError, InputError, UnknownLabelError, k_parameter
from .core import _BLOCK_ELEMS, _SHORT_AXIS, _lp_pair, _lp_reduce, _pair_blocks

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
        # ingress hops of the latest landmark replay; an estimate makes two
        # (a same-leaf pair none), and perfbench's hop probe reads this
        self.last_hops = 0
        self.max_hops = 0  # high-water mark across all calls
        if mode == "landmark" and model.landmarks is None:
            raise InputError("sketch carries no landmark table")
        steps, layers, ing = self._steps_of(model)
        shifts = steps.copy() if mode == "landmark" else steps
        # layer by layer each row becomes its node's shift: its ingress's
        # row, one layer up, already holds the ingress's shift
        for layer in layers[1:]:
            shifts[layer] += shifts[ing[layer]]
        if mode == "landmark":
            zero = np.zeros(self._d, dtype=steps.dtype)
            # part roots (the nodes without an ingress) and landmarks; a
            # stored shift other than the sum its chain replays to would
            # answer queries the precomputed mode answers differently
            self._known = {v: zero for v in layers[0]}
            for v, ks in model.landmarks.items():
                self._known[v] = np.asarray(ks).astype(steps.dtype)
                if not np.array_equal(self._known[v], shifts[v]):
                    raise FormatError(f"landmark shift of node {v} disagrees with its chain")
            self._steps = steps
            self._sf = None
            # short rows replay in Python ints: the steps as one list per
            # column, each anchor's shift as a list
            self._cols = None
            if self._d < _SHORT_AXIS:
                self._cols = [steps[:, k].tolist() for k in range(self._d)]
                self._known = {v: ks.tolist() for v, ks in self._known.items()}
        else:
            self._sf = shift_to_float(shifts, self._unit)
            # shifted_surrogate hands out its rows; a write through one
            # would change later estimates, and split estimate_all_pairs
            # from estimate on short rows, which read a copy
            self._sf.flags.writeable = False
        # short rows at p in {1, 2, inf} take estimate's scalar path, on the
        # precomputed rows as one flat list of floats (row v at v*d:(v+1)*d)
        self._short = self._d < _SHORT_AXIS and self._p in (1.0, 2.0, math.inf)
        self._flat = None
        if self._short and self._sf is not None:
            self._flat = self._sf.ravel().tolist()

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
        """s(v) = s*(v) - s*(part root of v), as float coordinates.  A node
        id that is not an integer (Python or numpy), or not one of
        0..n_nodes-1, raises InputError.  In precomputed mode the row is a
        read-only view of the table every estimate reads.

        In landmark mode the row is replayed from v's nearest anchor up its
        ingress chain, and ``last_hops`` records the chain's length.  Rows
        shorter than ``_SHORT_AXIS`` add each column's steps to the anchor's
        shift in Python ints and take ``float(total) * unit``; longer rows
        add the chain's step rows in numpy and go through
        :func:`~mcsketch.annotate.shift_to_float`.  The sums are exact
        either way and both casts round correctly, so the floats are the
        same, and the precomputed table's.
        """
        try:
            v = operator.index(v)
        except TypeError:
            raise InputError(f"node id {v!r} is not an integer") from None
        if not 0 <= v < self.tree.n_nodes:
            raise InputError(f"node id {v} out of range")
        if self.mode == "precomputed":
            return self._sf[v]
        # landmark: stateless replay, chain length <= K by construction
        known = self._known
        ingress = self.model.ingress
        chain = []
        cur = v
        while cur not in known:
            chain.append(cur)
            cur = ingress[cur]
        self.last_hops = len(chain)
        self.max_hops = max(self.max_hops, self.last_hops)
        acc = known[cur]
        if self._cols is not None:
            unit = self._unit
            return np.array(
                [
                    float(sum(map(col.__getitem__, chain), k)) * unit
                    for k, col in zip(acc, self._cols)
                ]
            )
        if chain:
            acc = acc + self._steps[chain].sum(axis=0)
        return shift_to_float(acc, self._unit)

    # -- query paths ---------------------------------------------------------

    def _leaf(self, label) -> int:
        """The leaf of an integer label (Python or numpy); a label that is
        not an integer, or not one of 0..n-1, raises UnknownLabelError."""
        try:
            return self._leaf_of[operator.index(label)]
        except (KeyError, TypeError):
            raise UnknownLabelError(
                f"label {label!r} is not an integer in 0..{self.n - 1}"
            ) from None

    def estimate(self, x: int, y: int) -> float:
        """Estimated distance between input points x and y (original units).

        One walk climbs both leaves to their lowest common ancestor, the
        lower side first and both on a tie; each side keeps the top of the
        last long edge it crosses, the one nearest the LCA, as its anchor.
        Rows shorter than ``_SHORT_AXIS`` at p in {1, 2, inf} are reduced
        by :func:`~mcsketch.core._lp_pair` in Python floats, other rows by
        ``_lp_reduce``; both give ``_lp_reduce``'s float, so the one
        ``estimate_all_pairs`` gives the pair.  In landmark mode the two
        rows come from one ``shifted_surrogate`` call per side, which on
        short rows replays in Python ints (see there); the rows equal the
        precomputed ones, so the estimate is the precomputed mode's.
        """
        a = self._leaf(x)
        b = self._leaf(y)
        if a == b:
            return 0.0
        level = self.tree.level
        parent = self.tree.parent
        long_edge = self.tree.long_edge
        va, vb = a, b
        while a != b:
            la, lb = level[a], level[b]
            if la <= lb:
                if long_edge[a]:
                    va = parent[a]
                a = parent[a]
            if lb <= la:
                if long_edge[b]:
                    vb = parent[b]
                b = parent[b]
        if self._flat is not None:
            d = self._d
            i, j = va * d, vb * d
            return self.scale * _lp_pair(self._flat[i : i + d], self._flat[j : j + d], self._p)
        if self._sf is not None:
            ra, rb = self._sf[va], self._sf[vb]
        else:
            ra, rb = self.shifted_surrogate(va), self.shifted_surrogate(vb)
        if self._short:
            return self.scale * _lp_pair(ra.tolist(), rb.tolist(), self._p)
        return self.scale * float(_lp_reduce(ra - rb, self._p))

    def estimate_all_pairs(self) -> np.ndarray:
        """Full n x n matrix of estimates; identical floats to estimate().

        One pass over the nodes, children before parents, with the leaves
        in DFS preorder, where every node's leaves, and within them each
        child's, are one contiguous range.  ``anchor`` holds each leaf's
        anchor as seen from the node at hand: a node over a long edge sets
        that child's range to itself.  A node u with two or more children
        reduces its cross-child leaf pairs (exactly those whose LCA is u),
        each child's leaves against the later children's, from the
        anchors' shifted surrogates with the pair kernel
        :func:`~mcsketch.core._pair_blocks`: at p = inf SciPy's compiled
        Chebyshev ``cdist`` in blocks of at most ``_BLOCK_ELEMS`` entries,
        at every other p ``_lp_reduce`` over blocks of at most
        ``_BLOCK_ELEMS`` coordinate differences in one reused buffer.
        Either way each entry is the float ``lp_distance`` gives the pair
        alone, so ``estimate``'s.  Each block goes into slices of one
        ``np.empty`` matrix in leaf preorder, and its transpose across the
        diagonal.

        That matrix is then put into label order in place, so no second
        n x n array is made: its columns are permuted in strips of rows,
        then its rows in strips of columns, each strip through one
        temporary of at most ``_BLOCK_ELEMS`` entries.
        """
        tree = self.tree
        n = self.n
        if self.mode == "precomputed":
            sf = self._sf
        else:
            sf = np.zeros((tree.n_nodes, self._d), dtype=np.float64)
            for v in range(tree.n_nodes):
                sf[v] = self.shifted_surrogate(v)
        children = tree.children
        long_edge = tree.long_edge
        preorder, lo, hi = tree.leaf_ranges()
        leaves = [v for v in preorder if tree.is_leaf(v)]
        anchor = np.array(leaves, dtype=np.int64)
        out = np.empty((n, n), dtype=np.float64)
        # below p = inf every block's differences go to this one buffer, so
        # the loop makes no block-sized temporaries and its page faults do
        # not depend on where the allocator happens to place them
        buf = None if self._p == math.inf else np.empty(_BLOCK_ELEMS)
        for u in reversed(preorder):
            kids = children[u]
            for c in kids:
                if long_edge[c]:
                    anchor[lo[c] : hi[c]] = u
            if len(kids) < 2:
                continue
            rows = sf[anchor[lo[u] : hi[u]]]
            for c in kids[:-1]:
                # child c's leaves against every later child's
                a_rows = rows[lo[c] - lo[u] : hi[c] - lo[u]]
                b_rows = rows[hi[c] - lo[u] :]
                for s, block in _pair_blocks(a_rows, b_rows, self._p, buf=buf):
                    block *= self.scale
                    top = slice(lo[c] + s, lo[c] + s + block.shape[0])
                    out[top, hi[c] : hi[u]] = block
                    out[hi[c] : hi[u], top] = block.T
        np.fill_diagonal(out, 0.0)
        # out[pos[x], pos[y]] is the estimate of labels x and y
        pos = np.empty(n, dtype=np.int64)
        pos[[tree.leaf_label[v] for v in leaves]] = np.arange(n)
        strip = max(1, _BLOCK_ELEMS // n)
        for s in range(0, n, strip):
            out[s : s + strip] = out[s : s + strip, pos]
        for s in range(0, n, strip):
            out[:, s : s + strip] = out[pos, s : s + strip]
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
