"""Distance estimation from a decoded sketch, plus landmark machinery.

The estimate for a pair (x, y) is

    scale * || s(v_x) - s(v_y) ||_p

where u is the lowest common ancestor of the two leaves, v_x is the top of
the long edge nearest u on the path from u down to leaf(x) (the leaf itself
when the path has none), and s(v) is the *shifted surrogate*: the surrogate
of v minus the surrogate of its part root.  Shifted surrogates cancel the
unknown absolute positions because both anchors of a query live in the same
part as u, and they are exact integer multiples of eps/d^(1/p) per
coordinate: sums of steps down the ingress forest (the model's int64
``ingress``, -1 at part roots), each step a node's grid integers (its row
of the model's (n_nodes, d) int64 ``eta_ints``) shifted left by its
:func:`~mcsketch.annotate.shift_exponents` entry, as the builder takes
them.  All steps sit in one more (n_nodes, d) integer array, int64 or
exact ints as the sketch allows (see ``Estimator._steps_of``), so both
evaluation modes reproduce the builder's floats:

* ``precomputed`` materializes all shifted surrogates at load time, one
  array operation per layer of :func:`~mcsketch.annotate.ingress_layers`;
* ``landmark`` replays the ingress chain from the nearest anchor (part
  root or landmark) on every call, never caching, so the replay length
  per query is a measurable quantity; with a landmark table built for
  spacing K every chain is at most K hops.  The table holds only node ids,
  and landmark ids that do not strictly ascend within the node range are
  refused.  The anchors' shifts are folded into the step array: a part
  root's row is zero already, and each landmark's row, which no replay
  reads as a step because a walk stops at its first anchor, is
  overwritten with its shift, taken from the same layer sums the
  precomputed mode materializes.  A replay is then the sum of the rows of
  its chain and its anchor.  Rows shorter than
  ``core._SHORT_AXIS`` (any p) take that sum in Python ints, one per
  column over that column's entries as a list, and each coordinate is
  ``float(total) * unit``.  Python ints are exact and ``float(int)``
  rounds correctly, as numpy's cast does, so these are the array replay's
  floats for int64 and exact-int steps alike.  Longer rows, where a
  Python loop per column would cost more, make one gather of the rows,
  one sum and one cast-and-scale in numpy.

A single query finds u and both anchors in one walk up from the two
leaves.  Its norm is ``core._lp_reduce``'s float in either mode.  Rows
shorter than ``core._SHORT_AXIS`` at p in {1, 2, inf} go to
:func:`~mcsketch.core._lp_pair`, which takes each of that reduction's
steps on Python floats and adds the terms in order, the order numpy sums
so few terms in; so a query makes no numpy call, and the precomputed mode
keeps its table as one flat list for it.  Other rows go to ``_lp_reduce``
itself.

Landmark selection is one pass over the ingress layers, from the deepest
up.  Each node's ``reach`` is the depth below it of its deepest ingress
descendant that no landmark covers, 0 at a node with none.  A node whose
reach is K becomes a landmark and reports nothing; every other node reports
reach + 1 to its ingress, which keeps the largest report.  So a node
becomes a landmark exactly when an uncovered node sits K hops below it,
and every node lies within K hops of its nearest anchor.  This is the
greedy that repeatedly takes the deepest node left, makes its K-th ingress
ancestor a landmark and removes that ancestor's ingress subtree: within
one depth the uncovered nodes pick distinct K-th ancestors in any order.
Every landmark covers at least K+1 nodes, so a part of s nodes yields at
most ceil(s/K) landmarks and a part of at most K nodes none.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from . import codec, net
from .annotate import ingress_layers, shift_dtype, shift_exponents, shift_to_float
from .core import FormatError, InputError, UnknownLabelError, k_parameter
from .core import _BLOCK_ELEMS, _SHORT_AXIS, _lp_pair, _lp_reduce, _pair_blocks, _permute_in_place
from .hst import _children

__all__ = [
    "Estimator",
    "estimate_bound",
    "select_all_landmarks",
]

_MODES = ("precomputed", "landmark")

# estimate_all_pairs batches a child's rectangle of pairs that holds at most
# this many coordinate differences instead of giving it a pair-kernel call.
# In-process on a 2-vCPU host, a kernel call cost about 30 us before its
# first pair at d = 2, p = 1 (10 us for cdist at d = 400), and a batched
# pair about 20 ns more per coordinate difference than a blocked one (3 ns
# at d = 400): even near 1,500 differences at d = 2 and 3,000 at d = 400.
# The all-pairs time of the benchmark's three instances was level from
# 1,024 to 8,192; at 32,768 the d = 400 one was 20% slower.
_SMALL_BLOCK = 2048


class Estimator:
    """Query-time view of one sketch blob (or already-decoded model)."""

    def __init__(self, blob, mode: str = "precomputed") -> None:
        if isinstance(blob, (bytes, bytearray, memoryview)):
            model = codec.deserialize(bytes(blob))
            layers = model.layers  # the decoder's, of a model no one else holds
        elif isinstance(blob, codec.SketchModel):
            model, layers = blob, None
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
        steps, layers = self._steps_of(model, layers)
        shifts = steps.copy() if mode == "landmark" else steps
        # layer by layer each row becomes its node's shift: its ingress's
        # row, one layer up, already holds the ingress's shift
        for layer in layers[1:]:
            shifts[layer] += shifts[model.ingress[layer]]
        if not math.isfinite(estimate_bound(shifts, self._unit, self.scale, self._d, self._p)):
            raise FormatError(f"every estimate at scale {self.scale} may overflow")
        if mode == "landmark":
            # the anchors are the part roots (the nodes without an ingress),
            # whose step rows are zero, and the landmarks, whose step rows
            # no replay reads, as a walk stops at its first anchor: each
            # landmark's row takes its shift, so a replay sums the rows of
            # its chain and its anchor
            marks = codec.landmark_ids(model.landmarks, self.tree.n_nodes)
            steps[marks] = shifts[marks]
            self._known = {*layers[0].tolist(), *marks.tolist()}
            self._steps = steps
            self._ingress = model.ingress.tolist()  # the replay walks Python ints
            self._sf = None
            # short rows replay in Python ints, the table as one list per column
            self._cols = None
            if self._d < _SHORT_AXIS:
                self._cols = [steps[:, k].tolist() for k in range(self._d)]
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

    def _steps_of(self, model, layers) -> tuple[np.ndarray, list]:
        """Every node's exact step over its ingress as one (n_nodes, d) array
        (zero rows at part roots), plus the ingress layers: ``layers`` when
        the decoder gave them, else layered here.  FormatError when these
        leave out a node, so the ingress references contain a cycle, which
        a landmark replay would walk for ever.

        The steps are the model's grid integers ``eta_ints`` shifted left
        by :func:`~mcsketch.annotate.shift_exponents`, in a fresh array:
        the caller sums it in place or folds the landmark shifts into it,
        and the model is never written.

        The dtype is :func:`~mcsketch.annotate.shift_dtype`'s (int64 up to
        K+2 = 62) unless the decoded values cannot prove that every sum
        fits in int64; then it is exact ints.  Every sum the
        materialization or a replay forms, in any order, is a sum of some
        of the steps along one ingress chain: a landmark's folded shift is
        the sum of the steps above it.  So int64 needs only that the
        largest |step| of each node, summed down its chain, stays below
        2^62.  That bound is summed in floats; the room between 2^62 and
        2^63 absorbs their rounding.
        """
        tree = self.tree
        grid = model.eta_ints
        sh = shift_exponents(tree, self._t)
        if layers is None:  # a model handed over, not checked by the decoder
            layers = ingress_layers(model.ingress)
            if sum(map(len, layers)) != tree.n_nodes:
                raise FormatError("ingress references contain a cycle")
        kk = k_parameter(model.spread, model.epsilon, self._d, self._p)
        dtype = shift_dtype(kk)
        if dtype == np.int64:
            lo = grid.min(axis=1).astype(np.float64)
            hi = grid.max(axis=1).astype(np.float64)
            step = np.ldexp(np.maximum(hi, -lo), sh)
            reach = np.zeros(tree.n_nodes)
            for layer in layers[1:]:
                reach[layer] = reach[model.ingress[layer]] + step[layer]
            if not reach.max() < 2.0**62:
                dtype = np.dtype(object)
        steps = grid.astype(dtype)  # the one new array; the model's stays put
        steps <<= sh[:, None]
        return steps, layers

    def shifted_surrogate(self, v: int) -> np.ndarray:
        """s(v) = s*(v) - s*(part root of v), as float coordinates.  A node
        id that is not an integer (Python or numpy), or not one of
        0..n_nodes-1, raises InputError.  In precomputed mode the row is a
        read-only view of the table every estimate reads.

        In landmark mode the row is replayed from v's nearest anchor up its
        ingress chain, and ``last_hops`` records the chain's length, the
        anchor not counted.  The replay sums the step table's rows of the
        chain and of the anchor, whose row holds its shift.  Rows shorter
        than ``_SHORT_AXIS`` sum each column in Python ints and take
        ``float(total) * unit``; longer rows gather the rows with one
        ``take``, sum them with one ``np.add.reduce`` and go through
        :func:`~mcsketch.annotate.shift_to_float`.  The sums are exact
        either way and both casts round correctly, so the floats are the
        same, and the precomputed table's.  The row is a fresh array.
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
        ingress = self._ingress
        chain = []
        cur = v
        while cur not in known:
            chain.append(cur)
            cur = ingress[cur]
        self.last_hops = len(chain)
        self.max_hops = max(self.max_hops, self.last_hops)
        chain.append(cur)  # the anchor's row holds its shift
        if self._cols is not None:
            unit = self._unit
            return np.array([float(sum(map(col.__getitem__, chain))) * unit for col in self._cols])
        return shift_to_float(np.add.reduce(self._steps.take(chain, axis=0)), self._unit)

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
        precomputed ones, so the estimate is the precomputed mode's.  On
        longer rows the difference is taken in place in the first side's
        replayed row.
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
            diff = self._sf[va] - self._sf[vb]
        else:
            diff = self.shifted_surrogate(va)
            rb = self.shifted_surrogate(vb)
            if self._short:
                return self.scale * _lp_pair(diff.tolist(), rb.tolist(), self._p)
            diff -= rb  # a replayed row is a fresh array
        return self.scale * float(_lp_reduce(diff, self._p))

    def estimate_all_pairs(self) -> np.ndarray:
        """Full n x n matrix of estimates; identical floats to estimate().

        One pass over the nodes, children before parents, with the leaves
        in DFS preorder, where every node's leaves, and within them each
        child's, are one contiguous range.  ``anchor`` holds each leaf's
        anchor as seen from the node at hand: a node over a long edge sets
        that child's range to itself.  A node u with two or more children
        owns its cross-child leaf pairs (exactly those whose LCA is u),
        one rectangle per child: the child's leaves against the later
        children's.

        A rectangle of more than ``_SMALL_BLOCK`` coordinate differences is
        reduced at once from the anchors' shifted surrogates by the pair
        kernel :func:`~mcsketch.core._pair_blocks`: at p = inf SciPy's
        compiled Chebyshev ``cdist`` in blocks of at most ``_BLOCK_ELEMS``
        entries, at every other p blocks of at most ``_BLOCK_ELEMS``
        coordinate differences in one reused buffer, coordinate-major on
        rows shorter than ``core._SHORT_AXIS``.  For a smaller one the pass
        only records the rectangle and, once per merge, copies out the
        merge's slice of ``anchor`` as it stands; after the pass
        :meth:`_small_pairs` expands the recorded pairs with array code and
        reduces them in chunks with ``core._lp_reduce`` (at p = inf a row
        max).  Either way each entry is the float ``lp_distance`` gives the
        pair alone, so ``estimate``'s.  Every result goes into one
        ``np.empty`` matrix in leaf preorder, and across the diagonal.

        That matrix is then put into label order in place by
        :func:`~mcsketch.core._permute_in_place`, so no second n x n array
        is made.
        """
        tree = self.tree
        n, d, p = self.n, self._d, self._p
        if self.mode == "precomputed":
            sf = self._sf
        else:
            sf = np.zeros((tree.n_nodes, d), dtype=np.float64)
            for v in range(tree.n_nodes):
                sf[v] = self.shifted_surrogate(v)
        end = tree.end.tolist()
        long_edge = tree.long_edge
        lo, hi = tree.leaf_ranges()
        label = np.array(tree.leaf_label)
        anchor = np.flatnonzero(label >= 0)  # the leaves, in preorder
        out = np.empty((n, n), dtype=np.float64)
        # below p = inf every block's differences go to this one buffer, so
        # the loop makes no block-sized temporaries and its page faults do
        # not depend on where the allocator happens to place them
        buf = None if p == math.inf else np.empty(_BLOCK_ELEMS)
        # small rectangles: their merges' anchor slices, ``held`` entries so
        # far, and per rectangle (first row, rows, first column, columns,
        # start of its merge's slice in them less the merge's first leaf)
        snaps, rects, held = [], [], 0
        for u in np.flatnonzero(label < 0)[::-1].tolist():
            kids = _children(end, u)
            for c in kids:
                if long_edge[c]:
                    anchor[lo[c] : hi[c]] = u
            if len(kids) < 2:
                continue
            # child c's leaves against every later child's
            large = []
            for c in kids[:-1]:
                h, w = hi[c] - lo[c], hi[u] - hi[c]
                if h * w * d <= _SMALL_BLOCK:
                    rects.append((lo[c], h, hi[c], w, held - lo[u]))
                else:
                    large.append(c)
            if len(large) < len(kids) - 1:
                snaps.append(anchor[lo[u] : hi[u]].copy())
                held += hi[u] - lo[u]
            if not large:
                continue
            rows = sf.take(anchor[lo[u] : hi[u]], axis=0)
            for c in large:
                a_rows = rows[lo[c] - lo[u] : hi[c] - lo[u]]
                b_rows = rows[hi[c] - lo[u] :]
                for s, block in _pair_blocks(a_rows, b_rows, p, buf=buf):
                    block *= self.scale
                    top = slice(lo[c] + s, lo[c] + s + block.shape[0])
                    out[top, hi[c] : hi[u]] = block
                    out[hi[c] : hi[u], top] = block.T
        buf = None  # the batch below makes its own, smaller arrays
        if rects:
            self._small_pairs(out, sf, np.concatenate(snaps), np.array(rects))
        np.fill_diagonal(out, 0.0)
        # out[pos[x], pos[y]] is the estimate of labels x and y
        pos = np.empty(n, dtype=np.int64)
        pos[label[label >= 0]] = np.arange(n)
        _permute_in_place(out, pos)
        return out

    def _small_pairs(self, out, sf, held, rects) -> None:
        """Write the pairs of the recorded small rectangles into ``out``
        and across its diagonal.  ``held`` is the recorded anchor slices
        end to end; each row of ``rects`` is one rectangle: its first row,
        rows, first column and columns, and the offset into ``held`` of its
        merge's first leaf, less that leaf.

        The rectangles are split into one record per row, and the pairs
        are expanded and reduced in chunks of whole records, each reduced
        by ``_lp_reduce``.  A chunk of P pairs holds P x d differences and
        about eight arrays of P indices, so it takes at most
        ``_BLOCK_ELEMS // (d + 8)`` pairs, or one record that alone holds
        more.
        """
        r0, h, c0, w, off = rects.T
        rid = np.repeat(np.arange(len(rects)), h)
        # per record: its leaf, columns, first column, offset into held
        x = np.arange(len(rid)) - np.repeat(np.cumsum(h) - h - r0, h)
        k, c0, off = w.take(rid), c0.take(rid), off.take(rid)
        ax = held.take(x + off)  # the anchor of each record's leaf
        end = np.cumsum(k)  # pairs up to and including each record
        step = max(1, _BLOCK_ELEMS // (self._d + 8))
        a = 0
        while a < len(k):
            b = max(a + 1, int(np.searchsorted(end, end[a] - k[a] + step, side="right")))
            kk = k[a:b]
            first = end[a:b] - kk  # number of each record's first pair
            i = np.repeat(x[a:b], kk)
            j = np.arange(first[0], end[b - 1]) - np.repeat(first - c0[a:b], kk)
            diff = sf.take(np.repeat(ax[a:b], kk), axis=0)
            diff -= sf.take(held.take(j + np.repeat(off[a:b], kk)), axis=0)
            vals = _lp_reduce(diff, self._p)
            vals *= self.scale
            out[i, j] = vals
            out[j, i] = vals
            a = b


def estimate_bound(shifts: np.ndarray, unit: float, scale: float, d: int, p: float) -> float:
    """4 max(1, scale) d^(1/p) M, where M is the largest coordinate, in
    absolute value, of the shifted surrogates whose exact shifts (int64 or
    exact ints) in units of ``unit`` are ``shifts``; inf when it overflows.
    An estimate is scale times the lp norm of the difference of two such
    rows, whose coordinates are at most 2M, so while this is finite
    neither an estimate nor any step of its reduction, a norm of at most
    2 d^(1/p) M before the scale, overflows.  The Estimator refuses a
    model where it is not finite, and the builder an input."""
    top = max(int(shifts.max()), -int(shifts.min()))
    try:
        return 4.0 * max(1.0, scale) * d ** (1.0 / p) * (float(top) * unit)
    except OverflowError:  # float(top) itself
        return math.inf


# --------------------------------------------------------------------------
# Landmark selection.


def select_all_landmarks(ingress: np.ndarray, K: int) -> list[int]:
    """Landmark ids, ascending, of the ingress forest given as an int64
    array (-1 at part roots), in one pass over its layers from the deepest
    up (see the module docstring)."""
    if K < 1:
        raise InputError(f"landmark spacing must be >= 1, got {K}")
    # depth below each node of its deepest ingress descendant no landmark covers
    reach = np.zeros(len(ingress), dtype=np.int64)
    for layer in ingress_layers(ingress)[:0:-1]:
        below = reach[layer]
        open_ = below < K  # a node at K is a landmark and reports nothing
        np.maximum.at(reach, ingress[layer[open_]], below[open_] + 1)
    return np.flatnonzero(reach >= K).tolist()
