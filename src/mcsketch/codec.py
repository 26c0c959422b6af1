"""Bit-exact sketch serialization ("MCSK" blobs).

Layout, all multi-byte header fields little-endian:

* header: magic ``MCSK``; u16 version (8); u8 p-code (1, 2, 255 = inf;
  0 = rational p followed by u32 numerator + u32 denominator); u64 n;
  u64 d; f64 epsilon (post-snap); f64 scale; f64 spread; u8 flags (bit 1:
  landmark table present; every other bit, bit 0 included, is reserved
  and must be clear); u64 random projection seed; u64 pre-projection
  dimension (0 when no projection was applied); u64 payload bit length.

* payload, an MSB-first bit stream of columns, each holding one field per
  node (or per edge, leaf, part or landmark) in DFS preorder.  An Elias
  gamma column is split in two (``_bitio.gamma_columns``): the unary codes
  of every value's bitlen(v) - 1 (that many zeros, then a one), then every
  value's bitlen(v) - 1 low bits.

  1. tree shape as balanced parentheses, two bits per node (1 opens it,
     0 closes it);
  2. one bit per node whose parent has one child and is not the root, 1
     for a long edge (see :func:`_flagged`): a parent of two or more
     children has only short edges below it, and a root of one child
     hangs it on a long edge.  Then, when there is a long edge, the level
     gaps g of the long edges, in [2, top] for top the spread's binary
     exponent, as Rice codes of g - 2: one parameter k in 0..bitlen(top -
     2), in just enough bits for that range, the unary codes of every
     (g - 2) >> k, then every g - 2's k low bits;
  3. every leaf's point label in ceil(log2 n) bits (a node's center, its
     first child's, is the label of the first leaf at or after it);
  4. per node c that is not a part root and not its parent's first child
     (a first child's ingress is its parent), its ingress as a rank: the
     builder descends to it from a sibling of c without crossing a long
     edge, so it is one of the ``count`` nodes without short children of
     the part of c's parent v among the ids [v+1, c) and [end[c],
     end[v]), and c stores its rank among them, in id order, in
     ceil(log2 count) bits (none when count is 1); see
     :func:`_part_ranges`;
  5. the displacements of the nodes that are not part roots and whose
     grid bound B, from the tree alone (``net.tree_bounds``), is above 0
     (a part root's first child, whose bound is 0, stores none), each d
     grid integers m with |m| <= B, coded by their zigzag values z (2m for
     m >= 0, -2m-1 below) in Rice codes, in four classes: first children
     with and without short children, then every other node with and
     without.  First, per class that stores a row, its head: where its
     alphabet 0..2 B_max (B_max the largest B of its rows) has no more
     values than the class stores, one bit, set when a rank table
     follows; the table, the Elias gamma of its length A, then its A
     values in bitlen(2 B_max) bits each, the class's distinct zigzag
     values by descending count (ties to the smaller); then the class's
     Rice parameter k in bitlen(min(63, bitlen(2 B_max))) bits.  A class
     with a table codes each value's rank in it instead of the value.
     Then the unary codes of every quotient (z or rank) >> k, node by
     node; then every node's k low bits of its d codes as k bit planes of
     d bits, most significant plane first (see :func:`_rice_columns`);
  6. when flags bit 1 is set: the Elias-gamma of (landmark count L + 1),
     then the L landmark node ids in strictly ascending order,
     ceil(log2 N) bits each.  A landmark's shift is not stored: the
     landmark ``Estimator`` sums it from the steps along its ingress chain.

  Versions 1 (fields node by node), 2 (every node's center, one ingress
  flag per node), 3 (every landmark's shift, in K+2 bits per coordinate),
  4 (displacements and gamma codes in fixed or interleaved fields), 5
  (every node's precision, two Rice offsets, and ingress references into
  all nodes without short children), 6 (four 6-bit Rice parameters,
  no rank tables, rows of bound 0 stored) and 7 (a flag on every edge,
  Elias-gamma gaps, ingress ranks among the nodes of every part) are
  refused.

* trailer: u32 CRC-32 (zlib) of header plus payload bytes.  Every header
  or payload corruption is caught by the CRC at the latest; structural
  validation (leaf counts, level consistency, permutation of leaf labels,
  the long-edge rule of :func:`_chain_fault`, index ranges, padding) runs
  after it so corrupt or truncated blobs always fail loudly with
  FormatError.  The layout cannot express the other long-edge rules or
  an ingress in another part, so nothing checks them.  Ingress
  cycles are found by :func:`~mcsketch.annotate.ingress_layers`, the
  layering the builder and the estimator use, failing to reach every node;
  the decoded model keeps the layers for the ``Estimator``.

Decoding levels: the gaps give each node's level relative to the root;
all leaves must land on one common level, which is then pinned to 0, and
every short edge descends one level.  So the writer refuses a model whose
short edges descend by other steps or whose leaves are not at level 0:
its blob would decode to other levels.  The shape fixes the tree's
preorder; the decoder derives every node's parent from it and builds the
ingresses directly as one int64 array, -1 at part roots, from the parents
and the ranks.

Columns move whole.  The writer packs every field of the payload in one
pass (``_bitio.pack_fields``); the reader reads the edge flags as one
slice of bits (``read_bits``), each column of fields of one width, the
leaf labels, the gaps' low bits, a rank table's values and the landmark
ids, through one such slice (``read_fields``), each unary stream, the
gaps' or the displacements' quotients, by locating its one bits with
whole-array calls (``read_unary``), and the ingress ranks, whose widths
follow from the tree, as one run of fields (``unpack_runs``).  Only the
gaps' parameter, the four displacement class heads and the landmark
count, a single gamma code, are read field by field.  Every column's
length follows from the node count and the columns before it, and is
checked against the bits that remain before anything is allocated for
it.
"""

from __future__ import annotations

import math
import numbers
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import net
from ._bitio import (
    bit_lengths,
    bit_windows,
    gamma_columns,
    pack_fields,
    plane_bits,
    read_bits,
    read_fields,
    read_planes,
    read_unary,
    row_blocks,
    unary_bits,
    unpack_runs,
)
from .annotate import ingress_layers
from .core import (
    FormatError,
    GuaranteeError,
    InputError,
    decode_p,
    encode_p,
    k_parameter,
    snap_epsilon,
)
from .hst import SketchTree, _jump

__all__ = ["SketchModel", "SizeReport", "serialize", "deserialize", "size_report"]

MAGIC = b"MCSK"
VERSION = 8

_FLAG_LANDMARKS = 2
# the fixed header after the norm: n, d, epsilon, scale, spread, flags, random
# projection seed, pre-projection dimension, payload bit length
_TAIL = "<QQdddBQQQ"


@dataclass
class SketchModel:
    """Everything a decoder needs to answer queries; the codec's schema.

    ``ingress`` holds every node's ingress as one int64 array, -1 at part
    roots, and ``eta_ints`` every node's d grid integers as one (n_nodes, d)
    int64 array, with zero rows at part roots, which store none.  Centers
    and first children's ingresses follow from the tree (see the module
    docstring), and the blob stores neither.  ``landmarks`` is the sorted
    list of landmark node ids, or None without a landmark table.

    ``layers`` is not stored: the decoder sets it to the ingress layers
    (:func:`~mcsketch.annotate.ingress_layers`) that its cycle check
    found, so that an ``Estimator`` decoding a blob does not layer the
    ingresses again.  An ``Estimator`` handed a model layers them itself,
    as the model may have changed since it was decoded.
    """

    tree: SketchTree
    ingress: np.ndarray
    eta_ints: np.ndarray
    landmarks: list[int] | None
    p: float
    epsilon: float
    scale: float
    spread: float
    n: int
    d: int
    jl_seed: int
    jl_orig_dim: int
    layers: list | None = field(default=None, repr=False, compare=False)


@dataclass
class SizeReport:
    """Exact bit accounting of one blob; sections sum to the total.
    ``tree_shape_bits`` counts the shape and the edge flags the blob
    holds, ``long_gap_bits`` the gaps' Rice parameter and codes.
    ``precision_bits`` is always 0: the blob has stored no precision
    since version 6, and the field stays for readers of the old name."""

    total_bytes: int
    header_bytes: int
    crc_bytes: int
    tree_shape_bits: int
    long_gap_bits: int
    center_bits: int
    ingress_bits: int
    precision_bits: int
    displacement_bits: int
    landmark_bits: int
    padding_bits: int
    n: int

    @property
    def total_bits(self) -> int:
        return 8 * self.total_bytes

    @property
    def payload_bits(self) -> int:
        return (
            self.tree_shape_bits
            + self.long_gap_bits
            + self.center_bits
            + self.ingress_bits
            + self.precision_bits
            + self.displacement_bits
            + self.landmark_bits
        )

    @property
    def bits_per_point(self) -> float:
        return self.total_bits / self.n


def _pack_p(p: float) -> bytes:
    code, num, den = encode_p(p)
    out = struct.pack("<B", code)
    if code == 0:
        out += struct.pack("<II", num, den)
    return out


def serialize(model: SketchModel) -> bytes:
    """Deterministic bytes of a sketch model (see module docstring).
    GuaranteeError, with the decoder's message where it has one, for a
    model whose blob the decoder would refuse or decode differently, or
    that the layout cannot express."""
    tree = model.tree
    n_nodes = tree.n_nodes
    n, d, eps = model.n, model.d, model.epsilon
    parent = np.array(tree.parent, dtype=np.int64)
    long_edge = np.array(tree.long_edge, dtype=bool)
    fault = _part_fault(tree, parent, long_edge)
    if fault:
        raise GuaranteeError(fault)
    level = np.array(tree.level, dtype=np.int64)
    top = math.frexp(model.spread)[1]
    if level[0] > top:
        raise GuaranteeError(f"root level {level[0]} inconsistent with spread {model.spread}")
    edges = np.flatnonzero(long_edge)
    gaps = level[parent[edges]] - level[edges]
    bad = np.flatnonzero((gaps < 2) | (gaps > top))
    if bad.size:
        raise GuaranteeError(
            f"long edge into {edges[bad[0]]} has gap {gaps[bad[0]]} outside [2, {top}]"
        )
    # the blob stores no level but the long edges' gaps: the decoder lets
    # every short edge descend one level and pins the leaves to level 0
    short = np.flatnonzero(~long_edge[1:]) + 1
    drop = level[parent[short]] - level[short]
    bad = np.flatnonzero(drop != 1)
    if bad.size:
        raise GuaranteeError(
            f"short edge into {short[bad[0]]} descends {drop[bad[0]]} levels, not 1"
        )
    leaves = np.flatnonzero(tree.end == np.arange(1, n_nodes + 1))
    bad = leaves[level[leaves] != 0]
    if bad.size:
        raise GuaranteeError(f"leaf {bad[0]} is at level {level[bad[0]]}, not 0")
    ingress = model.ingress
    wrong = np.flatnonzero(tree.part_root & (ingress != -1))
    if wrong.size:
        raise GuaranteeError(f"ingress of part root {wrong[0]} is not -1")
    inner = np.flatnonzero(~tree.part_root)  # nodes with an ingress

    # shape: before node v opens, the v nodes before it in preorder have
    # opened and every node whose subtree ends at or before v has closed
    closed = np.cumsum(np.bincount(tree.end, minlength=n_nodes))[:n_nodes]
    shape = np.zeros(2 * n_nodes, dtype=np.uint8)
    shape[np.arange(n_nodes) + closed] = 1

    label = np.array(tree.leaf_label, dtype=np.int64)
    # ids are preorder, so a first child comes right after its parent
    first = parent[inner] == inner - 1
    wrong = inner[first & (ingress[inner] != parent[inner])]
    if wrong.size:
        raise GuaranteeError(f"ingress of first child {wrong[0]} is not its parent")
    later, before, count, lo, mid, at, _ = _part_ranges(tree, parent)
    u = ingress[later]
    known = (u >= 0) & (u < n_nodes)
    known[known] = ~tree.has_short[u[known]]
    if not known.all():
        raise GuaranteeError(f"ingress of node {later[~known][0]} is not short-childless")
    v, end = parent[later], tree.end
    inside = ((v < u) & (u < later)) | ((end[later] <= u) & (u < end[v]))
    if not inside.all():
        raise GuaranteeError(
            f"ingress of node {later[~inside][0]} is not under a sibling of it"
        )
    crossing = tree.part_of[u] != tree.part_of[v]
    if crossing.any():
        raise GuaranteeError(f"ingress of {later[crossing][0]} crosses a long edge")
    rank = np.where(u < later, at[u] - lo, at[u] - mid + before)
    fault, _ = _ingress_fault(tree, ingress)
    if fault:
        raise GuaranteeError(fault)

    try:
        bounds = net.tree_bounds(tree, eps, d, model.p)
        rows = np.asarray(model.eta_ints, dtype=np.int64)
    except OverflowError as exc:
        raise GuaranteeError(f"a grid integer or bound leaves int64: {exc}") from None
    try:
        displacements = _rice_columns(rows, bounds, _classes(tree, parent))
    except ValueError as exc:
        raise GuaranteeError(f"a grid integer exceeds its bound: {exc}") from exc

    cols = [  # (values, widths), in payload order
        (shape, 1),
        (long_edge[_flagged(parent)], 1),
        *_gap_columns(gaps - 2, top),
        (label[label >= 0], (n - 1).bit_length()),
        (rank, bit_lengths(count - 1)),
        *displacements,
    ]
    if model.landmarks is not None:
        try:
            ids = landmark_ids(model.landmarks, n_nodes)
        except FormatError as exc:
            raise GuaranteeError(str(exc)) from None
        cols += [*gamma_columns([ids.size + 1]), (ids, (n_nodes - 1).bit_length())]
    payload, bits = pack_fields(cols)
    flags = _FLAG_LANDMARKS if model.landmarks is not None else 0
    tail = (n, d, eps, model.scale, model.spread, flags, model.jl_seed, model.jl_orig_dim)
    body = (
        MAGIC
        + struct.pack("<H", VERSION)
        + _pack_p(model.p)
        + struct.pack(_TAIL, *tail, bits)
        + payload
    )
    return body + struct.pack("<I", zlib.crc32(body))


def _flagged(parent: np.ndarray) -> np.ndarray:
    """The nodes whose edge stores a long-edge flag, in id order: those
    whose parent has one child and is not the root.  Every other edge is
    short, but the only edge of a root with one child, which is long."""
    up = parent[1:]
    degree = np.bincount(up, minlength=parent.size)
    return 1 + np.flatnonzero((degree[up] == 1) & (up > 0))


def _gap_k_range(top: int) -> int:
    """The largest Rice parameter of the gaps below a root at most at level
    ``top``: the bit length of the largest gap - 2, top - 2, at which every
    quotient is 0."""
    return max(top - 2, 0).bit_length()


def _gap_columns(values: np.ndarray, top: int) -> list:
    """The gap section, as columns for ``pack_fields``, of the long edges'
    gaps - 2 (``values``, each in [0, top - 2]): nothing without a long
    edge; else the Rice parameter k that codes them in the fewest bits
    (the smaller on a tie), in bitlen(:func:`_gap_k_range`) bits, then the
    unary codes of every value >> k, then every value's k low bits."""
    if not values.size:
        return []
    ones = [int(np.count_nonzero(values >> j & 1)) for j in range(int(values.max()).bit_length())]
    k = _best_k(ones, values.size)[0]
    return [
        ([k], [_gap_k_range(top).bit_length()]),
        (unary_bits(values >> k), 1),
        (values & (1 << k) - 1, k),
    ]


def _part_ranges(tree, parent: np.ndarray):
    """The nodes that store an ingress rank, every later child c of its
    parent v that is not a part root, in id order, and what places the
    rank.  Its range is the nodes without short children of v's part in
    [v+1, c) and [end[c], end[v]), ``before`` of them in the first and
    ``count`` in both.  ``ranked`` lists the nodes without short children
    part by part, each part's in id order; ``at`` gives each node the
    index in ``ranked`` of the first one of its part at or after it, and
    its last entry, past the tree, the length of ``ranked``.  The ingress
    of rank r is ranked[lo + r] for r < ``before``, else ranked[mid + r -
    before]: per c, ``lo`` and ``mid`` are the indices of its two
    intervals' first nodes.

    Every child of a node with two or more children hangs on a short edge,
    so v's children, c, its next sibling end[c] (when below end[v]) and,
    unless v's subtree ends with its part root's, end[v] all lie in v's
    part.  Where v's subtree does end there, the range ends where the
    next part's nodes start in ``ranked``: at the next part root in id
    order, as parts are numbered in id order of their roots."""
    n_nodes, part_of, end = tree.n_nodes, tree.part_of, tree.end
    order = np.argsort(part_of, kind="stable")  # part by part, each in id order
    leafy = ~tree.has_short[order]
    seen = np.cumsum(leafy)
    at = np.empty(n_nodes + 1, dtype=np.int64)
    at[order] = seen - leafy
    at[n_nodes] = seen[-1]
    roots = np.append(np.flatnonzero(tree.part_root), n_nodes)
    inner = np.flatnonzero(~tree.part_root)
    later = inner[parent[inner] != inner - 1]
    v = parent[later]
    part = part_of[v]
    hi = at[np.where(end[v] < end[roots[part]], end[v], roots[part + 1])]
    mid = np.where(end[later] < end[v], at[end[later]], hi)
    lo = at[v]
    before = at[later] - lo
    return later, before, before + hi - mid, lo, mid, at, order[leafy]


def _part_fault(tree, parent: np.ndarray, long_edge: np.ndarray) -> str | None:
    """The writer's message when a long edge's top has other children, or
    the root is a bare chain node (one child, on a short edge): trees the
    layout cannot express (see :func:`_flagged`).  Else the decoder's
    message from :func:`_chain_fault`, or None."""
    top = parent[np.flatnonzero(long_edge)]
    degree = np.bincount(parent[1:], minlength=tree.n_nodes)
    bad = top[degree[top] != 1]
    if bad.size:
        return f"long-edge top {bad[0]} has degree != 1"
    if degree[0] == 1 and not long_edge[1]:
        return "root is a degree-1 chain node"
    return _chain_fault(parent, long_edge)


def _chain_fault(parent: np.ndarray, long_edge: np.ndarray) -> str | None:
    """The decoder's message when a long edge's top is itself the bottom of
    another long edge, a part root other than the root, else None: the one
    rule of a sketch tree that a balanced-parenthesis shape, flags only
    under one-child parents, gaps in [2, top], one leaf level and a label
    permutation leave open.  Without it every part root but the root hangs
    below a node that stores d fields, so the displacements bound the part
    count."""
    top = parent[np.flatnonzero(long_edge)]
    bad = top[long_edge[top]]
    return f"long-edge top {bad[0]} is a part root" if bad.size else None


def _ingress_fault(tree, ingress: np.ndarray) -> tuple[str | None, list]:
    """The decoder's message when the ingresses form a cycle, else None,
    and the ingress layers (:func:`~mcsketch.annotate.ingress_layers`).
    Every node but a part root has a node of its own part as its ingress;
    part roots count as -1, as the decoder builds them."""
    layers = ingress_layers(np.where(tree.part_root, -1, ingress))
    if sum(map(len, layers)) != tree.n_nodes:
        return "ingress references contain a cycle", layers
    return None, layers


def _classes(tree, parent: np.ndarray) -> np.ndarray:
    """Every node's Rice class, -1 at part roots, which store no
    displacement: 0 and 1 for a first child with and without short
    children, 2 and 3 for any other node with and without."""
    nodes = np.arange(tree.n_nodes)
    classes = 2 * (parent != nodes - 1) + ~tree.has_short
    classes[tree.part_root] = -1
    return classes


def _read_ingress(payload, start: int, limit: int, tree, parent: np.ndarray):
    """Every node's ingress as one int64 array, -1 at part roots, from the
    ranks written from bit ``start`` of ``payload``, and the bit after
    them.  Each rank's width follows from its range (see
    :func:`_part_ranges`), and the ranks are read as one run of fields.
    FormatError, before the ranks are read, when their bits run past bit
    ``limit``, and after, when a rank is not below its range's count."""
    later, before, count, lo, mid, _, ranked = _part_ranges(tree, parent)
    widths = bit_lengths(count - 1)
    bits = int(widths.sum())
    if bits > limit - start:
        raise FormatError(f"ingress ranks need {bits} bits, {limit - start} remain")
    rank = unpack_runs(payload, start + np.cumsum(widths) - widths, widths)
    rank = rank.astype(np.int64)
    over = np.flatnonzero(rank >= count)
    if over.size:
        i = over[0]
        raise FormatError(
            f"ingress rank {rank[i]} of node {later[i]} is not below the "
            f"{count[i]} nodes of its range"
        )
    ingress = np.where(tree.part_root, -1, parent)
    ingress[later] = ranked[np.where(rank < before, lo, mid - before) + rank]
    return ingress, start + bits


# --------------------------------------------------------------------------
# Displacements: zigzag values, or their frequency ranks, in Rice codes.


def _rice_columns(rows, bounds, classes) -> list:
    """The displacement section of int64 grid rows, as columns for
    ``pack_fields``.  Row i stores nothing when ``classes[i]`` is -1 (a
    part root) or its bound B = ``bounds[i]`` is 0 (its integers are 0);
    any other row stores its d integers m, each as its zigzag value z (2m
    for m >= 0, -2m-1 below, so |m| <= B exactly when z <= 2B) in a Rice
    code of its class's parameter k, or as the rank of z in its class's
    table.  The section holds, per class with stored rows, its head
    (:func:`_rice_parameters`): a flag bit, where the class's alphabet of
    2 B_max + 1 values is no larger than its count of values, set when a
    table follows; the table as the Elias gamma of its length A, then A
    values in bitlen(2 B_max) bits; the class's k in just enough bits for
    0..min(63, bitlen(2 B_max)).  Then the unary codes of every quotient
    (z or its rank) >> k, row by row, then every row's k remainder bits as
    bit planes (``plane_bits``).  Raises ValueError when an integer lies
    outside [-B, B]."""
    rows = np.asarray(rows)
    zero = (classes >= 0) & (bounds == 0)
    _zigzag(rows[zero], bounds[zero])  # refuses a non-zero integer there
    stored = (classes >= 0) & (bounds > 0)
    z = _zigzag(rows[stored], bounds[stored])
    cls = classes[stored]
    tops = _class_tops(bounds[stored], cls)
    ks, tables = _rice_parameters(z, cls, tops)
    # the heads as one column of (value, width) fields; a table's length A
    # in Elias gamma is A itself in 2 bitlen(A) - 1 bits
    head, ranks = [], [np.zeros(0, dtype=np.int64)]
    for c, top in enumerate(tops):
        if top is None:
            continue
        table = tables[c]
        if top < z.shape[1] * np.count_nonzero(cls == c):
            head.append((int(table is not None), 1))
        if table is not None:
            a = table.size
            head.append((a, 2 * a.bit_length() - 1))
            head += [(v, top.bit_length()) for v in table.tolist()]
            ranks.append(np.zeros(top + 1, dtype=np.int64))
            ranks[-1][table] = np.arange(a)
        head.append((int(ks[c]), _k_width(top)))
    values, widths = zip(*head) if head else ((), ())
    # a table class's values become their ranks, block by block, through
    # the classes' rank arrays laid end to end
    sizes = np.array([0 if t is None else top + 1 for t, top in zip(tables, tops)])
    offset, ranked = (np.cumsum(sizes) - sizes)[cls], (sizes > 0)[cls]
    lut = np.concatenate(ranks)
    k = ks[cls]
    shift = k.astype(np.uint64)[:, None]
    unary = []
    for r in row_blocks(*z.shape):
        v, sel = z[r].view(np.int64), ranked[r]
        if sel.all():
            v += offset[r, None]
            np.take(lut, v, out=v, mode="clip")  # every value is within its class's top
        elif sel.any():
            v[sel] = lut[v[sel] + offset[r][sel, None]]
        unary.append(unary_bits((z[r] >> shift[r]).astype(np.int64)))
    z &= (np.uint64(1) << shift) - np.uint64(1)  # the remainders, in place
    return [
        (np.array(values, dtype=np.uint64), np.array(widths, dtype=np.int64)),
        (np.concatenate(unary or [[]]), 1),
        (plane_bits(z, k), 1),
    ]


def _zigzag(rows, bounds) -> np.ndarray:
    """The zigzag values of int64 grid rows as uint64, in place of the rows
    (the map is a bijection of int64 onto uint64).  ``bounds`` are below
    2^63, so every 2B fits.  Raises ValueError unless every value of row i
    is at most 2 * bounds[i]."""
    negative = rows < 0
    z = np.abs(rows, out=rows).view(np.uint64)  # -2^63 stays 2^63
    z <<= np.uint64(1)
    z -= negative  # -2^63 wraps to 2^64 - 1, above every 2B
    top = bounds.astype(np.uint64) << np.uint64(1)
    bad = z > top[:, None]
    if bad.any():
        i, j = np.argwhere(bad)[0]
        m = -(int(z[i, j]) + 1 >> 1) if z[i, j] & 1 else int(z[i, j]) >> 1
        raise ValueError(f"grid integer {m} lies outside [-{bounds[i]}, {bounds[i]}]")
    return z


def _class_tops(bounds, classes) -> list:
    """Per class, 2 B_max, twice the largest of the (positive) bounds of
    its stored rows, as a Python int, or None for a class without one."""
    return [2 * int(np.where(classes == c, bounds, 0).max(initial=0)) or None for c in range(4)]


def _k_width(top: int) -> int:
    """Bits of a class's Rice parameter, which lies in 0..min(63,
    bitlen(top)) for values up to ``top``: the larger k code no value in
    fewer bits."""
    return min(63, top.bit_length()).bit_length()


def _rice_parameters(z, classes, tops) -> tuple[np.ndarray, list]:
    """Per class of rows, its Rice parameter k in 0..63 and its table, the
    class's distinct zigzag values by descending count, ties to the smaller
    value, or None: each by exhaustive search.  On the values the fewest
    bits, k + 1 per value plus the sum of the quotients z >> k, the smaller
    k on a tie (0 for an empty class).  A class whose alphabet, 0..2 B_max
    (``tops``), is no larger than its count of values may code the ranks
    of its values in its table instead: it does when the ranks' fewest
    Rice bits plus the table's, 2 bitlen(A) - 1 + A bitlen(2 B_max) for A
    values, are fewer than the values' fewest.  Every k from 0 up to the
    bit length of the largest value (or rank) is costed, exactly, from the
    number of values with each bit set."""
    ks = np.zeros(4, dtype=np.int64)
    tables = [None] * 4
    for c, top in enumerate(tops):
        values = z[classes == c]
        if not values.size:
            continue
        if top >= values.size:  # no table: 2 B_max + 1 values outnumber these
            bits = int(values.max()).bit_length()
            ones = [int(np.count_nonzero(values & np.uint64(1 << j))) for j in range(bits)]
            ks[c] = _best_k(ones, values.size)[0]
            continue
        counts = np.bincount(values.ravel().view(np.int64))
        k, cost = _best_k(_bit_counts(counts), values.size)
        table = np.argsort(-counts, kind="stable")[: np.count_nonzero(counts)]
        rank_k, rank_cost = _best_k(_bit_counts(counts[table]), values.size)
        a = table.size
        if rank_cost + 2 * a.bit_length() - 1 + a * top.bit_length() < cost:
            k, tables[c] = rank_k, table.astype(np.uint64)
        ks[c] = k
    return ks, tables


def _bit_counts(counts) -> list[int]:
    """Per bit j, the number of values with bit j set among values v held
    ``counts[v]`` times each, up to the bit length of the largest."""
    v = np.flatnonzero(counts)
    return (counts[v] @ (v[:, None] >> np.arange(int(v[-1]).bit_length()) & 1)).tolist()


def _best_k(ones: list[int], size: int) -> tuple[int, int]:
    """The k in 0..min(63, len(ones)) whose Rice codes of ``size`` values
    take the fewest bits, the smaller on a tie, and those bits, from the
    number ``ones[j]`` of values with bit j set: the quotients sum to
    ones[j] 2^(j - k) over the bits j >= k."""
    top = len(ones)
    costs = [
        size * (k + 1) + sum(ones[j] << j - k for j in range(k, top))
        for k in range(min(63, top) + 1)
    ]
    best = min(costs)
    return costs.index(best), best


def _read_rice(payload, start: int, limit: int, bounds, classes, d: int):
    """The rows :func:`_rice_columns` wrote from bit ``start`` of
    ``payload``, as one (len(bounds), d) int64 array with zero rows where
    ``classes`` is -1 or ``bounds`` is 0, and the bit after the section.
    The class heads are read field by field (:func:`_read_heads`), each
    stream with whole-array calls: the quotients with one ``read_unary``
    window up to the remainders, the remainders with ``read_planes``; a
    block of rows then turns its ranks into integers with one gather from
    the tables, laid end to end.  FormatError, before any (rows, d) array
    is allocated, when the rows cannot fit before bit ``limit`` (at least
    d (k + 1) bits each), and after, naming the node, when a quotient
    exceeds 2B >> k, or (A - 1) >> k for a rank (checked before it is
    shifted, where a shift could wrap), a value exceeds 2B, a rank is not
    below A or its table value exceeds the node's 2B."""
    stored = (classes >= 0) & (bounds > 0)
    cls, b = classes[stored], bounds[stored].astype(np.uint64)
    ks, tables, pos = _read_heads(payload, start, limit, b, cls, d)
    nodes = np.flatnonzero(stored)
    k = ks[cls]
    # never allocate from the header's d alone: the first node whose codes
    # cannot end before the limit is named
    ends = np.cumsum(k + 1)
    over = np.flatnonzero(ends > (limit - pos) // d)
    if over.size:
        i = over[0]
        raise FormatError(
            f"displacement of node {nodes[i]} needs at least {d * (k[i] + 1)} bits, "
            f"{limit - pos - d * (ends[i] - k[i] - 1)} remain"
        )
    # per row, the largest value the stream may hold: 2B, or A - 1 for ranks
    sizes = np.array([0 if t is None else t.size for t in tables], dtype=np.uint64)
    ranked = (sizes > 0)[cls]
    lim = np.where(ranked, sizes[cls] - np.uint64(1), b << np.uint64(1))[:, None]
    planes = d * int(k.sum())
    q, pos = read_unary(payload, pos, d * k.size, limit - planes, limit - planes - pos)
    z = q.view(np.uint64).reshape(-1, d)
    # a quotient shifted past bit 63 would wrap, so where one may, the
    # quotients above L >> k are refused before the shift; elsewhere the
    # check of the values below refuses them
    if k.size and int(q.max()).bit_length() + int(k.max()) > 64:
        bad = z > lim >> k.astype(np.uint64)[:, None]
        if bad.any():
            i, j = np.argwhere(bad)[0]
            what = "(A - 1)" if ranked[i] else "2B"
            raise FormatError(
                f"quotient {z[i, j]} of node {nodes[i]} exceeds {what} >> k = "
                f"{lim[i, 0] >> np.uint64(k[i])}"
            )
    read_planes(payload, pos, k, z)
    bad = z > lim
    if bad.any():
        i, j = np.argwhere(bad)[0]
        if ranked[i]:
            raise FormatError(
                f"rank {z[i, j]} of node {nodes[i]} is not below the {lim[i, 0] + 1} "
                f"values of class {cls[i]}'s table"
            )
        raise FormatError(
            f"zigzag value {z[i, j]} of node {nodes[i]} exceeds 2B = {lim[i, 0]}"
        )
    for c, table in enumerate(tables):
        if table is None:
            continue
        rows = np.flatnonzero(cls == c)
        top = b[rows] << np.uint64(1)
        # only a node below its class's largest B may meet a value above its 2B
        if table.max() > top.min():
            bad = table[z[rows]] > top[:, None]
            if bad.any():
                i, j = np.argwhere(bad)[0]
                raise FormatError(
                    f"table value {table[z[rows[i], j]]} of node {nodes[rows[i]]} "
                    f"exceeds 2B = {top[i]}"
                )
    # ranks become integers m with one gather per block from the tables'
    # integers, laid end to end: each class's ranks offset to its table
    lut = np.concatenate(
        [np.zeros(0, dtype=np.int64)] + [_unzigzag(t.copy()) for t in tables if t is not None]
    )
    offset = (np.cumsum(sizes) - sizes).astype(np.int64)[cls]
    m = z.view(np.int64)
    for r in row_blocks(*z.shape):
        v, sel = m[r], ranked[r]
        if sel.all():
            v += offset[r, None]
            np.take(lut, v, out=v, mode="clip")  # every rank is below its A
        else:
            ranks = v[sel] + offset[r][sel, None]
            _unzigzag(z[r])
            v[sel] = lut[ranks]
    eta = np.zeros((bounds.size, d), dtype=np.int64)
    eta[stored] = m
    return eta, pos + planes


def _unzigzag(z) -> np.ndarray:
    """The integers m of uint64 zigzag values z, as int64, in place."""
    sign = z.view(np.int64) & 1
    np.negative(sign, out=sign)  # all ones below zero, where z = 2|m| - 1
    z >>= np.uint64(1)
    z ^= sign.view(np.uint64)  # ~(|m| - 1) = m
    return z.view(np.int64)


def _read_heads(payload, start: int, limit: int, bounds, classes, d: int):
    """The class heads :func:`_rice_columns` wrote from bit ``start`` of
    ``payload`` for stored rows of ``bounds`` (all above 0) and
    ``classes``: the four Rice parameters as int64, the four tables as
    uint64 arrays or None, and the bit after them.  FormatError, naming
    the class, for a field that runs past bit ``limit``, a k above the
    class's range, or a table longer than the class's alphabet (before
    its values are read), holding a value above 2 B_max or repeating
    one."""
    ks = np.zeros(4, dtype=np.int64)
    tables = [None] * 4
    counts = np.bincount(classes, minlength=4)
    pos = start
    for c, top in enumerate(_class_tops(bounds, classes)):
        if top is None:
            continue
        flagged = top < d * int(counts[c])  # the alphabet fits the class's values
        if flagged and _field(payload, pos, 1, limit, f"table flag of class {c}"):
            tables[c], pos = _read_table(payload, pos + 1, limit, c, top)
        else:
            pos += flagged
        kw = _k_width(top)
        ks[c] = _field(payload, pos, kw, limit, f"Rice parameter of class {c}")
        pos += kw
        if ks[c] > min(63, top.bit_length()):
            raise FormatError(
                f"Rice parameter {ks[c]} of class {c} exceeds {min(63, top.bit_length())}"
            )
    return ks, tables, pos


def _read_table(payload, pos: int, limit: int, c: int, top: int):
    """Class c's table from bit ``pos`` of ``payload``, gamma(A) and then A
    values of bitlen(top) bits, as uint64, and the bit after it.
    FormatError when A exceeds the alphabet 0..top (read from at most
    bitlen(top + 1) leading zeros) or the values run past bit ``limit``,
    both before any value is read, and when a value exceeds top or comes
    twice."""
    most = (top + 1).bit_length()
    span = min(most, limit - pos)
    zeros = span - _field(payload, pos, span, limit, "").bit_length()
    if zeros == most:
        raise FormatError(
            f"table of class {c} holds at least {1 << most} values, more than its "
            f"alphabet of {top + 1}"
        )
    a = _field(payload, pos + zeros, zeros + 1, limit, f"table length of class {c}")
    pos += 2 * zeros + 1
    if a > top + 1:  # then also more than the class's values
        raise FormatError(
            f"table of class {c} holds {a} values, more than its alphabet of {top + 1}"
        )
    width = top.bit_length()
    if a * width > limit - pos:
        raise FormatError(f"table of class {c} needs {a * width} bits, {limit - pos} remain")
    table = read_fields(payload, pos, a, width)
    ordered = np.sort(table)
    if ordered[-1] > top:
        raise FormatError(f"table value {ordered[-1]} of class {c} exceeds 2 B_max = {top}")
    again = np.flatnonzero(ordered[1:] == ordered[:-1])
    if again.size:
        raise FormatError(f"table of class {c} repeats value {ordered[again[0]]}")
    return table, pos + a * width


def _field(payload, pos: int, width: int, limit: int, what: str) -> int:
    """The ``width``-bit field at bit ``pos`` of ``payload`` as an int;
    FormatError, naming ``what``, when it runs past bit ``limit``."""
    if width > limit - pos:
        raise FormatError(f"{what} needs {width} bits, {limit - pos} remain")
    last = (pos + width + 7) >> 3
    word = int.from_bytes(payload[pos >> 3 : last], "big")
    return word >> 8 * last - pos - width & (1 << width) - 1


def deserialize(data: bytes) -> SketchModel:
    model, _ = _parse(data)
    return model


def size_report(data: bytes) -> SizeReport:
    _, sizes = _parse(data)
    return sizes


def _parse(data: bytes) -> tuple[SketchModel, SizeReport]:
    if len(data) < 11:
        raise FormatError("blob truncated before the fixed header")
    if data[:4] != MAGIC:
        raise FormatError(f"bad magic {data[:4]!r}, expected {MAGIC!r}")
    (version,) = struct.unpack_from("<H", data, 4)
    if version != VERSION:
        raise FormatError(f"unsupported version {version}")
    p_code = data[6]
    off = 7
    num = den = 0
    if p_code == 0:
        if len(data) < off + 8:
            raise FormatError("blob truncated inside the rational norm field")
        num, den = struct.unpack_from("<II", data, off)
        off += 8
    p = decode_p(p_code, num, den)
    tail = struct.calcsize(_TAIL)
    if len(data) < off + tail + 4:
        raise FormatError("blob truncated inside the header")
    n, d, eps, scale, spread, flags, jl_seed, jl_orig_dim, payload_bits = (
        struct.unpack_from(_TAIL, data, off)
    )
    header_len = off + tail
    payload_len = (payload_bits + 7) // 8
    if len(data) != header_len + payload_len + 4:
        raise FormatError(
            f"length mismatch: {len(data)} bytes vs header {header_len} + "
            f"payload {payload_len} + crc 4"
        )
    (crc_stored,) = struct.unpack_from("<I", data, len(data) - 4)
    if zlib.crc32(data[:-4]) != crc_stored:
        raise FormatError("checksum mismatch (corrupt blob)")

    if flags & ~_FLAG_LANDMARKS:
        raise FormatError(f"unknown flag bits {flags:#x}")
    has_landmarks = bool(flags & _FLAG_LANDMARKS)
    if not 2 <= n < 2**40:
        raise FormatError(f"implausible point count {n}")
    if not 1 <= d < 2**32:
        raise FormatError(f"implausible dimension {d}")
    if not (math.isfinite(eps) and 0.0 < eps <= 0.5 and snap_epsilon(eps) == eps):
        raise FormatError(f"epsilon {eps} is not a power of two in (0, 1/2]")
    if not (math.isfinite(scale) and scale > 0.0):
        raise FormatError(f"implausible scale {scale}")
    if not (math.isfinite(spread) and spread >= 1.0):
        raise FormatError(f"implausible spread {spread}")
    try:
        k_parameter(spread, eps, d, p)
    except InputError as exc:
        raise FormatError(str(exc)) from None

    payload = data[header_len : header_len + payload_len]
    if payload_len:
        pad = 8 * payload_len - payload_bits
        if pad and payload[-1] & ((1 << pad) - 1):
            raise FormatError("nonzero padding bits")

    def take(bits: int, what: str) -> int:
        """Where the next ``bits`` bits start, checked against the bits that
        remain before anything is allocated for them."""
        nonlocal pos
        if bits > payload_bits - pos:
            raise FormatError(f"{what} need {bits} bits, {payload_bits - pos} remain")
        pos += bits
        return pos - bits

    def column(width: int, count: int, what: str) -> np.ndarray:
        """The next ``count`` fields of ``width`` bits."""
        return read_fields(payload, take(count * width, what), count, width)

    # 1. shape: read through windows that double until the root closes (a
    # tree of n leaves takes a few times n nodes, not the whole payload)
    for _, shape in bit_windows(payload, 0, payload_bits, 16 * n + 64):
        if not (shape.size and shape[0]):
            raise FormatError("payload does not open with the root")
        depth = np.cumsum(shape.astype(np.int64) * 2 - 1)
        closed = np.flatnonzero(depth == 0)
        if closed.size:
            break
    pos = int(closed[0]) + 1
    n_nodes = pos // 2
    shape = shape[:pos]
    opens = np.flatnonzero(shape)
    depth = depth[opens] - 1  # the root at 0
    # levels fall by at least one per edge, from the root's, at most the
    # spread's exponent, to 0 at the leaves: that bounds depth and every gap
    top = math.frexp(spread)[1]
    if depth.max() > top:
        raise FormatError(f"tree depth {depth.max()} exceeds the spread's {top} levels")
    leaves = shape[opens + 1] == 0
    # in preorder a node's parent is the last node before it one level up
    key = depth * n_nodes + np.arange(n_nodes)
    ranked = np.sort(key)
    parent = ranked[np.searchsorted(ranked, key - n_nodes) - 1] % n_nodes
    parent[0] = -1

    # 2. edges: flags only under one-child parents but the root, whose one
    # child, if it has one, hangs on a long edge; then the gaps
    flagged = _flagged(parent)
    start = take(flagged.size, "edge flags")  # one bit column
    long_edge = np.zeros(n_nodes, dtype=bool)
    long_edge[1:2] = np.count_nonzero(parent == 0) == 1
    long_edge[flagged] = read_bits(payload, start, pos).view(bool)
    fault = _chain_fault(parent, long_edge)
    if fault:
        raise FormatError(fault)
    edges = np.flatnonzero(long_edge)
    shape_bits, mark = pos, pos
    gaps = np.ones(n_nodes, dtype=np.int64)
    if edges.size:
        most = _gap_k_range(top)
        width = most.bit_length()
        k = _field(payload, pos, width, payload_bits, "gap Rice parameter")
        pos += width
        if k > most:
            raise FormatError(f"gap Rice parameter {k} exceeds {most}")
        q, pos = read_unary(payload, pos, edges.size, payload_bits)
        rest = column(k, edges.size, "gap remainders").astype(np.int64)
        gap = 2 + (q << k) + rest
        bad = np.flatnonzero(gap > top)
        if bad.size:
            raise FormatError(
                f"long edge into {edges[bad[0]]} has gap {gap[bad[0]]} above the "
                f"spread's {top} levels"
            )
        gaps[edges] = gap
    gap_bits = pos - mark

    # levels below the root's, then pin the common leaf level to 0
    _, rel = _jump(np.maximum(parent, 0), np.append(0, -gaps[1:]))
    if int(leaves.sum()) != n:
        raise FormatError(f"blob announces n={n} but has {int(leaves.sum())} leaves")
    leaf_rel = np.unique(rel[leaves])
    if leaf_rel.size != 1:
        raise FormatError("leaves do not share a common level")
    root_level = -int(leaf_rel[0])  # at least 1: n >= 2 leaves hang below the root
    if root_level > top:
        raise FormatError(
            f"root level {root_level} inconsistent with spread {spread}"
        )

    # 3. leaf labels
    labels = column((n - 1).bit_length(), n, "leaf labels")
    if (labels >= n).any():
        raise FormatError(f"leaf label {labels[labels >= n][0]} out of range")
    if not np.array_equal(np.sort(labels), np.arange(n)):
        raise FormatError("leaf labels are not a permutation of 0..n-1")
    leaf_label = np.full(n_nodes, -1, dtype=np.int64)
    leaf_label[leaves] = labels
    tree = SketchTree(
        level=(rel + root_level).tolist(),
        parent=parent.tolist(),
        long_edge=long_edge.tolist(),
        leaf_label=leaf_label.tolist(),
    )

    # 4. ingresses: a first child's is its parent, every other node's with
    # an ingress a rank within its range
    mark = pos
    ingress, pos = _read_ingress(payload, pos, payload_bits, tree, parent)
    ingress_bits = pos - mark

    # 5. displacements
    try:
        bounds = net.tree_bounds(tree, eps, d, p)
    except OverflowError as exc:
        raise FormatError(str(exc)) from None
    mark = pos
    eta_ints, pos = _read_rice(payload, pos, payload_bits, bounds, _classes(tree, parent), d)
    displacement_bits = pos - mark

    fault, layers = _ingress_fault(tree, ingress)
    if fault:
        raise FormatError(fault)

    # 6. landmarks
    landmarks = None
    mark = pos
    if has_landmarks:
        # gamma(count + 1) as two fields, as _read_table reads a length:
        # the zeros before the first one bit of the rest, then that one and
        # as many low bits.  The rest of a valid payload is just the count
        # and the ids, so one field of it all costs little
        rest = payload_bits - pos
        zeros = rest - _field(payload, pos, rest, payload_bits, "").bit_length()
        if zeros >= 63:
            raise FormatError(
                f"a gamma code announces {zeros} low bits; values stop below 2^63"
            )
        count = _field(payload, pos + zeros, zeros + 1, payload_bits, "landmark count") - 1
        pos += 2 * zeros + 1
        ids = column((n_nodes - 1).bit_length(), count, "landmark ids")
        landmarks = landmark_ids(ids, n_nodes).tolist()
    landmark_bits = pos - mark

    if pos != payload_bits:
        raise FormatError(
            f"payload length mismatch: read {pos} of {payload_bits} bits"
        )

    model = SketchModel(
        tree=tree,
        ingress=ingress,
        eta_ints=eta_ints,
        landmarks=landmarks,
        p=p,
        epsilon=eps,
        scale=scale,
        spread=spread,
        n=n,
        d=d,
        jl_seed=jl_seed,
        jl_orig_dim=jl_orig_dim,
        layers=layers,
    )
    sizes = SizeReport(
        total_bytes=len(data),
        header_bytes=header_len,
        crc_bytes=4,
        tree_shape_bits=shape_bits,
        long_gap_bits=gap_bits,
        center_bits=n * (n - 1).bit_length(),
        ingress_bits=ingress_bits,
        precision_bits=0,
        displacement_bits=displacement_bits,
        landmark_bits=landmark_bits,
        padding_bits=8 * payload_len - payload_bits,
        n=n,
    )
    return model, sizes


def landmark_ids(ids, n_nodes: int) -> np.ndarray:
    """Landmark node ids as an int64 array, for the writer, the decoder and
    a landmark-mode Estimator alike.  FormatError unless they are integers
    (a float id would be truncated to some other node) and strictly ascend
    within 0..n_nodes-1, the one order a blob holds them in; a negative id
    would index the replay's step table from its end."""
    ids = np.asarray(ids)
    if ids.dtype.kind not in "iu":
        for x in ids.ravel().tolist():
            if isinstance(x, bool) or not isinstance(x, numbers.Integral):
                raise FormatError(f"landmark node {x!r} is not an integer")
    out = ids[(ids < 0) | (ids >= n_nodes)]
    if out.size:
        raise FormatError(f"landmark node {out[0]} out of range")
    ids = ids.astype(np.int64)
    down = np.flatnonzero(ids[1:] <= ids[:-1])
    if down.size:
        raise FormatError(f"landmark node {ids[down[0] + 1]} does not ascend")
    return ids
