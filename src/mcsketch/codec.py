"""Bit-exact sketch serialization ("MCSK" blobs).

Layout, all multi-byte header fields little-endian:

* header: magic ``MCSK``; u16 version (6); u8 p-code (1, 2, 255 = inf;
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
  2. one bit per non-root node, 1 for a long edge; then the Elias-gamma
     column of the level gaps (>= 2) of the long edges;
  3. every leaf's point label in ceil(log2 n) bits (a node's center, its
     first child's, is the label of the first leaf at or after it);
  4. per node c that is not a part root and not its parent's first child
     (a first child's ingress is its parent), its ingress as a rank: the
     builder descends to it from a sibling of c, so it is one of the
     ``count`` nodes without short children among the ids [v+1, c) and
     [end[c], end[v]) of c's parent v, and c stores its rank among them,
     in id order, in ceil(log2 count) bits (none when count is 1); see
     :func:`_reference_ranges`;
  5. the displacements of the nodes that are not part roots, each d grid
     integers m with |m| <= B, the node's grid bound from the tree alone
     (``net.tree_bounds``), coded by their zigzag values z (2m for m >= 0,
     -2m-1 below) in Rice codes: first one parameter k in 6 bits for each
     of four classes, first children with and without short children,
     then every other node with and without; then the unary codes of every
     quotient z >> k, node by node; then every node's k low bits of its d
     values as k bit planes of d bits, most significant plane first (see
     :func:`_rice_columns`);
  6. when flags bit 1 is set: the Elias-gamma of (landmark count L + 1),
     then the L landmark node ids in strictly ascending order,
     ceil(log2 N) bits each.  A landmark's shift is not stored: the
     landmark ``Estimator`` sums it from the steps along its ingress chain.

  Versions 1 (fields node by node), 2 (every node's center, one ingress
  flag per node), 3 (every landmark's shift, in K+2 bits per coordinate),
  4 (displacements and gamma codes in fixed or interleaved fields) and 5
  (every node's precision, two Rice offsets, and ingress references into
  all nodes without short children) are refused.

* trailer: u32 CRC-32 (zlib) of header plus payload bytes.  Every header
  or payload corruption is caught by the CRC at the latest; structural
  validation (leaf counts, level consistency, permutation of leaf labels,
  the long-edge rules of :func:`_part_fault`, index ranges, ingress edges
  inside their part, padding) runs after it so
  corrupt or truncated blobs always fail loudly with FormatError.  Ingress
  cycles are found by :func:`~mcsketch.annotate.ingress_layers`, the
  layering the builder and the estimator use, failing to reach every node.

Decoding levels: the gaps give each node's level relative to the root;
all leaves must land on one common level, which is then pinned to 0.
The shape fixes the tree's preorder; the decoder derives every node's
parent from it and builds the ingresses directly as one int64 array, -1
at part roots, from the parents and the ranks.

Columns move whole.  The writer packs every field of the payload in one
pass (``_bitio.pack_fields``); the reader reads each fixed-width column in
one pass (``unpack_runs``), and each unary stream, a gamma column's or
the displacements' quotients, by locating its one bits with whole-array
calls (``read_unary``), and the ingress ranks, whose widths follow from
the tree, as one run of fields (``unpack_runs``).  Every column's length
follows from the node count and the columns before it, and is checked
against the bits that remain before anything is allocated for it.
"""

from __future__ import annotations

import math
import numbers
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from . import net
from ._bitio import (
    bit_lengths,
    bit_windows,
    gamma_columns,
    pack_fields,
    plane_bits,
    read_gamma_column,
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
VERSION = 6

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


@dataclass
class SizeReport:
    """Exact bit accounting of one blob; sections sum to the total.
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
    model whose blob the decoder would refuse or decode differently."""
    tree = model.tree
    n_nodes = tree.n_nodes
    n, d, eps = model.n, model.d, model.epsilon
    parent = np.array(tree.parent, dtype=np.int64)
    long_edge = np.array(tree.long_edge, dtype=bool)
    fault = _part_fault(tree, parent, long_edge)
    if fault:
        raise GuaranteeError(fault)
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
    level = np.array(tree.level, dtype=np.int64)
    gaps = (level[parent] - level)[long_edge]

    label = np.array(tree.leaf_label, dtype=np.int64)
    # ids are preorder, so a first child comes right after its parent
    first = parent[inner] == inner - 1
    wrong = inner[first & (ingress[inner] != parent[inner])]
    if wrong.size:
        raise GuaranteeError(f"ingress of first child {wrong[0]} is not its parent")
    later, below, before, count = _reference_ranges(tree, parent)
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
    rank = below[u] - np.where(u < later, below[v + 1], below[end[later]] - before)
    fault = _ingress_fault(tree, ingress)
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
        (long_edge[1:], 1),
        *gamma_columns(gaps),
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


def _reference_ranges(tree, parent: np.ndarray):
    """The nodes that store an ingress rank, every later child c of its
    parent v that is not a part root, in id order, and what places the
    rank: ``below``, per id i (one entry longer than the tree), the number
    of nodes without short children among the ids below i; per c, the
    number ``before`` of them in [v+1, c) and the number ``count`` in
    [v+1, c) and [end[c], end[v]) together.  The ingress with rank r is
    the (r+1)-th of them in id order: the one below which ``below`` counts
    below[v+1] + r of them when r < ``before``, below[end[c]] + r -
    ``before`` otherwise."""
    inner = np.flatnonzero(~tree.part_root)
    later = inner[parent[inner] != inner - 1]
    below = np.zeros(tree.n_nodes + 1, dtype=np.int64)
    np.cumsum(~tree.has_short, out=below[1:])
    v, end = parent[later], tree.end
    before = below[later] - below[v + 1]
    return later, below, before, before + below[end[v]] - below[end[later]]


def _part_fault(tree, parent: np.ndarray, long_edge: np.ndarray) -> str | None:
    """The decoder's message when a long edge's top has other children or
    is itself a part root other than the root, or when the root is a bare
    chain node (one child, on a short edge), else None.  These are the
    rules of a sketch tree that a balanced-parenthesis shape, gaps in
    [2, top], one leaf level and a label permutation leave open.  Without
    them every part root but the root hangs below a node that stores d
    fields, so the displacements bound the part count."""
    top = parent[np.flatnonzero(long_edge)]
    degree = np.bincount(parent[1:], minlength=tree.n_nodes)
    bad = top[degree[top] != 1]
    if bad.size:
        return f"long-edge top {bad[0]} has degree != 1"
    bad = top[tree.part_root[top] & (top != 0)]
    if bad.size:
        return f"long-edge top {bad[0]} is a part root"
    if degree[0] == 1 and not long_edge[1]:
        return "root is a degree-1 chain node"
    return None


def _ingress_fault(tree, ingress: np.ndarray) -> str | None:
    """The decoder's message when an ingress crosses a long edge or the
    ingresses form a cycle, else None.  Every node but a part root has a
    node of the tree as its ingress; part roots count as -1, as the
    decoder builds them."""
    inner = np.flatnonzero(~tree.part_root)
    part_of = tree.part_of
    crossing = inner[part_of[ingress[inner]] != part_of[inner]]
    if crossing.size:
        return f"ingress of {crossing[0]} crosses a long edge"
    layers = ingress_layers(np.where(tree.part_root, -1, ingress))
    if sum(map(len, layers)) != tree.n_nodes:
        return "ingress references contain a cycle"
    return None


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
    :func:`_reference_ranges`), and the ranks are read as one run of fields.
    FormatError, before the ranks are read, when their bits run past bit
    ``limit``, and after, when a rank is not below its range's count."""
    later, below, before, count = _reference_ranges(tree, parent)
    widths = bit_lengths(count - 1)
    bits = int(widths.sum())
    if bits > limit - start:
        raise FormatError(f"ingress ranks need {bits} bits, {limit - start} remain")
    rank = unpack_runs(payload, start + np.cumsum(widths) - widths, widths, 1)[:, 0]
    rank = rank.astype(np.int64)
    over = np.flatnonzero(rank >= count)
    if over.size:
        i = over[0]
        raise FormatError(
            f"ingress rank {rank[i]} of node {later[i]} is not below the "
            f"{count[i]} nodes of its range"
        )
    # the r-th node without short children from id a on is the one at
    # index below[a] + r among all of them
    base = np.where(rank < before, below[parent[later] + 1], below[tree.end[later]] - before)
    ingress = np.where(tree.part_root, -1, parent)
    ingress[later] = np.flatnonzero(~tree.has_short)[base + rank]
    return ingress, start + bits


# --------------------------------------------------------------------------
# Displacements: zigzag values in Rice codes, in two streams.


def _rice_columns(rows, bounds, classes) -> list:
    """The displacement section of int64 grid rows, as columns for
    ``pack_fields``.  Row i stores nothing when ``classes[i]`` is -1 (a
    part root); any other row stores its d integers m, each as its zigzag
    value z (2m for m >= 0, -2m-1 below, so |m| <= B exactly when z <= 2B,
    B = ``bounds[i]``) in a Rice code of its class's parameter k.  The
    section holds the four classes' k in 6 bits each
    (:func:`_rice_parameters`), then the unary codes of every quotient
    z >> k, row by row, then every row's k remainder bits as bit planes
    (``plane_bits``).  Raises ValueError when an integer lies outside
    [-B, B]."""
    stored = classes >= 0
    z = _zigzag(np.asarray(rows)[stored], bounds[stored])
    ks = _rice_parameters(z, classes[stored])
    k = ks[classes[stored]]
    shift = k.astype(np.uint64)[:, None]
    unary = [unary_bits((z[r] >> shift[r]).astype(np.int64)) for r in row_blocks(*z.shape)]
    z &= (np.uint64(1) << shift) - np.uint64(1)  # the remainders, in place
    return [(ks, 6), (np.concatenate(unary or [[]]), 1), (plane_bits(z, k), 1)]


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


def _rice_parameters(z, classes) -> np.ndarray:
    """The Rice parameter k in 0..63 of each of the four classes of rows,
    each by exhaustive search: the fewest bits, k + 1 per value plus the
    sum of the quotients z >> k, the smaller k on a tie (0 for an empty
    class).  Every k from 0 up to the bit length of the class's largest
    value is costed, exactly, from the number of values with each bit
    set: the quotients sum to ones[j] 2^(j - k) over the bits j >= k."""
    ks = np.zeros(4, dtype=np.int64)
    for c in range(4):
        values = z[classes == c]
        if not values.size:
            continue
        top = int(values.max()).bit_length()
        ones = [int(np.count_nonzero(values & np.uint64(1 << j))) for j in range(top)]
        costs = [
            values.size * (k + 1) + sum(ones[j] << j - k for j in range(k, top))
            for k in range(min(63, top) + 1)
        ]
        ks[c] = costs.index(min(costs))
    return ks


def _read_rice(payload, start: int, limit: int, bounds, classes, d: int):
    """The rows :func:`_rice_columns` wrote from bit ``start`` of
    ``payload``, as one (len(bounds), d) int64 array with zero rows where
    ``classes`` is -1, and the bit after the section.  Each stream is read
    with whole-array calls: the quotients with one ``read_unary`` window up
    to the remainders, the remainders with ``read_planes``.  FormatError,
    before any (rows, d) array is allocated, when the rows cannot fit
    before bit ``limit`` (at least d (k + 1) bits each), and after, when a
    quotient exceeds 2B >> k (checked before it is shifted) or a value
    exceeds 2B."""
    if limit - start < 24:
        raise FormatError(f"Rice parameters need 24 bits, {limit - start} remain")
    word = int.from_bytes(payload[start >> 3 : (start >> 3) + 4].ljust(4, b"\0"), "big")
    word >>= 8 - (start & 7)
    ks = np.array([word >> 18 - 6 * i & 63 for i in range(4)], dtype=np.int64)
    pos = start + 24
    stored = classes >= 0
    k = np.where(stored, ks[classes], 0)
    # never allocate from the header's d alone: the first node whose codes
    # cannot end before the limit is named
    ends = np.cumsum(np.where(stored, k + 1, 0))
    over = np.flatnonzero(ends > (limit - pos) // d)
    if over.size:
        v = over[0]
        raise FormatError(
            f"displacement of node {v} needs at least {d * (k[v] + 1)} bits, "
            f"{limit - pos - d * (ends[v] - k[v] - 1)} remain"
        )
    k, b = k[stored], bounds[stored].astype(np.uint64)
    planes = d * int(k.sum())
    q, pos = read_unary(payload, pos, d * k.size, limit - planes, limit - planes - pos)
    z = q.view(np.uint64).reshape(-1, d)
    top = (b << np.uint64(1))[:, None]
    bad = z > top >> k.astype(np.uint64)[:, None]
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise FormatError(
            f"quotient {z[i, j]} of node {np.flatnonzero(stored)[i]} exceeds "
            f"2B >> k = {top[i, 0] >> np.uint64(k[i])}"
        )
    read_planes(payload, pos, k, z)
    bad = z > top
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise FormatError(
            f"zigzag value {z[i, j]} of node {np.flatnonzero(stored)[i]} exceeds 2B = {top[i, 0]}"
        )
    for r in row_blocks(*z.shape):
        sign = z[r].view(np.int64) & 1
        np.negative(sign, out=sign)  # all ones below zero, where z = 2|m| - 1
        z[r] >>= np.uint64(1)
        z[r] ^= sign.view(np.uint64)  # ~(|m| - 1) = m
    m = z.view(np.int64)
    eta = np.zeros((bounds.size, d), dtype=np.int64)
    eta[stored] = m
    return eta, pos + planes


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

    def column(width: int, count: int, what: str) -> np.ndarray:
        """The next ``count`` fields of ``width`` bits, checked against the
        bits that remain before allocating."""
        nonlocal pos
        bits = count * width
        if bits > payload_bits - pos:
            raise FormatError(f"{what} need {bits} bits, {payload_bits - pos} remain")
        pos += bits
        return unpack_runs(payload, [pos - bits], [width], count)[0]

    def gammas(count: int) -> tuple[np.ndarray, int]:
        nonlocal pos
        start = pos
        values, pos = read_gamma_column(payload, pos, count, payload_bits)
        return values, pos - start

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

    # 2. edges
    long_edge = np.append(False, column(1, n_nodes - 1, "edge flags") == 1)
    gap_values, gap_bits = gammas(int(long_edge.sum()))
    bad = np.flatnonzero((gap_values < 2) | (gap_values > top))
    if bad.size:
        v = np.flatnonzero(long_edge)[bad[0]]
        raise FormatError(
            f"long edge into {v} has gap {gap_values[bad[0]]} outside [2, {top}]"
        )
    gaps = np.ones(n_nodes, dtype=np.int64)
    gaps[long_edge] = gap_values

    # levels below the root's, then pin the common leaf level to 0
    _, rel = _jump(np.maximum(parent, 0), np.append(0, -gaps[1:]))
    if int(leaves.sum()) != n:
        raise FormatError(f"blob announces n={n} but has {int(leaves.sum())} leaves")
    leaf_rel = np.unique(rel[leaves])
    if leaf_rel.size != 1:
        raise FormatError("leaves do not share a common level")
    root_level = -int(leaf_rel[0])
    if root_level < 1 or root_level > top:
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

    # before any (n_nodes, d) array: a valid shape makes every part root but
    # the root hang below a node that stores d fields
    fault = _part_fault(tree, parent, long_edge)
    if fault:
        raise FormatError(fault)

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

    fault = _ingress_fault(tree, ingress)
    if fault:
        raise FormatError(fault)

    # 6. landmarks
    landmarks = None
    mark = pos
    if has_landmarks:
        count = int(gammas(1)[0][0]) - 1  # below 2^63: a wider code is refused
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
    )
    sizes = SizeReport(
        total_bytes=len(data),
        header_bytes=header_len,
        crc_bytes=4,
        tree_shape_bits=3 * n_nodes - 1,
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
