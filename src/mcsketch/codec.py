"""Bit-exact sketch serialization ("MCSK" blobs).

Layout, all multi-byte header fields little-endian:

* header: magic ``MCSK``; u16 version (1); u8 p-code (1, 2, 255 = inf;
  0 = rational p followed by u32 numerator + u32 denominator); u64 n;
  u64 d; f64 epsilon (post-snap); f64 scale; f64 spread; u8 flags (bit 1:
  landmark table present; every other bit, bit 0 included, is reserved
  and must be clear); u64 random
  projection seed; u64 pre-projection dimension (0 when no projection was
  applied); u64 payload bit length.

* payload, an MSB-first bit stream of four sections:

  1. tree shape as balanced parentheses, two bits per node, DFS preorder;
  2. per non-root node in preorder: one bit short/long, long edges
     followed by the Elias-gamma coded level gap (>= 2);
  3. per node in preorder: center label in ceil(log2 n) bits; for nodes
     that are not part roots, the ingress as one flag bit (0 = parent,
     1 = reference into the preorder enumeration of nodes without short
     children, in ceil(log2 L) bits); Elias-gamma of inv_delta - 4; and,
     again for non-part-roots, the displacement as d grid integers, each
     biased by the node's grid bound B and written in ceil(log2(2B+1))
     bits (see ``net``);
  4. when flags bit 1 is set, per decomposition part in preorder-of-roots:
     Elias-gamma of (landmark count + 1), then per landmark its node id in
     ceil(log2 N) bits and d exact surrogate-shift integers, biased, in
     K+2 bits each where K is the landmark spacing parameter.

* trailer: u32 CRC-32 (zlib) of header plus payload bytes.  Every header
  or payload corruption is caught by the CRC at the latest; structural
  validation (leaf counts, level consistency, permutation of leaf labels,
  every internal node's center equal to its first child's, index ranges,
  ingress edges inside their part, padding) runs after it so corrupt or
  truncated blobs always fail loudly with FormatError.  Ingress cycles are
  found by :func:`~mcsketch.annotate.ingress_order`, the walk the builder
  and the estimator take, failing to reach every node.

Decoding levels: the gaps give each node's level relative to the root;
all leaves must land on one common level, which is then pinned to 0.

The d fixed-width fields of a displacement or a landmark shift form one
run.  The writer packs every run of one width in one numpy pass and writes
it as a single integer; the reader steps over the runs while it parses and
then reads all of them in one pass (``_bitio.pack_runs`` and
``unpack_runs``).  Fields wider than 64 bits, which only landmark shifts of
spreads beyond about 2^60 need, go through exact Python integers.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from . import net
from ._bitio import BitReader, BitWriter, pack_runs, unpack_runs
from .annotate import ingress_order
from .core import (
    FormatError,
    GuaranteeError,
    decode_p,
    encode_p,
    k_parameter,
    snap_epsilon,
)
from .hst import SketchTree, subtree_decomposition

__all__ = ["SketchModel", "SizeReport", "serialize", "deserialize", "size_report"]

MAGIC = b"MCSK"
VERSION = 1

_FLAG_LANDMARKS = 2


@dataclass
class SketchModel:
    """Everything a decoder needs to answer queries; the codec's schema.

    ``eta_ints`` holds every node's d grid integers as one (n_nodes, d)
    int64 array, with zero rows at part roots, which store none.
    """

    tree: SketchTree
    center: list[int]
    ingress: list[int | None]
    inv_delta: list[int]
    eta_ints: np.ndarray
    landmarks: dict[int, np.ndarray] | None
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
    """Exact bit accounting of one blob; sections sum to the total."""

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


def _is_part_root(tree: SketchTree, v: int) -> bool:
    return tree.parent[v] == -1 or tree.long_edge[v]


def serialize(model: SketchModel) -> bytes:
    """Deterministic bytes of a sketch model (see module docstring)."""
    tree = model.tree
    n_nodes = tree.n_nodes
    n = model.n
    d = model.d
    eps = model.epsilon

    w = BitWriter()
    # 1. shape
    stack: list[tuple[int, bool]] = [(tree.root, False)]
    while stack:
        v, closing = stack.pop()
        if closing:
            w.write_uint(0, 1)
            continue
        w.write_uint(1, 1)
        stack.append((v, True))
        for c in reversed(tree.children[v]):
            stack.append((c, False))

    # 2. edges
    for v in range(1, n_nodes):
        if tree.long_edge[v]:
            w.write_uint(1, 1)
            w.write_gamma(tree.edge_gap(v))
        else:
            w.write_uint(0, 1)

    # 3. node records
    center_w = (n - 1).bit_length()
    subtree_leaves = [v for v in range(n_nodes) if tree.is_subtree_leaf(v)]
    leaf_ref = {v: i for i, v in enumerate(subtree_leaves)}
    ref_w = (len(subtree_leaves) - 1).bit_length()
    runs = _displacement_runs(model)
    for v in range(n_nodes):
        w.write_uint(model.center[v], center_w)
        root_here = _is_part_root(tree, v)
        if not root_here:
            ing = model.ingress[v]
            if ing == tree.parent[v]:
                w.write_uint(0, 1)
            else:
                if ing not in leaf_ref:
                    raise GuaranteeError(
                        f"ingress of node {v} is neither parent nor short-childless"
                    )
                w.write_uint(1, 1)
                w.write_uint(leaf_ref[ing], ref_w)
        w.write_gamma(model.inv_delta[v] - 4)
        if not root_here:
            w.write_uint(*runs[v])

    # 4. landmarks
    if model.landmarks is not None:
        decomp = subtree_decomposition(tree)
        kk = k_parameter(model.spread, eps, d, model.p)
        node_w = (n_nodes - 1).bit_length()
        parts: list[list[int]] = [[] for _ in decomp.roots]
        for v in sorted(model.landmarks):
            parts[decomp.part_of[v]].append(v)
        lms = [v for part in parts for v in part]
        try:
            shift_runs = _biased_runs(
                [model.landmarks[v] for v in lms], [1 << (kk + 1)] * len(lms), kk + 2
            )
        except ValueError as exc:
            raise GuaranteeError(
                f"a landmark shift exceeds the K+2-bit budget: {exc}"
            ) from exc
        runs = dict(zip(lms, shift_runs))
        for part in parts:
            w.write_gamma(len(part) + 1)
            for v in part:
                w.write_uint(v, node_w)
                w.write_uint(runs[v], d * (kk + 2))

    payload = w.getvalue()
    flags = _FLAG_LANDMARKS if model.landmarks is not None else 0
    header = (
        MAGIC
        + struct.pack("<H", VERSION)
        + _pack_p(model.p)
        + struct.pack(
            "<QQdddBQQQ",
            n,
            d,
            eps,
            model.scale,
            model.spread,
            flags,
            model.jl_seed,
            model.jl_orig_dim,
            w.bit_length,
        )
    )
    body = header + payload
    return body + struct.pack("<I", zlib.crc32(body))


def _displacement_runs(model: SketchModel) -> dict[int, tuple[int, int]]:
    """Per node that is not a part root, its d grid integers biased by the
    node's grid bound B as one run of fixed-width fields: (run, bit count).
    Nodes that share a field width are packed together.  Raises
    GuaranteeError when an integer lies outside [-B, B]."""
    tree = model.tree
    groups: dict[int, list[int]] = {}
    bias: list[int] = []
    for v in range(tree.n_nodes):
        if _is_part_root(tree, v):
            bias.append(0)
            continue
        delta_eff = net.delta_effective(
            model.epsilon, tree.is_subtree_leaf(v), model.inv_delta[v]
        )
        bias.append(net.grid_bound(delta_eff, model.d, model.p))
        width = net.grid_bit_width(delta_eff, model.d, model.p)
        groups.setdefault(width, []).append(v)
    runs: dict[int, tuple[int, int]] = {}
    for width, nodes in groups.items():
        try:
            packed = _biased_runs(model.eta_ints[nodes], [bias[v] for v in nodes], width)
        except ValueError as exc:
            raise GuaranteeError(f"a grid integer exceeds its bound: {exc}") from exc
        runs.update((v, (run, model.d * width)) for v, run in zip(nodes, packed))
    return runs


def _biased_runs(rows, bias: list[int], width: int) -> list[int]:
    """Each row's integers plus that row's bias, as one run of width-bit
    fields, first field most significant.  int64 rows below 64 bits go
    through one numpy pass; anything else (wider fields, Python ints beyond
    int64) through exact Python ints.  Raises ValueError when a biased
    value falls outside [0, 2 * bias], the range the decoder accepts, or
    does not fit in width bits."""
    vals = np.asarray(rows)
    if width < 64 and vals.dtype == np.int64:
        b = np.array(bias, dtype=np.uint64)[:, None]  # each below 2^63
        biased = vals.astype(np.uint64)
        biased += b  # a negative value wraps to far above 2 * bias
        if (biased > 2 * b).any():
            raise ValueError("a value lies outside [-bias, bias]")
        return pack_runs(biased, width)
    runs = []
    for row, b in zip(rows, bias):
        run = 0
        for m in row:
            val = int(m) + b
            if val < 0 or val > 2 * b or val >> width:
                raise ValueError(
                    f"biased value {val} lies outside [0, {2 * b}] or {width} bits"
                )
            run = (run << width) | val
        runs.append(run)
    return runs


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
    tail = struct.calcsize("<QQdddBQQQ")
    if len(data) < off + tail + 4:
        raise FormatError("blob truncated inside the header")
    n, d, eps, scale, spread, flags, jl_seed, jl_orig_dim, payload_bits = (
        struct.unpack_from("<QQdddBQQQ", data, off)
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

    payload = data[header_len : header_len + payload_len]
    if payload_len:
        pad = 8 * payload_len - payload_bits
        if pad and payload[-1] & ((1 << pad) - 1):
            raise FormatError("nonzero padding bits")
    r = BitReader(payload, payload_bits)

    # 1. shape
    if r.read_uint(1) != 1:
        raise FormatError("payload does not open with the root")
    parent = [-1]
    children: list[list[int]] = [[]]
    open_stack = [0]
    while open_stack:
        if r.read_uint(1):
            node = len(parent)
            parent.append(open_stack[-1])
            children.append([])
            children[open_stack[-1]].append(node)
            open_stack.append(node)
        else:
            open_stack.pop()
    n_nodes = len(parent)
    shape_bits = r.position

    # 2. edges
    long_edge = [False] * n_nodes
    gaps = [0] * n_nodes
    gap_bits_total = 0
    for v in range(1, n_nodes):
        if r.read_uint(1):
            long_edge[v] = True
            before = r.position
            gaps[v] = r.read_gamma()
            gap_bits_total += r.position - before
            if gaps[v] < 2:
                raise FormatError(f"long edge into {v} has gap {gaps[v]} < 2")
        else:
            gaps[v] = 1
    edge_bits = r.position - shape_bits
    edge_flag_bits = edge_bits - gap_bits_total

    # levels: depth below root, then pin the common leaf level to 0
    rel = [0] * n_nodes
    for v in range(1, n_nodes):
        rel[v] = rel[parent[v]] - gaps[v]
    leaves = [v for v in range(n_nodes) if not children[v]]
    if len(leaves) != n:
        raise FormatError(f"blob announces n={n} but has {len(leaves)} leaves")
    leaf_rel = {rel[v] for v in leaves}
    if len(leaf_rel) != 1:
        raise FormatError("leaves do not share a common level")
    root_level = -leaf_rel.pop()
    if root_level < 1 or root_level > math.frexp(spread)[1]:
        raise FormatError(
            f"root level {root_level} inconsistent with spread {spread}"
        )
    level = [rel[v] + root_level for v in range(n_nodes)]

    leaf_label = [-1] * n_nodes
    tree = SketchTree(
        level=level,
        parent=parent,
        children=children,
        long_edge=long_edge,
        leaf_label=leaf_label,
        root=0,
    )

    # 3. node records
    center_w = (n - 1).bit_length()
    subtree_leaves = [v for v in range(n_nodes) if tree.is_subtree_leaf(v)]
    ref_w = (len(subtree_leaves) - 1).bit_length()
    leaf_count = [0 if ch else 1 for ch in children]
    for v in range(n_nodes - 1, 0, -1):  # preorder ids: children come later
        leaf_count[parent[v]] += leaf_count[v]
    center = [0] * n_nodes
    ingress: list[int | None] = [None] * n_nodes
    inv_delta = [0] * n_nodes
    # displacement runs are stepped over here and read below, all at once
    # (part roots keep width 0, which reads as a zero row)
    disp_starts = [0] * n_nodes
    disp_widths = [0] * n_nodes
    disp_bounds = [0] * n_nodes
    center_bits = ingress_bits = precision_bits = displacement_bits = 0
    for v in range(n_nodes):
        mark = r.position
        center[v] = r.read_uint(center_w)
        if center[v] >= n:
            raise FormatError(f"center label {center[v]} out of range")
        center_bits += r.position - mark
        root_here = _is_part_root(tree, v)
        if not root_here:
            mark = r.position
            if r.read_uint(1):
                idx = r.read_uint(ref_w)
                if idx >= len(subtree_leaves):
                    raise FormatError(f"ingress reference {idx} out of range")
                ingress[v] = subtree_leaves[idx]
            else:
                ingress[v] = parent[v]
            ingress_bits += r.position - mark
        mark = r.position
        inv_delta[v] = 4 + r.read_gamma()
        precision_bits += r.position - mark
        # a level-l cluster C has diameter < (|C|-1) * 2^l, so a valid build
        # never stores inv_delta = 5 + ceil(diam / 2^l) above |C| + 4
        if inv_delta[v] > leaf_count[v] + 4:
            raise FormatError(f"precision {inv_delta[v]} of node {v} exceeds leaves + 4")
        if not root_here:
            delta_eff = net.delta_effective(eps, tree.is_subtree_leaf(v), inv_delta[v])
            if not net.grid_bound_fits(delta_eff, d, p):
                raise FormatError(f"grid bound of node {v} does not fit in 64 bits")
            bound = net.grid_bound(delta_eff, d, p)
            width = net.grid_bit_width(delta_eff, d, p)
            if d * width > r.remaining:  # never allocate from the header's d alone
                raise FormatError(
                    f"displacement of node {v} needs {d * width} bits, "
                    f"{r.remaining} remain"
                )
            disp_starts[v] = r.skip(d * width)
            disp_widths[v] = width
            disp_bounds[v] = bound
            displacement_bits += d * width
    eta_ints = _read_grid(payload, disp_starts, disp_widths, disp_bounds, d)

    for v in leaves:
        leaf_label[v] = center[v]
    if sorted(center[v] for v in leaves) != list(range(n)):
        raise FormatError("leaf centers are not a permutation of the labels")
    for v in range(n_nodes):
        if children[v] and center[v] != center[children[v][0]]:
            raise FormatError(f"center of node {v} is not its first child's")
    tree.verify()

    decomp = subtree_decomposition(tree)
    _check_ingress_forest(tree, ingress, decomp)

    # 4. landmarks
    landmarks: dict[int, np.ndarray] | None = None
    landmark_bits = 0
    if has_landmarks:
        mark = r.position
        kk = k_parameter(spread, eps, d, p)
        node_w = (n_nodes - 1).bit_length()
        width = kk + 2
        bias = 1 << (kk + 1)
        landmarks = {}
        for pid in range(len(decomp.roots)):
            count = r.read_gamma() - 1
            for _ in range(count):
                v = r.read_uint(node_w)
                if v >= n_nodes:
                    raise FormatError(f"landmark node {v} out of range")
                if decomp.part_of[v] != pid:
                    raise FormatError(f"landmark node {v} recorded in wrong part")
                if v in landmarks:
                    raise FormatError(f"duplicate landmark node {v}")
                if width <= 64:  # the run's start; all runs are read below
                    landmarks[v] = r.skip(d * width)
                else:  # wider than any numpy integer: exact ints, field by field
                    landmarks[v] = np.array(
                        [r.read_uint(width) - bias for _ in range(d)], dtype=object
                    )
        if width <= 64 and landmarks:
            starts = list(landmarks.values())
            u = unpack_runs(payload, starts, [width] * len(starts), d)
            landmarks = dict(zip(landmarks, (u - np.uint64(bias)).view(np.int64)))
        landmark_bits = r.position - mark

    if r.position != payload_bits:
        raise FormatError(
            f"payload length mismatch: read {r.position} of {payload_bits} bits"
        )

    model = SketchModel(
        tree=tree,
        center=center,
        ingress=ingress,
        inv_delta=inv_delta,
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
        tree_shape_bits=shape_bits + edge_flag_bits,
        long_gap_bits=gap_bits_total,
        center_bits=center_bits,
        ingress_bits=ingress_bits,
        precision_bits=precision_bits,
        displacement_bits=displacement_bits,
        landmark_bits=landmark_bits,
        padding_bits=8 * payload_len - payload_bits,
        n=n,
    )
    return model, sizes


def _read_grid(payload, starts, widths, bounds, d) -> np.ndarray:
    """The displacement runs stepped over by ``_parse``, in one pass, as one
    (len(starts), d) int64 array of grid integers: row i holds the d fields
    of ``widths[i]`` bits from bit ``starts[i]`` on, minus ``bounds[i]``.
    A width of 0 (a part root) gives a zero row.  A field above twice its
    bound raises FormatError."""
    u = unpack_runs(payload, starts, widths, d)
    bound = np.array(bounds, dtype=np.uint64)[:, None]  # each below 2^63
    over = u > 2 * bound
    if over.any():
        i, j = np.argwhere(over)[0]
        raise FormatError(
            f"grid integer {int(u[i, j]) - bounds[i]} exceeds bound {bounds[i]}"
        )
    u -= bound  # wraps below zero, which the int64 view reads as negative
    return u.view(np.int64)


def _check_ingress_forest(tree, ingress, decomp) -> None:
    """Ingress edges must stay inside each part and reach the part root."""
    for v in range(tree.n_nodes):
        ing = ingress[v]
        if _is_part_root(tree, v):
            if ing is not None:
                raise FormatError(f"part root {v} carries an ingress")
        elif ing is None:
            raise FormatError(f"node {v} lacks an ingress")
        elif decomp.part_of[ing] != decomp.part_of[v]:
            raise FormatError(f"ingress of {v} crosses a long edge")
    if len(ingress_order(ingress)) != tree.n_nodes:
        raise FormatError("ingress references contain a cycle")
