"""Blob serialization: bit IO, layout accounting, integrity checks."""

import functools
import math
import struct
import time
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcsketch._bitio import BitReader, BitWriter, pack_runs, unpack_runs
from mcsketch.cli import build_sketch, gen_high_spread_line, sketch_points
from mcsketch import net
from mcsketch.codec import MAGIC, deserialize, serialize, size_report
from mcsketch.core import (
    FormatError,
    GuaranteeError,
    InputError,
    SketchError,
    SketchParams,
    k_parameter,
    normalize,
)
from mcsketch.estimate import Estimator
from mcsketch.hst import subtree_decomposition

import _reference as ref


def _blob(points, eps=0.25, p=2.0, **kw):
    ps = normalize(np.asarray(points, dtype=float), p)
    params = SketchParams(epsilon=eps, jl_enabled=False, **kw)
    return build_sketch(ps, params).blob


def _random_blob(rng):
    n = int(rng.integers(2, 28))
    d = int(rng.integers(1, 5))
    p = float(rng.choice([1.0, 2.0, math.inf]))
    eps = float(rng.choice([0.5, 0.25, 0.125]))
    if p == 2.0 and d <= 3:
        rng.integers(2)  # once chose a second codec; kept so the instances stay put
    lm = bool(rng.integers(2))
    pts = rng.normal(size=(n, d)) * float(rng.uniform(2, 50))
    return _blob(pts, eps=eps, p=p, landmarks=lm)


# --------------------------------------------------------------------------
# Bit-level IO.


def test_bitwriter_reader_basic():
    w = BitWriter()
    w.write_uint(5, 3)
    w.write_uint(1, 1)
    w.write_gamma(9)
    w.write_uint(0, 7)
    data = w.getvalue()
    r = BitReader(data, w.bit_length)
    assert r.read_uint(3) == 5
    assert r.read_uint(1) == 1
    assert r.read_gamma() == 9
    assert r.read_uint(7) == 0
    assert r.remaining == 0  # reader is bounded by the logical bit length
    assert len(data) == (w.bit_length + 7) // 8


def test_bitwriter_rejects_oversized_values():
    w = BitWriter()
    with pytest.raises(ValueError):
        w.write_uint(8, 3)
    with pytest.raises(ValueError):
        w.write_gamma(0)


def test_bitreader_rejects_overrun():
    w = BitWriter()
    w.write_uint(3, 2)
    r = BitReader(w.getvalue(), w.bit_length)
    r.read_uint(2)
    with pytest.raises(FormatError):
        r.read_uint(1)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2**40), st.integers(1, 41)), max_size=30))
def test_uint_roundtrip(items):
    w = BitWriter()
    for value, width in items:
        w.write_uint(value % (1 << width), width)
    r = BitReader(w.getvalue(), w.bit_length)
    for value, width in items:
        assert r.read_uint(width) == value % (1 << width)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 2**32), max_size=30))
def test_gamma_roundtrip(values):
    w = BitWriter()
    for v in values:
        w.write_gamma(v)
    r = BitReader(w.getvalue(), w.bit_length)
    for v in values:
        assert r.read_gamma() == v


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_runs_match_scalar_fields(seed):
    # runs of 1..64-bit fields at every bit alignment, widths mixed in one read
    rng = np.random.default_rng(seed)
    count = int(rng.integers(1, 6))
    w = BitWriter()
    w.write_uint(0, int(rng.integers(0, 8)))
    starts, widths, rows = [], [], []
    for _ in range(int(rng.integers(1, 6))):
        width = int(rng.integers(1, 65))
        draws = rng.integers(0, 2**64, size=count, dtype=np.uint64)
        row = [int(x) >> (64 - width) for x in draws]
        run = 0
        for x in row:
            run = (run << width) | x
        assert pack_runs(np.array([row], dtype=np.uint64), width) == [run]
        starts.append(w.bit_length)
        widths.append(width)
        rows.append(row)
        w.write_uint(run, count * width)
        w.write_uint(0, int(rng.integers(0, 9)))
    data = w.getvalue()
    got = unpack_runs(data, starts, widths, count)
    r = BitReader(data, w.bit_length)
    for start, width, row, fields in zip(starts, widths, rows, got.tolist()):
        r.skip(start - r.position)
        assert fields == row == [r.read_uint(width) for _ in range(count)]


def test_gamma_length_is_logarithmic():
    for v in (1, 2, 3, 9, 100, 2**20):
        w = BitWriter()
        w.write_gamma(v)
        assert w.bit_length == 2 * int(math.log2(v)) + 1


# --------------------------------------------------------------------------
# Roundtrips.


def test_two_point_blob_roundtrip():
    blob = _blob([[0.0], [1.0]])
    assert blob[:4] == MAGIC
    model = deserialize(blob)
    assert model.n == 2
    assert model.d == 1
    assert model.tree.n_nodes == 3
    assert serialize(model) == blob


def test_roundtrip_preserves_all_fields():
    rng = np.random.default_rng(1)
    blob = _blob(rng.normal(size=(15, 3)) * 20, landmarks=True)
    model = deserialize(blob)
    again = deserialize(serialize(model))
    assert again.n == model.n and again.d == model.d
    assert again.p == model.p
    assert again.epsilon == model.epsilon
    assert again.scale == model.scale and again.spread == model.spread
    assert again.tree.level == model.tree.level
    assert again.tree.parent == model.tree.parent
    assert again.tree.long_edge == model.tree.long_edge
    assert again.center == model.center
    assert again.ingress == model.ingress
    assert again.inv_delta == model.inv_delta
    assert again.landmarks.keys() == model.landmarks.keys()
    for v, ks in model.landmarks.items():
        assert np.array_equal(again.landmarks[v], ks)
    assert again.eta_ints.dtype == model.eta_ints.dtype == np.int64
    assert np.array_equal(again.eta_ints, model.eta_ints)


def test_hundred_random_roundtrips():
    rng = np.random.default_rng(2)
    for _ in range(100):
        blob = _random_blob(rng)
        assert serialize(deserialize(blob)) == blob


def test_rational_p_header():
    rng = np.random.default_rng(3)
    blob = _blob(rng.normal(size=(6, 2)) * 9, p=1.5)
    model = deserialize(blob)
    assert model.p == 1.5
    assert serialize(model) == blob


# --------------------------------------------------------------------------
# Size accounting.


def test_size_report_sums_to_payload():
    rng = np.random.default_rng(4)
    for _ in range(10):
        blob = _random_blob(rng)
        rep = size_report(blob)
        sections = (
            rep.tree_shape_bits
            + rep.long_gap_bits
            + rep.center_bits
            + rep.ingress_bits
            + rep.precision_bits
            + rep.displacement_bits
            + rep.landmark_bits
        )
        assert sections == rep.payload_bits
        assert (rep.payload_bits + rep.padding_bits) % 8 == 0
        assert rep.padding_bits < 8
        assert rep.total_bytes == len(blob)
        assert rep.total_bytes == (
            rep.header_bytes
            + (rep.payload_bits + rep.padding_bits) // 8
            + rep.crc_bytes
        )
        assert rep.bits_per_point == rep.total_bits / rep.n


def test_landmark_section_only_when_enabled():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(12, 2)) * 30
    plain = _blob(pts)
    with_lm = _blob(pts, landmarks=True)
    assert size_report(plain).landmark_bits == 0
    assert size_report(with_lm).landmark_bits > 0
    assert deserialize(plain).landmarks is None
    assert deserialize(with_lm).landmarks is not None


# --------------------------------------------------------------------------
# Corruption fuzz: never a silent success.


def test_every_header_byte_corruption_detected():
    blob = _blob([[0.0], [1.0], [10.0]])
    rep = size_report(blob)
    for i in range(rep.header_bytes):
        for flip in (0xFF, 0x01):
            bad = bytearray(blob)
            bad[i] ^= flip
            with pytest.raises(FormatError):
                deserialize(bytes(bad))


def test_payload_bit_flips_detected():
    rng = np.random.default_rng(6)
    blob = _blob(rng.normal(size=(20, 2)) * 25, landmarks=True)
    rep = size_report(blob)
    payload_start = rep.header_bytes
    payload_end = len(blob) - rep.crc_bytes
    positions = rng.integers(payload_start * 8, payload_end * 8, size=200)
    for bitpos in positions:
        bad = bytearray(blob)
        bad[bitpos // 8] ^= 1 << (7 - bitpos % 8)
        with pytest.raises(FormatError):
            deserialize(bytes(bad))


def test_truncation_and_garbage_detected():
    blob = _blob([[0.0], [1.0], [10.0]])
    for cut in (0, 1, 4, 10, len(blob) - 1):
        with pytest.raises(FormatError):
            deserialize(blob[:cut])
    with pytest.raises(FormatError):
        deserialize(blob + b"\x00")
    with pytest.raises(FormatError):
        deserialize(b"JUNK" + blob[4:])


def test_crc_protects_whole_stream():
    blob = _blob([[0.0], [1.0], [10.0]])
    body, crc = blob[:-4], blob[-4:]
    assert int.from_bytes(crc, "little") == zlib.crc32(body)
    with pytest.raises(FormatError):
        deserialize(body + (zlib.crc32(body) ^ 1).to_bytes(4, "little"))


def test_consistent_but_lying_header_detected():
    # flip a payload-length byte and fix up the CRC so only the semantic
    # validation can catch it
    blob = _blob([[0.0], [1.0], [10.0]])
    bad = bytearray(blob)
    # grow the declared payload length (last u64 of the fixed header)
    rep = size_report(blob)
    off = rep.header_bytes - 8
    declared = int.from_bytes(bad[off : off + 8], "little")
    bad[off : off + 8] = (declared + 8).to_bytes(8, "little")
    body = bytes(bad[:-4])
    fixed = body + zlib.crc32(body).to_bytes(4, "little")
    with pytest.raises(FormatError):
        deserialize(fixed)


def _tampered_blob(edit):
    # decode a real blob, edit the model, serialize again: the CRC is valid
    # and only the decoder's field checks can refuse the result
    model = deserialize(_blob(np.random.default_rng(8).normal(size=(12, 2)) * 9))
    edit(model)
    return serialize(model)


def test_precision_beyond_leaf_count_rejected():
    def edit(model):
        v = next(v for v in range(model.tree.n_nodes) if model.ingress[v] is not None)
        model.inv_delta[v] = 2**70
        model.eta_ints[v] = [2**62] + [0] * (model.d - 1)

    with pytest.raises(FormatError, match="precision"):
        deserialize(_tampered_blob(edit))


def test_grid_bound_beyond_int64_rejected():
    def edit(model):
        model.epsilon = 2.0**-80

    with pytest.raises(FormatError, match="64 bits"):
        deserialize(_tampered_blob(edit))


def test_grid_integer_beyond_bound_refused_at_serialize():
    # B+1 still fits the field's width; the encoder refuses it, as the
    # decoder would
    model = deserialize(_blob(np.random.default_rng(8).normal(size=(12, 2)) * 9))
    tree = model.tree
    v = next(v for v in range(tree.n_nodes) if model.ingress[v] is not None)
    delta_eff = net.delta_effective(
        model.epsilon, tree.is_subtree_leaf(v), model.inv_delta[v]
    )
    b = net.grid_bound(delta_eff, model.d, model.p)
    assert (2 * b + 1).bit_length() == net.grid_bit_width(delta_eff, model.d, model.p)
    model.eta_ints[v, 0] = b + 1
    with pytest.raises(GuaranteeError, match="exceeds its bound"):
        serialize(model)


def test_epsilon_beyond_int64_grid_refused_at_build():
    # from eps = 2^-61 on, the grid bound of some short-childless node
    # passes 2^63: the build must refuse, not write a blob the decoder
    # refuses or cast out-of-range floats into int64
    pts = np.random.default_rng(0).normal(size=(20, 2)) * 10
    blob = sketch_points(pts, 2, SketchParams(epsilon=2.0**-60, jl_enabled=False))
    assert Estimator(blob).estimate(0, 1) > 0
    for eps in (2.0**-61, 2.0**-62):
        with pytest.raises(InputError, match="epsilon"):
            sketch_points(pts, 2, SketchParams(epsilon=eps, jl_enabled=False))


def test_center_from_second_child_rejected():
    # a center inherited from child 1 passed the old "some child" check
    def edit(model):
        kids = model.tree.children[model.tree.root]
        assert len(kids) >= 2 and model.center[kids[1]] != model.center[kids[0]]
        model.center[model.tree.root] = model.center[kids[1]]

    with pytest.raises(FormatError, match="first child"):
        deserialize(_tampered_blob(edit))


def test_ingress_cycle_between_siblings_rejected():
    # two short-childless siblings on short edges, each the other's ingress:
    # both stay inside their part, so only the cycle check can refuse them
    def edit(model):
        tree = model.tree
        a, b = next(
            (a, b)
            for v in range(tree.n_nodes)
            for a in tree.children[v]
            for b in tree.children[v]
            if a < b
            and not (tree.long_edge[a] or tree.long_edge[b])
            and tree.is_subtree_leaf(a)
            and tree.is_subtree_leaf(b)
        )
        model.ingress[a], model.ingress[b] = b, a

    with pytest.raises(FormatError, match="cycle"):
        deserialize(_tampered_blob(edit))


def test_shift_sums_beyond_int64_decode_exactly_or_fail():
    # 0, 1, 2, 4, ..., 2^57 hangs a chain of short-edge nodes from level 57
    # down with K+2 = 62, so the sketch takes int64 shifts.  Grid integers
    # raised to the bound of the largest precision the decoder accepts, and
    # a landmark at the top of its K+2-bit field, make sums far beyond int64.
    pts = np.array([0.0] + [2.0**i for i in range(58)]).reshape(-1, 1)
    model = deserialize(_blob(pts, landmarks=True))
    tree = model.tree
    kk = k_parameter(model.spread, model.epsilon, model.d, model.p)
    assert kk + 2 == 62
    leaves = [len(x) for x in tree.leaf_labels_under()]
    for v in range(tree.n_nodes):
        if model.ingress[v] is not None and tree.level[v] > 40:
            model.inv_delta[v] = leaves[v] + 4
            delta_eff = net.delta_effective(
                model.epsilon, tree.is_subtree_leaf(v), model.inv_delta[v]
            )
            model.eta_ints[v] = [net.grid_bound(delta_eff, model.d, model.p)]
    v = next(v for v in range(tree.n_nodes) if tree.level[v] == 30)
    model.landmarks[v] = [(1 << (kk + 1)) - 1]
    blob = serialize(model)
    decoded = deserialize(blob)
    unit = net.per_coord_scale(model.epsilon, model.d, model.p)
    for mode, known in (("precomputed", None), ("landmark", decoded.landmarks)):
        exact = ref.exact_shift_floats(decoded, known)
        assert np.abs(exact).max() / unit > 2.0**64
        try:
            est = Estimator(blob, mode=mode)
            got = np.array([est.shifted_surrogate(v) for v in range(tree.n_nodes)])
        except SketchError:
            continue
        assert np.array_equal(got, exact)


def _with_crc(body) -> bytes:
    body = bytes(body)
    return body + zlib.crc32(body).to_bytes(4, "little")


def _patch_header(blob: bytes, offset: int, fmt: str, value) -> bytes:
    """Overwrite the field ``offset`` bytes past the p-code (integer p only:
    n at 0, d at 8, flags at 40) and recompute the CRC."""
    assert blob[6] != 0, "rational p moves the fixed header"
    body = bytearray(blob[:-4])
    struct.pack_into(fmt, body, 7 + offset, value)
    return _with_crc(body)


def test_flag_bit_zero_rejected():
    # bit 0 once selected a second displacement codec; it stays reserved
    blob = _blob(np.random.default_rng(9).normal(size=(10, 2)) * 7)
    flags = blob[7 + 40]
    assert flags == 0
    with pytest.raises(FormatError, match="unknown flag bits"):
        deserialize(_patch_header(blob, 40, "<B", flags | 1))


@pytest.mark.parametrize("d", [2**31, 2**32 - 1])
def test_huge_header_dimension_rejected_before_allocating(d):
    blob = _blob(np.random.default_rng(10).normal(size=(8, 2)) * 7)
    with pytest.raises(FormatError, match="displacement of node"):
        deserialize(_patch_header(blob, 8, "<Q", d))


@functools.lru_cache(maxsize=None)
def _fuzz_blob(p: float, landmarks: bool, n: int) -> bytes:
    pts = np.random.default_rng(n).normal(size=(n, 3)) * 20
    return _blob(pts, eps=0.25, p=p, landmarks=landmarks)


@functools.lru_cache(maxsize=None)
def _landmark_run_bits(blob: bytes) -> tuple[int, ...]:
    """Offsets, from the blob's first bit, of every bit inside a
    landmark-shift run (the layout in the codec module docstring)."""
    model = deserialize(blob)
    rep = size_report(blob)
    decomp = subtree_decomposition(model.tree)
    kk = k_parameter(model.spread, model.epsilon, model.d, model.p)
    node_w = (model.tree.n_nodes - 1).bit_length()
    run = model.d * (kk + 2)
    pos = 8 * rep.header_bytes + rep.payload_bits - rep.landmark_bits
    out: list[int] = []
    for pid in range(len(decomp.roots)):
        count = sum(decomp.part_of[v] == pid for v in model.landmarks)
        pos += 2 * (count + 1).bit_length() - 1  # Elias gamma of count + 1
        for _ in range(count):
            out.extend(range(pos + node_w, pos + node_w + run))
            pos += node_w + run
    assert pos == 8 * rep.header_bytes + rep.payload_bits
    return tuple(out)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([1.0, 2.0, math.inf]),
    st.booleans(),
    st.sampled_from([12, 60]),
    st.lists(st.integers(min_value=0), min_size=1, max_size=3),
    st.booleans(),
)
def test_valid_crc_mutations_decode_or_fail_fast(p, landmarks, n, flips, in_shifts):
    blob = _fuzz_blob(p, landmarks, n)
    body = bytearray(blob[:-4])
    # with landmarks, half the examples flip bits inside landmark-shift runs
    targets = _landmark_run_bits(blob) if landmarks and in_shifts else ()
    for f in flips:
        bit = targets[f % len(targets)] if targets else f % (8 * len(body))
        body[bit // 8] ^= 1 << (7 - bit % 8)
    t0 = time.perf_counter()
    try:
        model = deserialize(_with_crc(body))
    except SketchError:
        model = None
    assert time.perf_counter() - t0 < 2.0
    if model is None:
        return
    # a blob that decodes gives the exact sums' floats in both modes
    modes = [("precomputed", None)]
    if model.landmarks is not None:
        modes.append(("landmark", model.landmarks))
    for mode, known in modes:
        est = Estimator(model, mode=mode)
        got = np.array([est.shifted_surrogate(v) for v in range(model.tree.n_nodes)])
        assert np.array_equal(got, ref.exact_shift_floats(model, known))


@pytest.mark.parametrize("t", [57, 58, 59, 60, 512])
def test_landmark_fields_of_every_width_roundtrip(t):
    # K+2 = t+5: fields of 62 and 63 bits are packed by numpy, 64 bits and
    # beyond by exact ints; 63 and 64 are read by numpy, wider field by field
    ps = normalize(gen_high_spread_line(32, t, 1), 2.0)
    res = build_sketch(ps, SketchParams(epsilon=0.25, jl_enabled=False, landmarks=True))
    model = res.model
    assert k_parameter(model.spread, model.epsilon, model.d, model.p) + 2 == t + 5
    v = max(range(model.tree.n_nodes), key=lambda v: res.table.shift_int[v][0])
    model.landmarks[v] = res.table.shift_int[v]  # a true shift, so still valid
    blob = serialize(model)
    decoded = deserialize(blob)
    assert decoded.landmarks.keys() == {v}
    assert decoded.landmarks[v].tolist() == res.table.shift_int[v].tolist() != [0]
    assert serialize(decoded) == blob
    est = Estimator(blob, mode="landmark")
    got = np.array([est.shifted_surrogate(u) for u in range(model.tree.n_nodes)])
    assert np.array_equal(got, ref.exact_shift_floats(decoded))
