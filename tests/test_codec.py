"""Blob serialization: bit IO, layout accounting, integrity checks."""

import functools
import math
import re
import struct
import time
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mcsketch._bitio import (
    gamma_columns,
    gamma_widths,
    pack_fields,
    plane_bits,
    read_gamma_column,
    read_planes,
    read_unary,
    unary_bits,
    unpack_runs,
)
from mcsketch.annotate import shift_to_float
from mcsketch.cli import (
    build_sketch,
    gen_gaussian_clusters,
    gen_high_spread_line,
    gen_uniform,
    sketch_points,
)
from mcsketch import net
from mcsketch.codec import (
    MAGIC,
    VERSION,
    SketchModel,
    _read_ingress,
    _read_rice,
    _rice_parameters,
    deserialize,
    serialize,
    size_report,
)
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
from mcsketch.hst import SketchTree

import _reference as ref
from _reference import subtree_decomposition


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
# Bit-level IO: the array packer and column readers against the scalar
# reference writer and reader of ``_reference``.


def _scalar(fields) -> tuple[bytes, int]:
    """Bytes and bit length of ("u", value, width) fields, ("b", bits) bit
    columns and ("g", values) gamma columns written one bit field at a
    time."""
    w = ref.BitWriter()
    for f in fields:
        if f[0] == "u":
            w.write_uint(f[1], f[2])
        elif f[0] == "b":
            for bit in f[1]:
                w.write_uint(bit, 1)
        else:
            ref.write_gammas(w, f[1])
    return w.getvalue(), w.bit_length


def _packed(fields) -> tuple[bytes, list[int], list[int]]:
    """The same fields and columns through one pack_fields call: bytes,
    and the start and bit length of each."""
    columns, widths = [], []
    for f in fields:
        if f[0] == "u":
            columns.append((np.array([f[1]], dtype=np.uint64), [f[2]]))
            widths.append(f[2])
        elif f[0] == "b":
            columns.append((np.array(f[1], dtype=np.uint8), 1))
            widths.append(len(f[1]))
        else:
            columns += gamma_columns(f[1])
            widths.append(int(gamma_widths(f[1]).sum()) if f[1] else 0)
    starts = np.cumsum([0] + widths)[:-1].tolist()
    data, bits = pack_fields(columns)
    assert bits == sum(widths)
    return data, starts, widths


def test_bitwriter_reader_basic():
    fields = [("u", 5, 3), ("u", 1, 1), ("g", [9]), ("u", 0, 7)]
    data, starts, widths = _packed(fields)
    assert widths[2] == 7 and sum(widths) == 18
    assert (data, sum(widths)) == _scalar(fields)
    assert len(data) == (sum(widths) + 7) // 8
    assert unpack_runs(data, starts, widths, 1)[:, 0].tolist() == [5, 1, 9, 0]
    values, end = read_gamma_column(data, 4, 1, 18)
    assert values.tolist() == [9] and end == 11
    # the gamma reader is bounded by the logical bit length, not the bytes:
    # the unary part of 9 ends at bit 8, its three low bits would end at 11
    with pytest.raises(FormatError, match="gamma codes need 3 more bits, 2 remain"):
        read_gamma_column(data, 4, 1, 10)


def test_bitwriter_rejects_oversized_values():
    # fields are at most 64 bits wide and gamma values below 2^63
    with pytest.raises(ValueError):
        pack_fields([(np.array([8]), [3])])
    with pytest.raises(ValueError, match="a field of 65 bits is wider than 64"):
        pack_fields([(np.array([1]), [65])])
    with pytest.raises(ValueError, match=r"values in \[1, 2\^63\)"):
        gamma_columns([2**63])
    with pytest.raises(ValueError):
        pack_fields([(np.array([-1]), [8])])
    with pytest.raises(ValueError):
        pack_fields([(np.array([0, 2]), 1)])  # a bit column holds 0s and 1s
    with pytest.raises(ValueError):
        gamma_widths([0])
    with pytest.raises(ValueError):
        gamma_columns([3, 0])


def test_bitreader_rejects_overrun():
    data, _ = pack_fields([(np.array([3, 0]), [2, 5])])
    for read in (read_unary, read_gamma_column):
        with pytest.raises(FormatError):
            read(data, 2, 1, 7)  # five zeros and no terminating one
        with pytest.raises(FormatError):
            read(data, 0, 3, 2)  # two one-bit codes, then nothing
    # a unary part that announces low bits past the limit: 2^40 - 1 has 39
    # of them; the reader refuses before it reads or allocates for them
    data, bits = pack_fields(gamma_columns([2**40 - 1]))
    assert bits == 79
    with pytest.raises(FormatError, match="need 39 more bits, 38 remain"):
        read_gamma_column(data, 0, 1, 78)


def test_gamma_code_announcing_63_low_bits_refused():
    # gamma values stay below 2^63: the reader refuses a unary part that
    # announces 63 low bits, here those of 2^63 + 5, before it reads them
    bits = [0] * 63 + [1] + [int(b) for b in format(5, "063b")]
    data = np.packbits(bits).tobytes()
    with pytest.raises(FormatError, match="announces 63 low bits"):
        read_gamma_column(data, 0, 1, len(bits))


def _rice_section(ks, unary, planes) -> tuple[bytes, int]:
    """A displacement section written bit by bit: the four 6-bit Rice
    parameters, then the unary stream and the remainder planes as given."""
    return pack_fields([(np.array(ks), 6), (np.array(unary + planes, dtype=np.uint8), 1)])


def test_rice_section_hostile_streams_refused():
    later = np.array([2])  # a later child with short children: the third k
    # d = 2 codes announced, one terminating one before the remainders
    data, bits = _rice_section([0, 0, 2, 0], [0, 1], [0, 0, 0, 0])
    with pytest.raises(FormatError, match="past the end"):
        _read_rice(data, 0, bits, np.array([3]), later, 2)
    # B = 2^62 at k = 63 gives 2B >> k = 1: quotient 2 is refused before it
    # is shifted, where 2 << 63 would wrap to 0 in uint64
    data, bits = _rice_section([0, 0, 63, 0], [0, 0, 1], [0] * 63)
    with pytest.raises(FormatError, match="quotient 2 of node 0 exceeds 2B >> k = 1"):
        _read_rice(data, 0, bits, np.array([2**62]), later, 1)
    # B = 5 at k = 2: quotient 2 (= 2B >> k) with remainder 3 makes zigzag
    # 11 > 2B
    data, bits = _rice_section([0, 0, 2, 0], [0, 0, 1], [1, 1])
    with pytest.raises(FormatError, match="zigzag value 11 of node 0 exceeds 2B = 10"):
        _read_rice(data, 0, bits, np.array([5]), later, 1)
    data, bits = _rice_section([0, 0, 2, 0], [0, 0, 1], [1, 0])
    assert _read_rice(data, 0, bits, np.array([5]), later, 1)[0].tolist() == [[5]]
    # bound 0, a part root's first child: any value but 0 is refused, at
    # every k; the parameters themselves need 24 bits
    data, bits = _rice_section([5, 0, 0, 0], [1], [0, 0, 0, 0, 1])
    with pytest.raises(FormatError, match="zigzag value 1 of node 0 exceeds 2B = 0"):
        _read_rice(data, 0, bits, np.array([0]), np.array([0]), 1)
    with pytest.raises(FormatError, match="Rice parameters need 24 bits, 23 remain"):
        _read_rice(data, 0, 23, np.array([0]), np.array([0]), 1)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 3),
            st.one_of(st.integers(-20, 20), st.integers(-(2**63), 2**63 - 1)),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_rice_parameters_are_the_exhaustive_best(items):
    # the encoder's exact costing by bit counts picks, per class, the k the
    # scalar search over every k in 0..63 picks, up to zigzag values of 64
    # bits, which no cost of its may overflow
    classes = [c for c, _ in items]
    z = np.array([[ref.zigzag(m)] for _, m in items], dtype=np.uint64)
    got = _rice_parameters(z, np.array(classes)).tolist()
    assert got == ref.rice_parameters([[m] for _, m in items], classes)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 64)), max_size=30))
def test_uint_roundtrip(items):
    # fields of 0..64 bits, the whole domain of a payload field
    fields = [("u", value % (1 << width), width) for value, width in items]
    data, starts, widths = _packed(fields)
    assert (data, sum(widths)) == _scalar(fields)
    back = unpack_runs(data, starts, widths, 1)[:, 0] if fields else []
    assert [int(x) for x in back] == [f[1] for f in fields]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 2**63 - 1), max_size=30))
def test_gamma_roundtrip(values):
    # values up to 2^63 - 1, the whole domain of a gamma column
    fields = [("g", values)]
    data, _, widths = _packed(fields)
    assert (data, sum(widths)) == _scalar(fields)
    back, end = read_gamma_column(data, 0, len(values), sum(widths))
    assert [int(x) for x in back] == values and end == sum(widths)
    assert ref.read_gammas(ref.BitReader(data, sum(widths)), len(values)) == values


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("u"), st.integers(0, 2**64 - 1), st.integers(0, 64)),
            st.tuples(st.just("b"), st.lists(st.integers(0, 1), max_size=20)),
            st.tuples(st.just("g"), st.lists(st.integers(1, 2**63 - 1), min_size=1, max_size=4)),
        ),
        max_size=40,
    )
)
def test_packer_matches_scalar_writer(fields):
    # uint fields of 0..64 bits, bit columns and gamma columns mixed at
    # every alignment: the array packer writes the scalar writer's bytes,
    # and the column readers read back what the scalar reader reads
    fields = [("u", f[1] % (1 << f[2]), f[2]) if f[0] == "u" else f for f in fields]
    data, starts, widths = _packed(fields)
    assert (data, sum(widths)) == _scalar(fields)
    r = ref.BitReader(data, sum(widths))
    for f, start, width in zip(fields, starts, widths):
        if f[0] == "u":
            got = unpack_runs(data, [start], [width], 1)[0, 0]
            assert int(got) == r.read_uint(width) == f[1]
        elif f[0] == "b":
            assert [r.read_uint(1) for _ in f[1]] == f[1]
        else:
            got, end = read_gamma_column(data, start, len(f[1]), sum(widths))
            assert [int(x) for x in got] == ref.read_gammas(r, len(f[1])) == f[1]
            assert end == start + width


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_rice_rows_match_scalar_codes(seed):
    # rows of random values in Rice codes of parameters 0..63, after a
    # prefix of any alignment: the unary and plane columns write the scalar
    # Rice writer's bytes, and read_unary and read_planes read them back
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 6))
    k = rng.integers(0, 64, size=int(rng.integers(0, 6)))
    k[rng.random(k.size) < 0.5] = rng.integers(0, 4)  # parameters shared by rows
    z = [
        [int(rng.integers(0, 2 ** min(kk + 3, 64), dtype=np.uint64)) for _ in range(d)]
        for kk in k.tolist()
    ]
    q = [[x >> kk for x in row] for row, kk in zip(z, k.tolist())]
    rest = [[x & (1 << kk) - 1 for x in row] for row, kk in zip(z, k.tolist())]
    prefix = rng.integers(0, 2, size=int(rng.integers(0, 12))).tolist()
    data, total = pack_fields(
        [
            (np.array(prefix, dtype=np.uint8), 1),
            (unary_bits(np.array(q, dtype=np.int64).ravel()), 1),
            (plane_bits(np.array(rest, dtype=np.uint64).reshape(-1, d), k), 1),
        ]
    )
    w = ref.BitWriter()
    for bit in prefix:
        w.write_uint(bit, 1)
    ref.write_rice_rows(w, z, k.tolist())
    assert (data, total) == (w.getvalue(), w.bit_length)
    back, mid = read_unary(data, len(prefix), k.size * d, total)
    assert back.tolist() == sum(q, []) and mid == total - d * int(k.sum())
    rows = back.astype(np.uint64).reshape(-1, d)
    read_planes(data, mid, k, rows)  # each row shifted by its k, remainders below
    assert rows.tolist() == z
    r = ref.BitReader(data, total)
    r.position = len(prefix)
    assert ref.read_rice_rows(r, k.tolist(), d) == z


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_runs_match_scalar_fields(seed):
    # runs of 1..64-bit fields at every bit alignment, widths mixed in one read
    rng = np.random.default_rng(seed)
    count = int(rng.integers(1, 6))
    fields = [("u", 0, int(rng.integers(0, 8)))]
    starts, widths, rows = [], [], []
    for _ in range(int(rng.integers(1, 6))):
        width = int(rng.integers(1, 65))
        draws = rng.integers(0, 2**64, size=count, dtype=np.uint64)
        row = [int(x) >> (64 - width) for x in draws]
        starts.append(sum(f[2] for f in fields))
        widths.append(width)
        rows.append(row)
        fields += [("u", x, width) for x in row]
        fields.append(("u", 0, int(rng.integers(0, 9))))
    data, _, _ = _packed(fields)
    assert data == _scalar(fields)[0]
    got = unpack_runs(data, starts, widths, count)
    r = ref.BitReader(data, _scalar(fields)[1])
    for start, width, row, back in zip(starts, widths, rows, got.tolist()):
        r.read_uint(start - r.position)
        assert back == row == [r.read_uint(width) for _ in range(count)]


def test_gamma_length_is_logarithmic():
    for v in (1, 2, 3, 9, 100, 2**20):
        assert gamma_widths([v])[0] == 2 * int(math.log2(v)) + 1
        assert _scalar([("g", [v])])[1] == gamma_widths([v])[0]
        assert pack_fields(gamma_columns([v]))[1] == gamma_widths([v])[0]


def test_gamma_widths_match_bit_length_at_the_float_and_int64_edges():
    # integer columns below 2^63 take their bit lengths from one
    # searchsorted over the powers of two; no value may round through a
    # float on the way
    values = [1, 2**52 - 1, 2**52, 2**52 + 1, 2**53 - 1, 2**53, 2**53 + 1]
    values += [2**62 - 1, 2**62, 2**62 + 1, 2**63 - 1]
    want = [2 * v.bit_length() - 1 for v in values]
    got = gamma_widths(np.array(values, dtype=np.int64))
    assert got.dtype == np.int64 and got.tolist() == want
    assert gamma_widths(values).tolist() == want
    assert gamma_widths(np.array(values, dtype=np.uint64)).tolist() == want
    # 2^63 and beyond leave the gamma domain, in any dtype
    for bad in (np.array([5, 2**63], dtype=np.uint64), [2**64 - 1], [3, 2**100 + 1]):
        with pytest.raises(ValueError, match=r"\[1, 2\^63\)"):
            gamma_widths(bad)
    with pytest.raises(ValueError):
        gamma_widths(np.array([4, 0, 7], dtype=np.int64))
    with pytest.raises(ValueError):
        gamma_widths(np.array([2**64, -1], dtype=object))


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
    assert again.tree.leaf_label == model.tree.leaf_label
    assert np.array_equal(again.ingress, model.ingress)
    assert again.landmarks == model.landmarks
    assert type(again.landmarks) is list and model.landmarks
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


def _with_payload(blob: bytes, payload: bytes, bits: int) -> bytes:
    """``blob``'s header with ``payload`` of ``bits`` bits, CRC recomputed."""
    head = bytearray(blob[: size_report(blob).header_bytes])
    struct.pack_into("<Q", head, len(head) - 8, bits)
    return _with_crc(head + payload)


def _bound_cases(model) -> dict[str, int]:
    """One node of each kind of grid bound: a part root's first child (0),
    another first child with short children (1) and one without
    (1/eps), and a later child (grid_bound at inv_delta = leaves + 4)."""
    tree = model.tree
    kids = ref.children_of(tree)
    nodes = [v for v in range(tree.n_nodes) if model.ingress[v] >= 0]
    first = [v for v in nodes if tree.parent[v] == v - 1]
    return {
        "under a part root": next(v for v in first if tree.part_root[v - 1]),
        "first with short children": next(
            v for v in first if not tree.part_root[v - 1] and tree.has_short[v]
        ),
        "first without": next(
            v for v in first if not tree.part_root[v - 1] and not tree.has_short[v]
        ),
        "later": next(v for v in nodes if v not in first and kids[v]),
    }


def test_grid_integer_beyond_tree_bound_refused_at_decode():
    # the blob stores no precision: every node's bound comes from the tree.
    # A value at +-B decodes; one at +-(B+1), which serialize refuses, is
    # written by the scalar writer and refused by the decoder
    blob = _blob(np.random.default_rng(8).normal(size=(12, 2)) * 9)
    model = deserialize(blob)
    bounds = net.tree_bounds(model.tree, model.epsilon, model.d, model.p)
    leaves = [len(x) for x in ref.leaf_labels_under(model.tree)]
    cases = _bound_cases(model)
    inv = round(1 / model.epsilon)
    later = cases["later"]
    top = net.grid_bound(
        net.delta_effective(model.epsilon, not model.tree.has_short[later], leaves[later] + 4),
        model.d,
        model.p,
    )
    assert [bounds[v] for v in cases.values()] == [0, 1, inv, top]
    for v in cases.values():
        saved = model.eta_ints[v, 0]
        for m in (bounds[v], -bounds[v]):
            model.eta_ints[v, 0] = m
            payload, bits, _ = ref.write_payload(model)
            assert serialize(deserialize(_with_payload(blob, payload, bits)))[:-4] == (
                _with_payload(blob, payload, bits)[:-4]
            )
        for m in (bounds[v] + 1, -bounds[v] - 1):
            model.eta_ints[v, 0] = m
            with pytest.raises(GuaranteeError, match="exceeds its bound"):
                serialize(model)
            payload, bits, _ = ref.write_payload(model)
            with pytest.raises(FormatError, match=f"of node {v} exceeds 2B"):
                deserialize(_with_payload(blob, payload, bits))
        model.eta_ints[v, 0] = saved


def test_grid_bound_beyond_int64_rejected():
    # from eps = 2^-61 on, a leaf's bound passes 2^63: serialize refuses such
    # a model, and the decoder a header that announces such an epsilon
    model = deserialize(_blob(np.random.default_rng(8).normal(size=(12, 2)) * 9))
    blob = serialize(model)
    model.epsilon = 2.0**-80
    with pytest.raises(GuaranteeError, match="64 bits"):
        serialize(model)
    with pytest.raises(FormatError, match="64 bits"):
        deserialize(_patch_header(blob, 16, "<d", 2.0**-80))


def test_grid_integer_beyond_bound_refused_at_serialize():
    # B+1 has a Rice code like any other value; the encoder refuses it, as
    # the decoder would, for each kind of bound
    model = deserialize(_blob(np.random.default_rng(8).normal(size=(12, 2)) * 9))
    bounds = net.tree_bounds(model.tree, model.epsilon, model.d, model.p)
    for v in _bound_cases(model).values():
        saved = model.eta_ints[v, 0]
        model.eta_ints[v, 0] = bounds[v] + 1
        with pytest.raises(GuaranteeError, match="exceeds its bound"):
            serialize(model)
        model.eta_ints[v, 0] = saved


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


def test_ingress_the_decoder_cannot_derive_refused_at_serialize():
    # a first child's ingress is derived as its parent, and a later child's
    # is stored as its rank among the nodes without short children under
    # its siblings: the encoder refuses any other value instead of writing
    # a different blob
    model = deserialize(_blob(np.random.default_rng(8).normal(size=(12, 2)) * 9))
    tree = model.tree
    first, later = ref.children_of(tree)[0][:2]
    assert not (tree.long_edge[first] or tree.long_edge[later])
    saved = model.ingress[first]
    model.ingress[first] = later
    with pytest.raises(GuaranteeError, match=f"first child {first} is not its parent"):
        serialize(model)
    model.ingress[first] = saved
    model.ingress[later] = 0
    with pytest.raises(GuaranteeError, match=f"node {later} is not short-childless"):
        serialize(model)
    # a leaf under the later child itself, where no descent from a sibling
    # ends
    own = next(u for u in range(later, ref.subtree_ends(tree)[later]) if tree.leaf_label[u] >= 0)
    model.ingress[later] = own
    with pytest.raises(GuaranteeError, match=f"node {later} is not under a sibling of it"):
        serialize(model)


def _sibling_cycle(model) -> None:
    """Make two short-childless later siblings on short edges each the
    other's ingress: both stay inside their part and in their rank ranges,
    so only the cycle check can refuse them (a first child's ingress, its
    parent, is not stored)."""
    tree = model.tree
    a, b = next(
        (a, b)
        for kids in ref.children_of(tree)
        for a in kids[1:]
        for b in kids[1:]
        if a < b
        and not (tree.long_edge[a] or tree.long_edge[b])
        and not tree.has_short[a]
        and not tree.has_short[b]
    )
    model.ingress[a], model.ingress[b] = b, a


def test_ingress_cycle_between_siblings_rejected():
    # serialize refuses the cycle, so the scalar writer writes the blob
    blob = _blob(np.random.default_rng(8).normal(size=(12, 2)) * 9)
    model = deserialize(blob)
    _sibling_cycle(model)
    payload, bits, _ = ref.write_payload(model)
    with pytest.raises(FormatError, match="cycle"):
        deserialize(_with_payload(blob, payload, bits))


def test_ingress_crossing_or_cycle_refused_at_serialize():
    # serialize refuses, with the decoder's message, the ingresses the
    # decoder refuses: a rank into another part of its range, and a cycle
    blob = _fuzz_blob(2.0, False, 60)
    model = deserialize(blob)
    part_of = model.tree.part_of
    c, u = next(
        (c, u) for c, _, _, span in _rank_fields(blob) for u in span if part_of[u] != part_of[c]
    )
    model.ingress[c] = u
    with pytest.raises(GuaranteeError, match=f"ingress of {c} crosses a long edge"):
        serialize(model)
    model = deserialize(_blob(np.random.default_rng(8).normal(size=(12, 2)) * 9))
    _sibling_cycle(model)
    with pytest.raises(GuaranteeError, match="ingress references contain a cycle"):
        serialize(model)


def test_shift_sums_beyond_int64_decode_exactly():
    # 0, 1, 2, 4, ..., 2^55 and, from 2^56 on, 16 times 0, 1, 2, 4, ...,
    # 2^51 with 29 points more make a root at level 56 whose later child,
    # at level 55, holds 82 leaves; K+2 = 62, so the sketch takes int64
    # shifts.  Grid integers raised to the bounds the decoder takes from the
    # tree make sums beyond int64 under that child, and a landmark low
    # there folds one in.
    pts = [0.0] + [2.0**i for i in range(56)]
    pts += [2.0**56 + 16 * v for v in [0.0] + [2.0**i for i in range(52)]]
    pts += [2.0**56 + 16 * (2.0**50 + 2.0**30 * j) for j in range(1, 30)]
    model = deserialize(_blob(np.reshape(pts, (-1, 1)), landmarks=True))
    tree = model.tree
    kk = k_parameter(model.spread, model.epsilon, model.d, model.p)
    assert kk + 2 == 62
    bounds = net.tree_bounds(tree, model.epsilon, model.d, model.p)
    high = np.array(tree.level) > 40
    model.eta_ints[high, 0] = bounds[high]
    later = ref.children_of(tree)[0][1]
    assert len(ref.leaf_labels_under(tree)[later]) == 82
    v = next(v for v in range(later, tree.n_nodes) if tree.level[v] == 30)
    model.landmarks = sorted({*model.landmarks, v})
    blob = serialize(model)
    decoded = deserialize(blob)
    assert v in decoded.landmarks
    unit = net.per_coord_scale(model.epsilon, model.d, model.p)
    exact = ref.exact_shift_floats(decoded)
    assert np.abs(exact[v]).max() / unit > 2.0**63
    for mode in ("precomputed", "landmark"):
        est = Estimator(blob, mode=mode)
        got = np.array([est.shifted_surrogate(u) for u in range(tree.n_nodes)])
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


def test_version_one_refused():
    # version 2 moved every field into columns, version 3 dropped the
    # centers and ingress flags, version 4 the landmark shifts, version 5
    # moved the displacements from fixed widths to Rice codes, and version
    # 6 dropped the precisions and made ingress references local ranks;
    # older blobs are refused, not read by a second parser
    blob = _blob(np.random.default_rng(9).normal(size=(10, 2)) * 7)
    assert struct.unpack_from("<H", blob, 4) == (VERSION,) == (6,)
    for old in (1, 2, 3, 4, 5):
        body = bytearray(blob[:-4])
        struct.pack_into("<H", body, 4, old)
        with pytest.raises(FormatError, match=f"unsupported version {old}"):
            deserialize(_with_crc(body))


def _rewritten(blob: bytes, bits: range, value: int) -> bytes:
    """``blob`` with the field at ``bits`` set to ``value``, CRC recomputed."""
    body = bytearray(blob[:-4])
    for k, bit in enumerate(bits):
        body[bit // 8] &= ~(1 << (7 - bit % 8)) & 0xFF
        body[bit // 8] |= (value >> (len(bits) - 1 - k) & 1) << (7 - bit % 8)
    return _with_crc(body)


def test_landmark_ids_that_do_not_ascend_or_overrun_refused():
    # this blob holds three landmarks, in strictly ascending order
    blob = _fuzz_blob(2.0, True, 60)
    model = deserialize(blob)
    n_nodes = model.tree.n_nodes
    a, b, c = model.landmarks
    cols = _columns(blob)
    ids = cols["landmark ids"]
    width = len(ids) // 3
    assert n_nodes < 1 << width
    first, second, third = (ids[k * width : (k + 1) * width] for k in range(3))
    for bits, value, bad in ((second, a, a), (first, b, b), (second, c, c), (first, b + 1, b)):
        with pytest.raises(FormatError, match=f"landmark node {bad} does not ascend"):
            deserialize(_rewritten(blob, bits, value))
    with pytest.raises(FormatError, match=f"landmark node {n_nodes} out of range"):
        deserialize(_rewritten(blob, third, n_nodes))
    # gamma(4) rewritten as gamma(7): three more ids than the payload holds
    count = cols["landmark count"]
    assert len(count) == 5
    with pytest.raises(FormatError, match=f"landmark ids need {6 * width} bits, {3 * width} remain"):
        deserialize(_rewritten(blob, count, 7))


def test_landmark_count_code_beyond_63_low_bits_refused():
    # the landmark count's gamma code rewritten to announce 70 low bits, a
    # count of 2^70 - 1 (ids and all else after it dropped): the reader
    # refuses the code before it reads its low bits or sizes a column
    blob = _fuzz_blob(2.0, True, 60)
    head = size_report(blob).header_bytes
    start = _columns(blob)["landmark count"].start - 8 * head
    payload, _, _ = ref.write_payload(deserialize(blob))
    bits = np.unpackbits(np.frombuffer(payload, np.uint8))[:start].tolist()
    bits += [0] * 70 + [1] + [0] * 70
    hostile = _with_payload(blob, np.packbits(bits).tobytes(), len(bits))
    with pytest.raises(FormatError, match="gamma code announces 70 low bits"):
        deserialize(hostile)


def _rank_fields(blob: bytes) -> list[tuple[int, int, range, list[int]]]:
    """Per stored ingress rank of ``blob``: its node c, its range's count,
    its bits in the blob and the range's nodes in id order (the nodes
    without short children of c's parent's subtree, outside c's)."""
    model = deserialize(blob)
    at = _columns(blob)["ingress ranks"].start
    out = []
    for c, _, count in ref.ingress_ranks(model.tree, model.ingress):
        width = (count - 1).bit_length()
        out.append((c, count, range(at, at + width), ref.rank_range(model.tree, c)))
        at += width
    assert at == _columns(blob)["ingress ranks"].stop
    return out


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["graph", "line", "lattice"]),
    st.sampled_from([1.0, 2.0, math.inf]),
    st.booleans(),
    st.data(),
)
def test_ranks_and_rice_parameters_match_the_scalar_writer(seed, kind, p, landmarks, data):
    # any node of its range is an ingress the rank column can hold, and any
    # row within its bounds one the Rice section can: the column readers
    # read back the scalar writer's payload, and the codec writes it bit
    # for bit, rank widths and exhaustive Rice parameters included.  Drawn
    # from the nodes of its range inside its part, the ingresses may still
    # close a cycle: then serialize refuses the model with the message the
    # decoder gives for that payload
    ps = ref.small_instance(seed, 14, 2, p, kind)
    assume(ps is not None)
    params = SketchParams(epsilon=0.25, jl_enabled=False, landmarks=landmarks)
    built = build_sketch(ps, params)
    model = built.model
    tree = model.tree
    for c, _, _ in ref.ingress_ranks(tree, model.ingress):
        span = [u for u in ref.rank_range(tree, c) if tree.part_of[u] == tree.part_of[c]]
        model.ingress[c] = span[data.draw(st.integers(0, len(span) - 1))]
    bounds = net.tree_bounds(tree, model.epsilon, model.d, model.p)
    classes = np.array([-1 if k is None else k for k in ref.rice_classes(tree)])
    # per class, values up to 0, 1, 5 or the bound, so the four k differ
    caps = [data.draw(st.sampled_from([0, 1, 5, 2**62])) for _ in range(4)]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    for v in np.flatnonzero(classes >= 0):
        top = min(int(bounds[v]), caps[classes[v]])
        model.eta_ints[v] = rng.integers(-top, top + 1, size=model.d)
    payload, bits, starts = ref.write_payload(model)
    parent = np.array(tree.parent)
    ingress, end = _read_ingress(payload, starts["ingress ranks"], bits, tree, parent)
    assert end == starts["Rice parameters"] and np.array_equal(ingress, model.ingress)
    eta, end = _read_rice(payload, end, bits, bounds, classes, model.d)
    assert end == starts["landmark count"] and np.array_equal(eta, model.eta_ints)
    try:
        blob = serialize(model)
    except GuaranteeError as exc:
        with pytest.raises(FormatError, match=re.escape(str(exc))):
            deserialize(_with_payload(built.blob, payload, bits))
    else:
        assert blob == _with_payload(built.blob, payload, bits)


def test_ingress_reference_across_a_long_edge_refused():
    # a rank may name a node of its range below a long edge, in another part
    blob = _fuzz_blob(2.0, False, 60)
    part_of = subtree_decomposition(deserialize(blob).tree).part_of
    c, u, bits, span = next(
        (c, u, bits, span)
        for c, _, bits, span in _rank_fields(blob)
        for u in span
        if part_of[u] != part_of[c]
    )
    with pytest.raises(FormatError, match=f"ingress of {c} crosses a long edge"):
        deserialize(_rewritten(blob, bits, span.index(u)))


def test_ingress_rank_at_its_range_count_refused():
    # a rank equal to its range's count fits its field unless the count is
    # a power of two; the decoder refuses it before it indexes anything
    blob = _fuzz_blob(2.0, True, 60)
    c, count, bits, _ = next(f for f in _rank_fields(blob) if f[1] & (f[1] - 1))
    with pytest.raises(FormatError, match=f"ingress rank {count} of node {c} is not below"):
        deserialize(_rewritten(blob, bits, count))


def test_stream_cut_inside_the_ingress_ranks_refused():
    # the payload ends inside the rank column: the decoder sums the ranks'
    # widths from the tree and refuses before it reads or allocates them
    blob = _fuzz_blob(2.0, True, 60)
    model = deserialize(blob)
    head = size_report(blob).header_bytes
    ranks = _columns(blob)["ingress ranks"]
    cut = ranks.start + len(ranks) // 2 - 8 * head
    payload, _, _ = ref.write_payload(model)
    kept = bytearray(payload[: (cut + 7) // 8])
    if cut % 8:
        kept[-1] &= 0xFF << (8 - cut % 8) & 0xFF  # zero padding
    with pytest.raises(FormatError, match=f"ingress ranks need {len(ranks)} bits, "):
        deserialize(_with_payload(blob, bytes(kept), cut))
    # the column reader alone, at the same cut
    parent = np.array(model.tree.parent)
    start = ranks.start - 8 * head
    with pytest.raises(FormatError, match=f"need {len(ranks)} bits, {cut - start} remain"):
        _read_ingress(payload, start, cut, model.tree, parent)
    ingress, end = _read_ingress(payload, start, start + len(ranks), model.tree, parent)
    assert end == start + len(ranks) and np.array_equal(ingress, model.ingress)


def _decoders_refuse(blob: bytes, match: str) -> None:
    for decode in (deserialize, Estimator):
        with pytest.raises(FormatError, match=match):
            decode(blob)


def _root_over_long_edges() -> SketchModel:
    """The root raised one level, every child on a long edge: the root tops
    several long edges, a tree compression never makes."""
    model = deserialize(_blob(np.random.default_rng(8).normal(size=(12, 2)) * 9))
    tree = model.tree
    kids = ref.children_of(tree)[0]
    assert len(kids) >= 2
    level = [tree.level[0] + 1] + tree.level[1:]
    long_edge = list(tree.long_edge)
    for c in kids:
        long_edge[c] = True
        model.ingress[c] = -1
        # c stores nothing now, and its first child, whose bound is 0 under
        # a part root, stores zeros
        model.eta_ints[c : c + 2] = 0
    model.tree = SketchTree(level, tree.parent, long_edge, tree.leaf_label)
    model.spread *= 2  # room for the raised root
    return model


def test_long_edge_top_with_siblings_refused():
    _decoders_refuse(ref.write_blob(_root_over_long_edges()), "long-edge top 0 has degree != 1")


def _long_edge_chain(links: int, d: int) -> SketchModel:
    """Two points, p = inf, eps = 1/2: the root's first child tops a chain
    of ``links`` long edges down to leaf 0, each two levels deep, and its
    second child tops one long edge down to leaf 1.  With links >= 2 the
    chain's inner nodes are part roots that top long edges; such part
    roots store no displacement yet are rows of every (n_nodes, d) array."""
    top = 2 * links  # level of the root's children
    n_nodes = links + 4
    return SketchModel(
        tree=SketchTree(
            level=[top + 1] + [top - 2 * i for i in range(links + 1)] + [top, 0],
            parent=[-1] + list(range(links + 1)) + [0, links + 2],
            long_edge=[False, False] + [True] * links + [False, True],
            leaf_label=[-1] * (links + 1) + [0, -1, 1],
        ),
        ingress=np.array([-1, 0] + [-1] * links + [1, -1]),
        eta_ints=np.zeros((n_nodes, d), dtype=np.int64),
        landmarks=None,
        p=math.inf,
        epsilon=0.5,
        scale=1.0,
        spread=2.0 ** (top + 1),
        n=2,
        d=d,
        jl_seed=0,
        jl_orig_dim=d,
    )


def test_chain_of_long_edges_refused():
    # a valid-CRC v3 blob whose every other check passes: one long edge per
    # child decodes, a chain of them is refused
    blob = serialize(_long_edge_chain(1, 2))
    assert ref.write_blob(_long_edge_chain(1, 2)) == blob
    model = deserialize(blob)
    assert model.tree.long_edge == [False, False, True, False, True]
    _decoders_refuse(ref.write_blob(_long_edge_chain(2, 2)), "long-edge top 2 is a part root")
    # 300 links at d = 2000 fit in 2,845 bytes and would decode to (304,
    # 2000) arrays; the refusal comes before any of them is allocated
    blob = ref.write_blob(_long_edge_chain(300, 2000))
    assert len(blob) < 3000
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="long-edge top 2 is a part root"):
            deserialize(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500 * len(blob)


def _root_over_a_short_edge() -> SketchModel:
    """A new root one level above the old one, joined by a short edge: a
    one-child chain node at the top, a tree the hierarchy never builds."""
    model = deserialize(_blob(np.random.default_rng(8).normal(size=(12, 2)) * 9))
    tree = model.tree
    model.tree = SketchTree(
        level=[tree.level[0] + 1] + tree.level,
        parent=[-1, 0] + [u + 1 for u in tree.parent[1:]],
        long_edge=[False] + tree.long_edge,
        leaf_label=[-1] + tree.leaf_label,
    )
    ing = model.ingress[1:]
    model.ingress = np.concatenate([[-1, 0], np.where(ing < 0, -1, ing + 1)])
    model.eta_ints = np.vstack([model.eta_ints[:1], model.eta_ints])  # zero rows
    model.spread *= 2  # room for the new root
    return model


def test_root_over_a_single_short_edge_refused():
    _decoders_refuse(ref.write_blob(_root_over_a_short_edge()), "root is a degree-1 chain node")


@pytest.mark.parametrize(
    "make, match",
    [
        (_root_over_long_edges, "long-edge top 0 has degree != 1"),
        (lambda: _long_edge_chain(2, 2), "long-edge top 2 is a part root"),
        (_root_over_a_short_edge, "root is a degree-1 chain node"),
    ],
    ids=["siblings", "chain", "root-chain"],
)
def test_serialize_refuses_trees_the_decoder_refuses(make, match):
    # the writer once wrote these trees, and the decoder refused the blobs
    with pytest.raises(GuaranteeError, match=match):
        serialize(make())


def test_serialize_refuses_an_ingress_at_a_part_root():
    # the blob stores no ingress for a part root, so one was once dropped
    # without a word and decoded as -1
    model = deserialize(_blob(gen_high_spread_line(12, 12, 1)))
    bottom = model.tree.long_edge.index(True)
    for v in (0, bottom):
        edited = deserialize(serialize(model))
        edited.ingress[v] = 3
        with pytest.raises(GuaranteeError, match=f"ingress of part root {v} is not -1"):
            serialize(edited)


def test_shape_deeper_than_the_spread_refused():
    # levels fall by at least one per edge, so no valid tree is deeper than
    # the spread's exponent; a path of 4000 nodes is refused before any
    # walk over its levels
    blob = _blob([[0.0], [1.0], [10.0]])
    head = bytearray(blob[: size_report(blob).header_bytes])
    struct.pack_into("<Q", head, len(head) - 8, 8000)  # payload bit length
    with pytest.raises(FormatError, match="tree depth 3999 exceeds"):
        deserialize(_with_crc(head + b"\xff" * 500 + b"\x00" * 500))


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


def test_header_spread_beyond_k_rejected():
    # a valid-CRC header whose spread overflows K = ceil(log2(2 * spread /
    # eps * d^(1/p))) once ended in OverflowError inside Estimator
    blob = _blob(gen_uniform(20, 2, 1))
    bad = _patch_header(blob, 32, "<d", 1e308)
    for decode in (deserialize, Estimator):
        with pytest.raises(FormatError, match="K overflows"):
            decode(bad)


@functools.lru_cache(maxsize=None)
def _fuzz_blob(p: float, landmarks: bool, n: int) -> bytes:
    pts = np.random.default_rng(n).normal(size=(n, 3)) * 20
    return _blob(pts, eps=0.25, p=p, landmarks=landmarks)


_columns = functools.lru_cache(maxsize=None)(ref.payload_columns)


def _exponent_bits(offset: int) -> list[int]:
    """The 11 exponent bits of the little-endian f64 ``offset`` bytes past
    the integer p-code, in the blob's MSB-first bit numbering: the low
    seven bits of its top byte and the high four of the byte below."""
    top = 8 * (7 + offset + 7)
    return [top - 8 + i for i in range(4)] + [top + i for i in range(1, 8)]


# header fields whose flips decode: scale and spread, beside the columns
_HEADER = {"scale exponent": _exponent_bits(24), "spread exponent": _exponent_bits(32)}


def test_valid_crc_mutations_decode_or_fail_fast():
    hit = set()

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([1.0, 2.0, math.inf]),
        st.booleans(),
        st.sampled_from([12, 60]),
        st.sampled_from((None,) + ref.COLUMNS + tuple(_HEADER)),
        st.lists(st.integers(min_value=0), min_size=1, max_size=3),
    )
    def mutate(p, landmarks, n, column, flips):
        blob = _fuzz_blob(p, landmarks, n)
        body = bytearray(blob[:-4])
        # flips inside one payload column or header field; None, or a
        # column the blob lacks, flips anywhere in header and payload
        targets = {**_columns(blob), **_HEADER}.get(column) or range(8 * len(body))
        if column in _HEADER or _columns(blob).get(column):
            hit.add(column)
        for f in flips:
            bit = targets[f % len(targets)]
            body[bit // 8] ^= 1 << (7 - bit % 8)
        t0 = time.perf_counter()
        try:
            model = deserialize(_with_crc(body))
        except SketchError:
            model = None
        assert time.perf_counter() - t0 < 2.0
        if model is None:
            return
        # every rule of a sketch tree holds on what decodes: the decoder
        # checks three (``_part_fault``) and its shape forces the rest
        ref.verify_tree(model.tree)
        # a blob that decodes gives the exact sums' floats in both modes,
        # and finite estimates, or an Estimator refuses its scale
        exact = ref.exact_shift_floats(model)
        modes = ["precomputed"] + ["landmark"] * (model.landmarks is not None)
        for mode in modes:
            try:
                est = Estimator(model, mode=mode)
            except FormatError as exc:
                assert "may overflow" in str(exc)
                continue
            got = np.array([est.shifted_surrogate(v) for v in range(model.tree.n_nodes)])
            assert np.array_equal(got, exact)
            assert math.isfinite(est.estimate(0, model.n - 1))
            assert np.isfinite(est.estimate_all_pairs()).all()

    for column in ref.COLUMNS:  # every column of one blob that has them all
        mutate = example(2.0, True, 60, column, [0, 7, 2**40 + 3])(mutate)
    mutate()
    assert hit == {*ref.COLUMNS, *_HEADER}


def test_scale_that_overflows_every_estimate_refused():
    # a valid CRC over a scale of 3.76e307 (bit 6 of its top byte flipped):
    # the decoder reads it, and both Estimator modes refuse it where every
    # estimate would once have been inf or raised inside estimate_all_pairs
    blob = sketch_points(gen_gaussian_clusters(60, 3, 1), 2.0, SketchParams(0.25, landmarks=True))
    body = bytearray(blob[:-4])
    body[38] ^= 1 << 6
    bad = _with_crc(body)
    model = deserialize(bad)
    assert model.scale > 1e307
    for mode in ("precomputed", "landmark"):
        with pytest.raises(FormatError, match="may overflow"):
            Estimator(bad, mode=mode)
    # the builder refuses the same input: raw coordinates that large
    pts = gen_gaussian_clusters(60, 3, 1) * 1e306
    with pytest.raises(InputError, match="may overflow"):
        sketch_points(pts, 2.0, SketchParams(0.25, landmarks=True))


@pytest.mark.parametrize("t", [57, 58, 59, 60, 512])
def test_landmark_fields_of_every_width_roundtrip(t):
    # K+2 = t+5.  The sketch selects no landmark; its node with the largest
    # shift, of t+3 bits (int64 up to t = 59, exact ints beyond), becomes
    # one by its id alone, and its replayed row is the exact sum's floats
    ps = normalize(gen_high_spread_line(32, t, 1), 2.0)
    res = build_sketch(ps, SketchParams(epsilon=0.25, jl_enabled=False, landmarks=True))
    model = res.model
    assert k_parameter(model.spread, model.epsilon, model.d, model.p) + 2 == t + 5
    assert model.landmarks == []
    v = max(range(model.tree.n_nodes), key=lambda v: res.table.shift_int[v][0])
    assert int(res.table.shift_int[v][0]).bit_length() == t + 3
    model.landmarks = [v]
    blob = serialize(model)
    decoded = deserialize(blob)
    assert decoded.landmarks == [v]
    assert serialize(decoded) == blob
    est = Estimator(blob, mode="landmark")
    got = np.array([est.shifted_surrogate(u) for u in range(model.tree.n_nodes)])
    assert np.array_equal(got, ref.exact_shift_floats(decoded))
    assert np.array_equal(got[v], shift_to_float(res.table.shift_int[v], res.table.unit))
