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
    read_fields,
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
    r = ref.BitReader(data, 18)
    r.read_uint(4)
    assert ref.read_gammas(r, 1) == [9] and r.position == 11


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
    with pytest.raises(FormatError):
        read_unary(data, 2, 1, 7)  # five zeros and no terminating one
    with pytest.raises(FormatError):
        read_unary(data, 0, 3, 2)  # two one-bit codes, then nothing
    # a landmark count whose unary part announces low bits past the
    # payload's end: 2^40 - 1 has 39 of them, and the decoder reads its one
    # bit and those as one field of 40 bits, of which 39 remain
    code = np.unpackbits(np.frombuffer(pack_fields(gamma_columns([2**40 - 1]))[0], np.uint8))
    with pytest.raises(FormatError, match="landmark count needs 40 bits, 39 remain"):
        deserialize(_with_landmark_count(code[:78].tolist()))


def test_gamma_code_announcing_63_low_bits_refused():
    # gamma values stay below 2^63: the decoder refuses a landmark count
    # whose unary part announces 63 low bits, here those of 2^63 + 5,
    # before it reads them
    bits = [0] * 63 + [1] + [int(b) for b in format(5, "063b")]
    with pytest.raises(FormatError, match="announces 63 low bits"):
        deserialize(_with_landmark_count(bits))


def _rice_section(*fields) -> tuple[bytes, int]:
    """A displacement section written field by field: (value, width) pairs
    and lists of bits."""
    w = ref.BitWriter()
    for f in fields:
        for value, width in [f] if isinstance(f, tuple) else [(b, 1) for b in f]:
            w.write_uint(value, width)
    return w.getvalue(), w.bit_length


def test_rice_section_hostile_streams_refused():
    later = np.array([2])  # a later child with short children: class 2
    # B = 3, d = 2: no flag (the alphabet of 7 outnumbers 2 values) and k
    # in 2 bits; two codes announced, one terminating one before the
    # remainders
    data, bits = _rice_section((2, 2), [0, 1], [0, 0, 0, 0])
    with pytest.raises(FormatError, match="past the end"):
        _read_rice(data, 0, bits, np.array([3]), later, 2)
    # B = 2^62 at k = 63 (in 6 bits) gives 2B >> k = 1: quotient 2 is
    # refused before it is shifted, where 2 << 63 would wrap to 0 in uint64
    # (quotients that no shift can wrap are refused with their values)
    data, bits = _rice_section((63, 6), [0, 0, 1], [0] * 63)
    with pytest.raises(FormatError, match="quotient 2 of node 0 exceeds 2B >> k = 1"):
        _read_rice(data, 0, bits, np.array([2**62]), later, 1)
    # B = 5: k in 0..bitlen(10) = 4, in 3 bits.  Quotient 2 (= 2B >> k) at
    # k = 2 with remainder 3 makes zigzag 11 > 2B; remainder 2 makes m = 5
    data, bits = _rice_section((2, 3), [0, 0, 1], [1, 1])
    with pytest.raises(FormatError, match="zigzag value 11 of node 0 exceeds 2B = 10"):
        _read_rice(data, 0, bits, np.array([5]), later, 1)
    data, bits = _rice_section((2, 3), [0, 0, 1], [1, 0])
    assert _read_rice(data, 0, bits, np.array([5]), later, 1)[0].tolist() == [[5]]
    data, bits = _rice_section((5, 3), [1])
    with pytest.raises(FormatError, match="Rice parameter 5 of class 2 exceeds 4"):
        _read_rice(data, 0, bits, np.array([5]), later, 1)
    with pytest.raises(FormatError, match="Rice parameter of class 2 needs 3 bits, 2 remain"):
        _read_rice(data, 0, 2, np.array([5]), later, 1)
    # bound 0, a part root's first child: no head, no row, zeros
    eta, end = _read_rice(b"", 0, 0, np.array([0]), np.array([0]), 3)
    assert eta.tolist() == [[0, 0, 0]] and end == 0
    # a header dimension of 2^31 with B = 5: a flag (0) and k = 0, then the
    # row needs 2^31 bits, refused before anything is allocated
    data, bits = _rice_section((0, 1), (0, 3), [1] * 8)
    with pytest.raises(FormatError, match="displacement of node 0 needs at least 2147483648 bits"):
        _read_rice(data, 0, bits, np.array([5]), later, 2**31)


def test_rank_table_hostile_streams_refused():
    # B = 5 and d = 11: the alphabet 0..10 fits the 11 values, so a flag
    # bit comes first; table values take 4 bits and k 3 bits
    b, later, d = np.array([5]), np.array([2]), 11
    cases = {
        # gamma(12), three zeros: one more value than the alphabet
        "table of class 2 holds 12 values, more than its alphabet of 11": [
            (1, 1), [0, 0, 0, 1], (4, 3)
        ],
        # four zeros announce at least 16 values, refused before the rest
        "table of class 2 holds at least 16 values, more than its alphabet of 11": [
            (1, 1), [0, 0, 0, 0, 1]
        ],
        # gamma(11), then a payload that ends long before 11 values of 4 bits
        "table of class 2 needs 44 bits, 8 remain": [(1, 1), [0, 0, 0, 1], (3, 3), (0, 8)],
        "table of class 2 repeats value 3": [(1, 1), [0, 1], (0, 1), (3, 4), (3, 4), (0, 3)],
        "table value 12 of class 2 exceeds 2 B_max = 10": [(1, 1), [1], (12, 4), (0, 3)],
        # A = 3 at k = 2: rank 3 (quotient 0, remainder 3) is not below A
        "rank 3 of node 0 is not below the 3 values of class 2's table": [
            (1, 1), [0, 1], (1, 1), (0, 4), (1, 4), (2, 4), (2, 3), [1] * d,
            [1] + [0] * (d - 1), [1] + [0] * (d - 1),
        ],
        # A = 3 at k = 0: rank 7 in unary, which no shift can wrap
        "rank 7 of node 0 is not below the 3 values of class 2's table": [
            (1, 1), [0, 1], (1, 1), (0, 4), (1, 4), (2, 4), (0, 3), [0] * 7, [1] * d,
        ],
    }
    for message, fields in cases.items():
        data, bits = _rice_section(*fields)
        with pytest.raises(FormatError, match=message):
            _read_rice(data, 0, bits, b, later, d)
    # a table value may exceed the 2B of a node below the class's B_max:
    # bounds 5 and 1 at d = 6, table (4, 0), k = 0; node 0 takes rank 0
    # (4, so m = 2) and node 1 rank 1 (0), or rank 0, which is refused
    b, later, d = np.array([5, 1]), np.array([2, 2]), 6
    head = [(1, 1), [0, 1], (0, 1), (4, 4), (0, 4), (0, 3)]
    data, bits = _rice_section(*head, [1] * d, [0, 1] * d)
    eta, end = _read_rice(data, 0, bits, b, later, d)
    assert eta.tolist() == [[2] * d, [0] * d] and end == bits
    data, bits = _rice_section(*head, [1] * d, [0, 1] * (d - 1), [1])
    with pytest.raises(FormatError, match="table value 4 of node 1 exceeds 2B = 2"):
        _read_rice(data, 0, bits, b, later, d)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 3),
            st.one_of(
                st.integers(-2, 2), st.integers(-20, 20), st.integers(-(2**63), 2**63 - 1)
            ),
            st.sampled_from([0, 1, 3, 2**20]),
        ),
        min_size=1,
        max_size=60,
    )
)
@example([(3, 2, 0)] * 20 + [(3, -1, 0), (0, 5, 0)])  # class 3 takes a table
def test_rice_parameters_are_the_exhaustive_best(items):
    # the encoder's exact costing by bit counts picks, per class, the table
    # (or none) and the k that the scalar search picks: over every k in
    # 0..63, on the values and, where the alphabet 0..2 B_max is no larger
    # than the class's count of values, on their ranks plus the table's
    # bits.  Zigzag values reach 64 bits, which no cost of its may
    # overflow; bounds |m| plus some slack make alphabets that both fit
    # the values and outnumber them
    classes = [c for c, _, _ in items]
    bounds = [max(abs(m) + extra, 1) for _, m, extra in items]
    z = np.array([[ref.zigzag(m)] for _, m, _ in items], dtype=np.uint64)
    tops = [top and top[0] for top in ref.rice_tops(classes, bounds, 1)]
    ks, tables = _rice_parameters(z, np.array(classes), tops)
    heads = ref.rice_heads([[m] for _, m, _ in items], classes, bounds)
    got = [
        None if tops[c] is None else (None if t is None else t.tolist(), int(ks[c]))
        for c, t in enumerate(tables)
    ]
    assert got == heads


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
    r = ref.BitReader(data, sum(widths))
    assert ref.read_gammas(r, len(values)) == values and r.position == sum(widths)


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
            assert ref.read_gammas(r, len(f[1])) == f[1]
            assert r.position == start + width


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
    # runs of 1..64-bit fields at every bit alignment, widths mixed in one
    # read, and each run alone through the reader of one width
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
        assert read_fields(data, start, count, width).tolist() == row


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


def _raw_heads(model) -> list:
    """Displacement heads without tables and with k = 0, for any rows."""
    rows = model.eta_ints.tolist()
    classes = ref.rice_classes(model.tree)
    bounds = net.tree_bounds(model.tree, model.epsilon, model.d, model.p)
    return [None if h is None else (None, 0) for h in ref.rice_heads(rows, classes, bounds)]


def test_grid_integer_beyond_tree_bound_refused_at_decode():
    # the blob stores no precision: every node's bound comes from the tree.
    # A value at +-B decodes; one at +-(B+1), which serialize refuses, is
    # written by the scalar writer (as a zigzag value, with no table) and
    # refused by the decoder.  A node of bound 0 stores no row, so no value
    # of its can be written at all
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
            payload, bits, _ = ref.write_payload(model, _raw_heads(model))
            if bounds[v]:
                with pytest.raises(FormatError, match=f"of node {v} exceeds 2B"):
                    deserialize(_with_payload(blob, payload, bits))
            else:
                model.eta_ints[v, 0] = 0
                assert (payload, bits) == ref.write_payload(model, _raw_heads(model))[:2]
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
    # serialize refuses an ingress under a sibling but across a long edge,
    # which no rank can name (ranks count only the nodes of the parent's
    # part), and, with the decoder's message, a cycle
    blob = _fuzz_blob(2.0, False, 60)
    model = deserialize(blob)
    tree = model.tree
    end = ref.subtree_ends(tree)
    c, u = next(
        (c, u)
        for c, _, _ in ref.ingress_ranks(tree, model.ingress)
        for u in range(tree.parent[c] + 1, end[tree.parent[c]])
        if not c <= u < end[c] and not tree.has_short[u] and tree.part_of[u] != tree.part_of[c]
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
    # moved the displacements from fixed widths to Rice codes, version 6
    # dropped the precisions and made ingress references local ranks,
    # version 7 added rank tables and sized the Rice parameters by the
    # tree, and version 8 stores flags only under one-child parents, Rice
    # codes of the gaps and ranks within the parent's part; older blobs are
    # refused, not read by a second parser
    blob = _blob(np.random.default_rng(9).normal(size=(10, 2)) * 7)
    assert struct.unpack_from("<H", blob, 4) == (VERSION,) == (8,)
    for old in (1, 2, 3, 4, 5, 6, 7):
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


def _with_landmark_count(bits: list[int]) -> bytes:
    """A landmark blob whose payload ends with ``bits`` in place of its
    landmark count and ids, its bit length and CRC set to match."""
    blob = _fuzz_blob(2.0, True, 60)
    head = size_report(blob).header_bytes
    start = _columns(blob)["landmark count"].start - 8 * head
    payload, _, _ = ref.write_payload(deserialize(blob))
    stream = np.unpackbits(np.frombuffer(payload, np.uint8))[:start].tolist() + bits
    return _with_payload(blob, np.packbits(stream).tobytes(), len(stream))


def test_landmark_count_code_beyond_63_low_bits_refused():
    # the landmark count's gamma code rewritten to announce 70 low bits, a
    # count of 2^70 - 1 (ids and all else after it dropped): the reader
    # refuses the code before it reads its low bits or sizes a column
    with pytest.raises(FormatError, match="gamma code announces 70 low bits"):
        deserialize(_with_landmark_count([0] * 70 + [1] + [0] * 70))


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
    # row within its bounds one the Rice section can, in a class with or
    # without a rank table: the column readers read back the scalar
    # writer's payload, and the codec writes it bit for bit, rank widths,
    # exhaustive Rice parameters and table choices included.  Half the
    # examples force each class's head instead: a table, in any order of
    # the class's values, wherever the alphabet allows one, or none, and
    # any k that keeps the quotients short; both readers read those back.
    # Drawn from their ranges, the ingresses may close a cycle: then
    # serialize refuses the model with the message the decoder gives for
    # that payload
    ps = ref.small_instance(seed, 14, 2, p, kind)
    assume(ps is not None)
    params = SketchParams(epsilon=0.25, jl_enabled=False, landmarks=landmarks)
    built = build_sketch(ps, params)
    model = built.model
    tree = model.tree
    for c, _, _ in ref.ingress_ranks(tree, model.ingress):
        span = ref.rank_range(tree, c)
        model.ingress[c] = span[data.draw(st.integers(0, len(span) - 1))]
    bounds = net.tree_bounds(tree, model.epsilon, model.d, model.p)
    labels = ref.rice_classes(tree)
    classes = np.array([-1 if k is None else k for k in labels])
    # per class, values up to 0, 1, 5 or the bound, so the four k differ
    caps = [data.draw(st.sampled_from([0, 1, 5, 2**62])) for _ in range(4)]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    for v in np.flatnonzero(classes >= 0):
        top = min(int(bounds[v]), caps[classes[v]])
        model.eta_ints[v] = rng.integers(-top, top + 1, size=model.d)
    rows = model.eta_ints.tolist()
    heads = ref.rice_heads(rows, labels, bounds)
    forced = data.draw(st.booleans())
    if forced:
        tops = ref.rice_tops(labels, bounds, model.d)
        for c, top in enumerate(tops):
            if top is None:
                continue
            values = sorted(
                {ref.zigzag(m) for v in np.flatnonzero((classes == c) & (bounds > 0)) for m in rows[v]}
            )
            table = None
            if top[0] + 1 <= top[1] and data.draw(st.booleans()):
                table = data.draw(st.permutations(values))
            width = (len(table) - 1 if table else values[-1]).bit_length()
            k = data.draw(st.integers(max(0, width - 3), min(63, top[0].bit_length())))
            heads[c] = (table, k)
    payload, bits, starts = ref.write_payload(model, heads)
    parent = np.array(tree.parent)
    ingress, end = _read_ingress(payload, starts["ingress ranks"], bits, tree, parent)
    assert end == starts["Rice heads"] and np.array_equal(ingress, model.ingress)
    eta, end = _read_rice(payload, end, bits, bounds, classes, model.d)
    assert end == starts["landmark count"] and np.array_equal(eta, model.eta_ints)
    r = ref.BitReader(payload, bits)
    r.position = starts["Rice heads"]
    assert ref.read_rice_section(r, labels, bounds, model.d) == rows
    assert r.position == starts["landmark count"]
    if forced:
        return
    try:
        blob = serialize(model)
    except GuaranteeError as exc:
        with pytest.raises(FormatError, match=re.escape(str(exc))):
            deserialize(_with_payload(built.blob, payload, bits))
    else:
        assert blob == _with_payload(built.blob, payload, bits)


def test_ingress_rank_at_its_range_count_refused():
    # a rank equal to its range's count fits its field unless the count is
    # a power of two; the decoder refuses it before it indexes anything
    blob = _fuzz_blob(2.0, True, 60)
    c, count, bits, _ = next(f for f in _rank_fields(blob) if f[1] & (f[1] - 1))
    with pytest.raises(FormatError, match=f"ingress rank {count} of node {c} is not below"):
        deserialize(_rewritten(blob, bits, count))


def test_stream_cut_inside_the_edge_flags_refused():
    # the payload ends inside the flag column, one bit per edge under a
    # one-child parent, which is read as one slice of bits once its length
    # is checked
    blob = _fuzz_blob(2.0, True, 60)
    model = deserialize(blob)
    head = size_report(blob).header_bytes
    flags = _columns(blob)["edge flags"]
    assert 0 < len(flags) == len(ref.flagged_edges(model.tree)) < model.tree.n_nodes - 1
    cut = flags.start + len(flags) // 2 - 8 * head
    payload, _, _ = ref.write_payload(model)
    kept = bytearray(payload[: (cut + 7) // 8])
    if cut % 8:
        kept[-1] &= 0xFF << (8 - cut % 8) & 0xFF  # zero padding
    remain = cut - (flags.start - 8 * head)
    with pytest.raises(FormatError, match=f"edge flags need {len(flags)} bits, {remain} remain"):
        deserialize(_with_payload(blob, bytes(kept), cut))


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
    # the writer once wrote these trees, and the decoder refused the blobs;
    # since MCSK v8 the layout cannot express the first and the third (no
    # flag under a parent of two children, none under a one-child root)
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


def test_root_above_the_spread_refused():
    # two long edges of gap 2 under short edges from a root at level 3: a
    # spread of 2 allows a depth of 2 and gaps of 2, not the root's level.
    # The root cannot sit below level 1, since n >= 2 leaves put an edge
    # under it and all of them on one level
    model = _long_edge_chain(1, 2)
    model.spread = 2.0
    _decoders_refuse(ref.write_blob(model), "root level 3 inconsistent with spread 2.0")
    with pytest.raises(GuaranteeError, match="root level 3 inconsistent with spread 2.0"):
        serialize(model)


def _relevelled(root_up: int, all_up: int) -> SketchModel:
    """A 12-point model with its root raised ``root_up`` levels and every
    node ``all_up`` more, under a spread scaled to match."""
    ps = normalize(gen_gaussian_clusters(12, 2, 3), 2.0)
    model = build_sketch(ps, SketchParams(0.25, jl_enabled=False)).model
    tree = model.tree
    level = [lvl + all_up for lvl in tree.level]
    level[0] += root_up
    model.tree = SketchTree(level, tree.parent, tree.long_edge, tree.leaf_label)
    model.spread *= 2.0 ** (root_up + all_up)
    return model


@pytest.mark.parametrize(
    "root_up, all_up, match",
    [(1, 0, "short edge into 1 descends 2 levels, not 1"), (0, 1, "leaf 7 is at level 1, not 0")],
    ids=["root-raised", "leaves-raised"],
)
def test_serialize_refuses_levels_the_blob_cannot_hold(root_up, all_up, match):
    # the blob stores the long edges' gaps and no level: the decoder lets
    # short edges descend one level and pins the leaves to 0.  The writer
    # once wrote both models without a word, and the first decoded with
    # its root at level 10, not 11
    model = _relevelled(root_up, all_up)
    assert model.tree.level[0] == 10 + root_up + all_up
    with pytest.raises(GuaranteeError, match=match):
        serialize(model)


def _with_bits(blob: bytes, at: int, bits: list[int]) -> bytes:
    """``blob`` with ``bits`` put in before bit ``at`` of its payload, the
    payload bit length and the CRC set to match."""
    rep = size_report(blob)
    payload = np.frombuffer(blob[rep.header_bytes : -rep.crc_bytes], np.uint8)
    stream = np.unpackbits(payload)[: rep.payload_bits].tolist()
    stream[at:at] = bits
    return _with_payload(blob, np.packbits(stream).tobytes(), len(stream))


def test_gap_section_hostile_streams_refused():
    # at top = 4 the gaps' Rice parameter lies in 0..bitlen(top - 2) = 2,
    # in 2 bits, so 3 fits its field
    blob = _fuzz_blob(math.inf, True, 12)
    assert math.frexp(deserialize(blob).spread)[1] == 4
    with pytest.raises(FormatError, match="gap Rice parameter 3 exceeds 2"):
        deserialize(_rewritten(blob, _columns(blob)["gaps"][:2], 3))
    # at top = 6 and k = 0, zeros put before the first long edge's
    # quotient carry its gap past the top
    blob = _fuzz_blob(2.0, True, 60)
    model = deserialize(blob)
    gaps = _columns(blob)["gaps"]
    r = ref.BitReader(blob, 8 * len(blob))
    r.position = gaps.start
    assert math.frexp(model.spread)[1] == 6 and r.read_uint(2) == 0
    v = model.tree.long_edge.index(True)
    at = gaps.start + 2 - 8 * size_report(blob).header_bytes
    hostile = _with_bits(blob, at, [0] * (7 - ref.edge_gap(model.tree, v)))
    with pytest.raises(FormatError, match=f"long edge into {v} has gap 7 above the spread's 6"):
        deserialize(hostile)


def test_header_fields_out_of_range_refused():
    # cuts inside the rational norm's two u32 fields and inside the fixed
    # header, refused before the CRC is read; a point count outside [2,
    # 2^40) and a scale that is not finite and positive, under a valid CRC
    rational = _blob(np.random.default_rng(3).normal(size=(6, 2)) * 9, p=1.5)
    assert rational[6] == 0
    with pytest.raises(FormatError, match="truncated inside the rational norm field"):
        deserialize(rational[:12])
    blob = _blob(np.random.default_rng(9).normal(size=(10, 2)) * 7)
    for cut in (rational[:30], blob[:30], blob[:55]):
        with pytest.raises(FormatError, match="truncated inside the header"):
            deserialize(cut)
    for n in (0, 1, 2**40, 2**64 - 1):
        with pytest.raises(FormatError, match=f"implausible point count {n}"):
            deserialize(_patch_header(blob, 0, "<Q", n))
    for scale in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(FormatError, match="implausible scale"):
            deserialize(_patch_header(blob, 24, "<d", scale))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1.0, 2.0, math.inf]), st.booleans())
def test_random_trees_match_the_scalar_writer(seed, p, landmarks):
    # serialize writes, byte for byte, what the scalar writer writes for a
    # random sketch tree, and the blob decodes to the same model; an
    # ingress cycle is refused by both ends with the decoder's message
    model = ref.random_sketch_model(np.random.default_rng(seed), p, landmarks)
    assume(model is not None)
    ref.verify_tree(model.tree)
    try:
        blob = serialize(model)
    except GuaranteeError as exc:
        assert str(exc) == "ingress references contain a cycle"
        _decoders_refuse(ref.write_blob(model), str(exc))
        return
    assert blob == ref.write_blob(model)
    decoded = deserialize(blob)
    assert decoded.tree == model.tree
    assert np.array_equal(decoded.ingress, model.ingress)
    assert np.array_equal(decoded.eta_ints, model.eta_ints)
    assert decoded.landmarks == model.landmarks


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
    # the header's d sizes every class's count of values, and so where the
    # displacement heads hold a table flag: whichever check refuses such a
    # blob first (a Rice parameter out of range, or a row that cannot fit,
    # see test_rice_section_hostile_streams_refused), it does so before
    # anything of d values per row is allocated
    blob = _blob(np.random.default_rng(10).normal(size=(8, 2)) * 7)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="Rice parameter|displacement of node"):
            deserialize(_patch_header(blob, 8, "<Q", d))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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
        # checks one (``_chain_fault``) and its layout forces the rest
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
