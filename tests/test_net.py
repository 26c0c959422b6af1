"""Displacement nets: grid rounding and the bounds of the grid codec."""

import math

import numpy as np
import pytest

from mcsketch import net
from mcsketch._bitio import pack_fields
from mcsketch.codec import _read_rice, _rice_columns
from mcsketch.core import FormatError, GuaranteeError, lp_distance


def _norm(x, p):
    return lp_distance(x, np.zeros_like(x), p)


def _rounded(x, delta, d, p):
    """The grid point the builder rounds x to, in float coordinates."""
    return net.grid_indices(x, delta, d, p) * net.per_coord_scale(delta, d, p)


# --------------------------------------------------------------------------
# Grid rounding.


def test_grid_indices_example():
    # d=1, p=2, delta=1/2: grid side 0.5; 0.7 rounds down to 0.5
    assert _rounded(np.array([0.7]), 0.5, 1, 2.0)[0] == 0.5


def test_round_ties_toward_negative_infinity():
    assert _rounded(np.array([0.75]), 0.5, 1, 2.0)[0] == 0.5
    assert _rounded(np.array([-0.75]), 0.5, 1, 2.0)[0] == -1.0
    assert _rounded(np.array([0.25]), 0.5, 1, 2.0)[0] == 0.0


def test_grid_indices_error_bound():
    rng = np.random.default_rng(0)
    for p in (1.0, 2.0, math.inf):
        for delta in (0.5, 0.25, 0.125):
            for d in (1, 2, 5):
                side = net.per_coord_scale(delta, d, p)
                x = rng.uniform(-1, 1, size=d)
                x = x / max(1.0, _norm(x, p))  # rounding domain is the unit ball
                y = _rounded(x, delta, d, p)
                assert np.abs(x - y).max() <= side / 2 + 1e-15
                # multiples of the side, so the lp error is at most delta/2
                assert lp_distance(x, y, p) <= delta / 2 + 1e-12


def test_grid_indices_rejects_overflow():
    with pytest.raises(GuaranteeError):
        net.grid_indices(np.array([2.0, 0.0]), 0.5, 2, 2.0)


def test_grid_indices_are_int_multiples():
    x = np.array([0.3, -0.4])
    m = net.grid_indices(x, 0.5, 2, 2.0)
    side = net.per_coord_scale(0.5, 2, 2.0)
    assert m.dtype == np.int64
    assert m.tolist() == [1, -1]  # 0.3 / side = 0.85, -0.4 / side = -1.13
    assert np.array_equal(net.grid_indices(m * side, 0.5, 2, 2.0), m)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, math.inf])
def test_grid_indices_rows_match_single_vectors(p):
    # k rows with one delta each round bit for bit as k separate calls
    rng = np.random.default_rng(2)
    d = 4
    deltas = np.array([0.5, 0.25, 1 / 6, 0.125 / 7, 1 / 16, 0.5, 0.25, 0.125])
    rows = rng.uniform(-1, 1, size=(deltas.size, d))
    rows /= np.maximum(1.0, [_norm(x, p) for x in rows])[:, None]
    # exact half-grid ties: with d = 4 the side is delta over a power of two
    # for p in {1, 2, inf}, so (k + 1/2) * side is a tie on the float grid
    ties = np.array([[0, 1, -1, -2], [1, 0, 0, -1], [-1, 0, 2, 0]]) + 0.5
    for i, k in enumerate(ties, start=5):
        rows[i] = k * net.per_coord_scale(deltas[i], d, p)
    want = np.stack([net.grid_indices(x, de, d, p) for x, de in zip(rows, deltas)])
    got = net.grid_indices(rows, deltas, d, p)
    assert got.dtype == np.int64 and np.array_equal(got, want)
    if p != 1.5:
        assert np.array_equal(got[5:], np.floor(ties))  # ties toward -infinity
    scalar = net.grid_indices(rows, 0.5, d, p)
    assert np.array_equal(scalar, [net.grid_indices(x, 0.5, d, p) for x in rows])


def test_grid_indices_rows_refuse_one_row_over_bound():
    rows = np.zeros((5, 2))
    rows[3] = [2.0, 0.0]
    with pytest.raises(GuaranteeError, match="displacement norm 2.0 exceeds"):
        net.grid_indices(rows, np.full(5, 0.5), 2, 2.0)


def test_delta_effective():
    assert net.delta_effective(0.25, True, 5) == 0.25 / 5
    assert net.delta_effective(0.25, False, 5) == 1.0 / 5
    assert net.delta_effective(0.5, True, 8) == 0.0625


# --------------------------------------------------------------------------
# Grid codec (bounded integer coordinates).


def test_grid_bound_example():
    # d=16, p=2, delta=1/10: B = ceil(1.1 * 4 / 0.1) = 44, so every zigzag
    # value the codec stores is at most 88
    assert net.grid_bound(0.1, 16, 2.0) == 44


def test_d1_net_points():
    # d=1, delta=1/2: grid side 1/2 and B = ceil(1.5 / 0.5) = 3
    b = net.grid_bound(0.5, 1, 2.0)
    pts = np.arange(-b, b + 1) * net.per_coord_scale(0.5, 1, 2.0)
    assert pts.tolist() == [-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5]


def test_grid_bound_fits_int64():
    assert net.grid_bound_fits(0.5, 1, 2.0)
    # d=1, delta = 2^-t with 1 + delta == 1.0 in floats: B = 2^t
    assert net.grid_bound(2.0**-63, 1, 2.0) == 2**63
    assert net.grid_bound_fits(2.0**-62, 1, 2.0)
    assert not net.grid_bound_fits(2.0**-63, 1, 2.0)
    assert not net.grid_bound_fits(2.0**-1074, 4, 2.0)  # B overflows a float
    assert not net.grid_bound_fits(0.0, 4, 2.0)


def test_grid_codec_roundtrip():
    # the builder's integers through the codec's own encoder and decoder
    rng = np.random.default_rng(1)
    roots = [0, 3]  # class -1 stores nothing and reads as zeros, as part roots do
    classes = np.where(np.arange(7) % 3 == 1, 0, 2)  # first children and others
    classes[roots] = -1
    for p in (1.0, 2.0, math.inf):
        for delta in (0.5, 0.125):
            d = 4
            b = net.grid_bound(delta, d, p)
            ms = []
            for x in rng.uniform(-1, 1, size=(7, d)):
                ms.append(net.grid_indices(x / max(1.0, _norm(x, p)), delta, d, p))
            ms = np.array(ms)
            assert np.abs(ms).max() <= b
            bounds = np.array([0 if i in roots else b for i in range(7)])
            data, bits = pack_fields(_rice_columns(ms, bounds, classes))
            back, end = _read_rice(data, 0, bits, bounds, classes, d)
            ms[roots] = 0
            assert back.dtype == np.int64 and np.array_equal(back, ms) and end == bits


def test_grid_codec_rejects_out_of_bounds():
    b = net.grid_bound(0.5, 1, 2.0)
    bounds, later = np.array([b]), np.array([2])
    assert b == 3
    for m in (-b - 1, b + 1):
        with pytest.raises(ValueError, match=r"outside \[-3, 3\]"):
            _rice_columns(np.array([[m]]), bounds, later)
    # zigzag 7 = 2B + 1 at k = 2 (in 2 bits, as k <= bitlen(2B) = 3):
    # quotient 1, remainder 3
    data, bits = pack_fields([(np.array([2]), 2), (np.array([0, 1, 1, 1]), 1)])
    with pytest.raises(FormatError, match="zigzag value 7 of node 0 exceeds 2B = 6"):
        _read_rice(data, 0, bits, bounds, later, 1)
