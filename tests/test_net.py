"""Displacement nets: grid rounding and the bounds of the grid codec."""

import math

import numpy as np
import pytest

from mcsketch import net
from mcsketch._bitio import BitWriter
from mcsketch.codec import _biased_runs, _read_grid
from mcsketch.core import FormatError, GuaranteeError, lp_distance, lp_norm


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
                x = x / max(1.0, lp_norm(x, p))  # rounding domain is the unit ball
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


def test_delta_effective():
    assert net.delta_effective(0.25, True, 5) == 0.25 / 5
    assert net.delta_effective(0.25, False, 5) == 1.0 / 5
    assert net.delta_effective(0.5, True, 8) == 0.0625


# --------------------------------------------------------------------------
# Grid codec (bounded integer coordinates).


def test_grid_bit_width_example():
    # d=16, p=2, delta=1/10: B = ceil(1.1 * 4 / 0.1) = 44, width(88) = 7
    assert net.grid_bound(0.1, 16, 2.0) == 44
    assert net.grid_bit_width(0.1, 16, 2.0) == 7


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


def _written(runs, bits):
    """Bytes of runs of ``bits`` bits each, written back to back, and the
    bit each run starts at."""
    w = BitWriter()
    starts = []
    for run in runs:
        starts.append(w.bit_length)
        w.write_uint(run, bits)
    return w.getvalue(), starts


def test_grid_codec_roundtrip():
    # the builder's integers through the codec's own encoder and decoder
    rng = np.random.default_rng(1)
    roots = [0, 3]  # zero-width rows, as part roots are read
    for p in (1.0, 2.0, math.inf):
        for delta in (0.5, 0.125):
            d = 4
            b = net.grid_bound(delta, d, p)
            width = net.grid_bit_width(delta, d, p)
            ms = []
            for x in rng.uniform(-1, 1, size=(7, d)):
                ms.append(net.grid_indices(x / max(1.0, lp_norm(x, p)), delta, d, p))
            ms = np.array(ms)
            assert np.abs(ms).max() <= b
            data, starts = _written(_biased_runs(ms, [b] * 7, width), d * width)
            widths = [0 if i in roots else width for i in range(7)]
            bounds = [0 if i in roots else b for i in range(7)]
            back = _read_grid(data, starts, widths, bounds, d)
            ms[roots] = 0
            assert back.dtype == np.int64 and np.array_equal(back, ms)


def test_grid_codec_rejects_out_of_bounds():
    b = net.grid_bound(0.5, 1, 2.0)
    width = net.grid_bit_width(0.5, 1, 2.0)
    assert (b, width) == (3, 3)
    for m in (-b - 1, b + 1):
        with pytest.raises(ValueError):
            _biased_runs(np.array([[m]]), [b], width)
    data, starts = _written([2 * b + 1], width)
    with pytest.raises(FormatError, match="exceeds bound"):
        _read_grid(data, starts, [width], [b], 1)
