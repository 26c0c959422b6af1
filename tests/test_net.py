"""Displacement nets: grid rounding and the grid codec."""

import math

import numpy as np
import pytest

from mcsketch import net
from mcsketch.core import FormatError, GuaranteeError, InputError


# --------------------------------------------------------------------------
# Grid rounding.


def test_round_to_grid_example():
    # d=1, p=2, delta=1/2: grid side 0.5; 0.7 rounds down to 0.5
    got = net.round_to_grid(np.array([0.7]), 0.5, 1, 2.0)
    assert got[0] == 0.5


def test_round_ties_toward_negative_infinity():
    assert net.round_to_grid(np.array([0.75]), 0.5, 1, 2.0)[0] == 0.5
    assert net.round_to_grid(np.array([-0.75]), 0.5, 1, 2.0)[0] == -1.0
    assert net.round_to_grid(np.array([0.25]), 0.5, 1, 2.0)[0] == 0.0


def test_round_to_grid_error_bound():
    from mcsketch.core import lp_norm

    rng = np.random.default_rng(0)
    for p in (1.0, 2.0, math.inf):
        for delta in (0.5, 0.25, 0.125):
            for d in (1, 2, 5):
                side = net.per_coord_scale(delta, d, p)
                x = rng.uniform(-1, 1, size=d)
                x = x / max(1.0, lp_norm(x, p))  # rounding domain is the unit ball
                y = net.round_to_grid(x, delta, d, p)
                assert np.abs(x - y).max() <= side / 2 + 1e-15
                # multiples of the side, so the lp error is at most delta/2
                from mcsketch.core import lp_distance

                assert lp_distance(x, y, p) <= delta / 2 + 1e-12


def test_grid_indices_rejects_overflow():
    with pytest.raises(GuaranteeError):
        net.grid_indices(np.array([2.0, 0.0]), 0.5, 2, 2.0)


def test_grid_indices_are_int_multiples():
    x = np.array([0.3, -0.4])
    m = net.grid_indices(x, 0.5, 2, 2.0)
    side = net.per_coord_scale(0.5, 2, 2.0)
    assert m.dtype == np.int64
    assert np.array_equal(net.round_to_grid(x, 0.5, 2, 2.0), m * side)


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
    pts = [float(net.grid_decode([m], 0.5, 1, 2.0)[0]) for m in range(-b, b + 1)]
    assert pts == [-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5]


def test_grid_encode_decode_roundtrip():
    from mcsketch.core import lp_norm

    rng = np.random.default_rng(1)
    for p in (1.0, 2.0, math.inf):
        for delta in (0.5, 0.125):
            d = 4
            x = rng.uniform(-1, 1, size=d)
            x = x / max(1.0, lp_norm(x, p))
            y = net.round_to_grid(x, delta, d, p)
            ints = net.grid_encode(y, delta, d, p)
            back = net.grid_decode(ints, delta, d, p)
            assert np.array_equal(back, y)
            assert np.abs(ints).max() <= net.grid_bound(delta, d, p)


def test_grid_encode_rejects_off_grid():
    with pytest.raises(InputError):
        net.grid_encode(np.array([0.3]), 0.5, 1, 2.0)


def test_grid_decode_rejects_out_of_bounds():
    b = net.grid_bound(0.5, 1, 2.0)
    with pytest.raises(FormatError):
        net.grid_decode(np.array([b + 1]), 0.5, 1, 2.0)
