"""Delta-net machinery: grid rounding plus two displacement codecs.

The quantized displacement of a node is a vector eta with ||eta||_p <= 1
(up to rounding slack).  Two interchangeable integer encodings:

* uniform-grid: round each coordinate to the grid (delta/d^(1/p)) Z^d and
  store the d signed multiples.  Works for every p; this is the default.

* ranked-ball (p = 2 only): enumerate the lattice points of the ball of
  radius r = 1 + delta and store one arbitrary-precision rank.  Points are
  ordered by first coordinate into segments whose lengths are the capacity
  upper bound M(d-1, ...) of the residual ball, recursively.  All segment
  arithmetic is exact: squared radii live in Fractions of the exact float
  inputs, and the transcendental base 4*sqrt(pi) of the capacity formula
  M(d, delta, r) = ceil((4 sqrt(pi) r / delta)^d) enters as a 30-digit
  correctly-rounded-up rational so capacities are deterministic and never
  undercount.

The segment construction is only feasible while the one-dimensional slice
count 2*floor(r*sqrt(D)/delta)+1 fits inside ceil(4*sqrt(pi)*r/delta); that
holds for D up to about 12 and fails beyond, so the feasibility of every
(dims, radius) pair actually touched is asserted at encode time.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction

import numpy as np

from .core import FormatError, GuaranteeError, InputError, lp_norm

__all__ = [
    "FOUR_ROOT_PI",
    "round_to_grid",
    "grid_indices",
    "capacity",
    "rank",
    "unrank",
    "grid_encode",
    "grid_decode",
    "grid_bound",
    "grid_bit_width",
    "per_coord_scale",
    "delta_effective",
]

# 4*sqrt(pi) = 7.0898154036220641091926699333645807...; rounded UP at the
# 30th significant digit so capacity never falls below the true value.
FOUR_ROOT_PI = Fraction("7.08981540362206410919266993337")


def per_coord_scale(delta: float, d: int, p: float) -> float:
    """Grid side delta / d^(1/p); also the fixed-point unit for delta=eps."""
    return delta / d ** (1.0 / p)


def delta_effective(epsilon: float, subtree_leaf: bool, inv_delta: int) -> float:
    """Net granularity of one node: delta*eps below the last short edge
    (no short children), plain delta = 1/inv_delta elsewhere.  Encoder and
    decoder must agree on this float exactly, hence the single helper."""
    return (epsilon if subtree_leaf else 1.0) / inv_delta


def round_to_grid(eta_star: np.ndarray, delta: float, d: int, p: float) -> np.ndarray:
    """Nearest point of the grid (delta/d^(1/p)) Z^d, ties toward -infinity.

    The per-coordinate error is at most half a grid side, so the lp error is
    at most delta/2.  Inputs with ||eta_star||_p > 1 + delta are rejected.
    """
    return grid_indices(eta_star, delta, d, p) * per_coord_scale(delta, d, p)


def grid_indices(eta_star: np.ndarray, delta: float, d: int, p: float) -> np.ndarray:
    """Integer grid multiples of the rounding of eta_star (see round_to_grid)."""
    eta_star = np.asarray(eta_star, dtype=np.float64)
    if eta_star.shape != (d,):
        raise InputError(f"expected a vector of dimension {d}, got {eta_star.shape}")
    norm = lp_norm(eta_star, p)
    if norm > 1.0 + delta:
        raise GuaranteeError(
            f"displacement norm {norm} exceeds 1 + delta = {1.0 + delta}"
        )
    side = per_coord_scale(delta, d, p)
    return np.ceil(eta_star / side - 0.5).astype(np.int64)


# --------------------------------------------------------------------------
# Capacity: exact ceiling of (4 sqrt(pi) r / delta)^d.


def _ceil_fraction(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def _isqrt_ceil(x: Fraction) -> int:
    """Smallest nonnegative integer z with z*z >= x."""
    if x <= 0:
        return 0
    n, den = x.numerator, x.denominator
    z = math.isqrt(n // den)
    while z * z * den < n:
        z += 1
    return z


def _capacity_sq(d: int, q: Fraction) -> int:
    """ceil(q^(d/2)) where q = (4 sqrt(pi) r / delta)^2, handling odd d."""
    if d == 0 or q <= 0:
        return 1
    half, odd = divmod(d, 2)
    a = q**half
    if not odd:
        return max(_ceil_fraction(a), 1)
    return max(_isqrt_ceil(a * a * q), 1)


def capacity(d: int, delta: float, r: float) -> int:
    """Upper bound on lattice points of the radius-r ball, M(d, delta, r).

    Exact arbitrary-precision ceiling; conventions M(d, delta, 0) = 1 and
    M(0, ...) = 1 used by the segment recursion.
    """
    if d < 0:
        raise InputError(f"dimension must be >= 0, got {d}")
    if not delta > 0:
        raise InputError(f"delta must be positive, got {delta}")
    if r < 0:
        raise InputError(f"radius must be >= 0, got {r}")
    base = FOUR_ROOT_PI * Fraction(r) / Fraction(delta)
    return _capacity_sq(d, base * base)


# --------------------------------------------------------------------------
# Ranked-ball codec (p = 2).


class _BallCodec:
    """Exact segment tables for one (d, delta, r) ball, memoized."""

    def __init__(self, d: int, delta: float, r: float) -> None:
        self.d = d
        # squared radius in units of the grid side delta/sqrt(d):
        # m is inside iff sum(m_i^2) <= (r/delta)^2 * d
        self.r2 = Fraction(r) ** 2 / Fraction(delta) ** 2 * d
        # capacity of a residual ball with squared lattice radius w and k dims
        # is ceil(((4 sqrt(pi))^2 * w / d)^(k/2))
        self._q_per_w = FOUR_ROOT_PI * FOUR_ROOT_PI / d
        self._seg_cache: dict[tuple[int, Fraction], tuple[int, list[int]]] = {}

    def cap(self, k: int, w: Fraction) -> int:
        return _capacity_sq(k, self._q_per_w * w)

    def segments(self, k: int, w: Fraction) -> tuple[int, list[int]]:
        """(first-coordinate lower bound, cumulative segment ends) at (k, w).

        Validates that the segment lengths sum to at most cap(k, w) -- the
        property that makes the nested coding feasible -- the first time
        each (k, w) pair is seen.
        """
        key = (k, w)
        hit = self._seg_cache.get(key)
        if hit is not None:
            return hit
        bound = _isqrt_floor(w)
        ends: list[int] = []
        total = 0
        for i in range(-bound, bound + 1):
            total += self.cap(k - 1, w - i * i)
            ends.append(total)
        if total > self.cap(k, w):
            raise GuaranteeError(
                f"segment sum {total} exceeds capacity {self.cap(k, w)} at "
                f"dims={k}, squared radius {w} (ball codec infeasible here)"
            )
        out = (-bound, ends)
        self._seg_cache[key] = out
        return out

    def rank(self, ms: list[int]) -> int:
        if sum(m * m for m in ms) > self.r2:
            raise InputError("lattice point outside the coding radius")
        idx = 1
        w = self.r2
        for pos in range(self.d):
            k = self.d - pos
            lo, ends = self.segments(k, w)
            m = ms[pos]
            j = m - lo
            idx += ends[j - 1] if j > 0 else 0
            w = w - m * m
        return idx

    def unrank(self, index: int) -> list[int]:
        if index < 1:
            raise FormatError(f"ranked index {index} out of range")
        ms: list[int] = []
        w = self.r2
        idx = index
        for pos in range(self.d):
            k = self.d - pos
            lo, ends = self.segments(k, w)
            if idx > ends[-1]:
                raise FormatError(
                    f"ranked index lands in padding at coordinate {pos}"
                )
            j = _first_geq(ends, idx)
            if j > 0:
                idx -= ends[j - 1]
            m = lo + j
            ms.append(m)
            w = w - m * m
        if idx != 1:
            raise FormatError("ranked index lands in padding past the last coordinate")
        return ms


def _isqrt_floor(x: Fraction) -> int:
    """Largest nonnegative integer z with z*z <= x (0 if x < 0)."""
    if x < 0:
        return 0
    z = math.isqrt(x.numerator // x.denominator)
    while (z + 1) * (z + 1) <= x:
        z += 1
    return z


def _first_geq(ends: list[int], value: int) -> int:
    return bisect.bisect_left(ends, value)


_codecs: dict[tuple[int, Fraction, Fraction], _BallCodec] = {}


def _ball_codec(d: int, delta: float, r: float) -> _BallCodec:
    key = (d, Fraction(delta), Fraction(r))
    codec = _codecs.get(key)
    if codec is None:
        codec = _codecs[key] = _BallCodec(d, delta, r)
    return codec


def rank(eta: np.ndarray | list[int], d: int, delta: float, r: float) -> int:
    """1-based rank of a lattice point of the ball, given as grid multiples.

    ``eta`` holds integer multiples of the grid side delta/sqrt(d).  The
    index fits in [1, capacity(d, delta, r)].
    """
    ms = [int(m) for m in eta]
    if len(ms) != d:
        raise InputError(f"expected {d} coordinates, got {len(ms)}")
    if any(float(m) != float(v) for m, v in zip(ms, np.asarray(eta).ravel())):
        raise InputError("lattice point is off-grid")
    return _ball_codec(d, delta, r).rank(ms)


def unrank(index: int, d: int, delta: float, r: float) -> list[int]:
    """Inverse of :func:`rank`; returns the grid multiples."""
    return _ball_codec(d, delta, r).unrank(int(index))


# --------------------------------------------------------------------------
# Uniform-grid codec (any p).


def grid_bound(delta: float, d: int, p: float) -> int:
    """Per-coordinate multiple bound B = ceil((1+delta) d^(1/p) / delta)."""
    return math.ceil((1.0 + delta) * d ** (1.0 / p) / delta)


def grid_bit_width(delta: float, d: int, p: float) -> int:
    """Fixed width ceil(log2(2B+1)) of one stored coordinate."""
    return (2 * grid_bound(delta, d, p)).bit_length()


def grid_encode(eta: np.ndarray, delta: float, d: int, p: float) -> list[int]:
    """Signed grid multiples of a grid point given in float coordinates."""
    arr = np.asarray(eta, dtype=np.float64)
    if arr.shape != (d,):
        raise InputError(f"expected a vector of dimension {d}, got {arr.shape}")
    side = per_coord_scale(delta, d, p)
    y = arr / side
    ms = np.round(y).astype(np.int64)
    if np.abs(y - ms).max(initial=0.0) > 1e-9:
        raise InputError("point is not on the coding grid")
    b = grid_bound(delta, d, p)
    if np.abs(ms).max(initial=0) > b:
        raise InputError(f"grid multiple exceeds bound {b}")
    return [int(m) for m in ms]


def grid_decode(seq, delta: float, d: int, p: float) -> np.ndarray:
    """Grid point (float coordinates) from its signed multiples."""
    ms = np.asarray(list(seq), dtype=np.int64)
    if ms.shape != (d,):
        raise FormatError(f"expected {d} grid integers, got {ms.shape}")
    b = grid_bound(delta, d, p)
    if np.abs(ms).max(initial=0) > b:
        raise FormatError(f"decoded grid multiple exceeds bound {b}")
    return ms * per_coord_scale(delta, d, p)
