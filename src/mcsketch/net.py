"""Delta-net machinery: grid rounding and the displacement codec.

The quantized displacement of a node is a vector eta with ||eta||_p <= 1
(up to rounding slack).  It is rounded to the uniform grid
(delta/d^(1/p)) Z^d and stored as its d signed multiples, each biased by
the bound B = ceil((1+delta) d^(1/p) / delta) and written in the fixed
width ceil(log2(2B+1)).  This works for every p.
"""

from __future__ import annotations

import math

import numpy as np

from .core import FormatError, GuaranteeError, InputError, lp_norm

__all__ = [
    "round_to_grid",
    "grid_indices",
    "grid_encode",
    "grid_decode",
    "grid_bound",
    "grid_bit_width",
    "per_coord_scale",
    "delta_effective",
]


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
# Codec: d biased fixed-width grid multiples.


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
