"""Delta-net machinery: grid rounding and the grid bounds of the codec.

The quantized displacement of a node is a vector eta with ||eta||_p <= 1
(up to rounding slack).  The builder rounds it to the uniform grid
(delta/d^(1/p)) Z^d with :func:`grid_indices` and keeps its d signed
multiples as one row of an (n_nodes, d) int64 array.  The codec stores
each multiple biased by the bound B = ceil((1+delta) d^(1/p) / delta) in
the fixed width ceil(log2(2B+1)), and the decoder refuses any stored field
above 2B.  This works for every p.  B must stay below 2^63
(:func:`grid_bound_fits`) so that every multiple fits int64.
"""

from __future__ import annotations

import math

import numpy as np

from .core import GuaranteeError, InputError, lp_norm

__all__ = [
    "grid_indices",
    "grid_bound",
    "grid_bound_fits",
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


def grid_indices(eta_star: np.ndarray, delta: float, d: int, p: float) -> np.ndarray:
    """Integer multiples m of the grid side delta/d^(1/p) nearest to eta_star,
    ties toward -infinity, as int64.

    The per-coordinate error of m * side is at most half a grid side, so the
    lp error is at most delta/2, and |m_i| <= :func:`grid_bound`.  Inputs
    with ||eta_star||_p > 1 + delta are rejected.
    """
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
# Codec bounds: d biased fixed-width grid multiples.


def grid_bound(delta: float, d: int, p: float) -> int:
    """Per-coordinate multiple bound B = ceil((1+delta) d^(1/p) / delta)."""
    return math.ceil((1.0 + delta) * d ** (1.0 / p) / delta)


def grid_bound_fits(delta: float, d: int, p: float) -> bool:
    """True when B < 2^63, so that every grid multiple fits int64 and every
    biased field (at most 2B) fits uint64.  The builder and the decoder
    both refuse a node whose net fails this test."""
    try:
        return grid_bound(delta, d, p) < 2**63
    except (OverflowError, ZeroDivisionError):  # B is infinite
        return False


def grid_bit_width(delta: float, d: int, p: float) -> int:
    """Fixed width ceil(log2(2B+1)) of one stored coordinate."""
    return (2 * grid_bound(delta, d, p)).bit_length()
