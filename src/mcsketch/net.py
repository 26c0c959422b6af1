"""Delta-net machinery: grid rounding and the grid bounds of the codec.

The quantized displacement of a node is a vector eta with ||eta||_p <= 1
(up to rounding slack).  The builder rounds it to the uniform grid
(delta/d^(1/p)) Z^d with :func:`grid_indices` and keeps its d signed
multiples as one row of an (n_nodes, d) int64 array.  Every multiple lies
within the bound B = ceil((1+delta) d^(1/p) / delta).  The codec stores
each as its zigzag value z (at most 2B) in a Rice code whose parameter
follows from bitlen(B), and the decoder refuses any z above 2B.  This
works for every p.  B must stay below 2^63 (:func:`grid_bound_fits`) so
that every multiple fits int64.
"""

from __future__ import annotations

import math

import numpy as np

from .core import GuaranteeError, InputError, _lp_reduce, _validate_p

__all__ = [
    "grid_indices",
    "grid_bound",
    "grid_bound_fits",
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


def grid_indices(
    eta_star: np.ndarray, delta: float | np.ndarray, d: int, p: float
) -> np.ndarray:
    """Integer multiples m of the grid side delta/d^(1/p) nearest to eta_star,
    ties toward -infinity, as int64.

    ``eta_star`` is a d-vector, or k of them as rows with ``delta`` one float
    or one per row; a row rounds as it would alone.  The per-coordinate
    error of m * side is at most half a grid side, so the lp error is at
    most delta/2, and |m_i| <= :func:`grid_bound`.  Inputs with
    ||eta_star||_p > 1 + delta are rejected.
    """
    eta_star = np.asarray(eta_star, dtype=np.float64)
    if eta_star.ndim not in (1, 2) or eta_star.shape[-1] != d:
        raise InputError(f"expected vectors of dimension {d}, got {eta_star.shape}")
    delta = np.asarray(delta, dtype=np.float64)
    norm = _lp_reduce(eta_star.copy(), _validate_p(p))
    norm, most = np.broadcast_arrays(norm, 1.0 + delta)
    over = norm > most
    if over.any():
        i = over.argmax()
        raise GuaranteeError(
            f"displacement norm {norm.flat[i]} exceeds 1 + delta = {most.flat[i]}"
        )
    side = per_coord_scale(delta, d, p)[..., None]
    return np.ceil(eta_star / side - 0.5).astype(np.int64)


# --------------------------------------------------------------------------
# Codec bounds: every grid multiple lies in [-B, B].


def grid_bound(delta: float, d: int, p: float) -> int:
    """Per-coordinate multiple bound B = ceil((1+delta) d^(1/p) / delta)."""
    return math.ceil((1.0 + delta) * d ** (1.0 / p) / delta)


def grid_bound_fits(delta: float, d: int, p: float) -> bool:
    """True when B < 2^63, so that every grid multiple fits int64 and every
    zigzag value (at most 2B) fits uint64.  The builder and the decoder
    both refuse a node whose net fails this test."""
    try:
        return grid_bound(delta, d, p) < 2**63
    except (OverflowError, ZeroDivisionError):  # B is infinite
        return False

