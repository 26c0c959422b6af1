"""Delta-net machinery: grid rounding and the grid bounds of the codec.

The quantized displacement of a node is a vector eta with ||eta||_p <= 1
(up to rounding slack).  The builder rounds it to the uniform grid
(delta/d^(1/p)) Z^d with :func:`grid_indices` and keeps its d signed
multiples as one row of an (n_nodes, d) int64 array.  Every multiple lies
within B = ceil((1+delta) d^(1/p) / delta) (:func:`grid_bound`).  The codec
stores each as its zigzag value z (at most 2B) in a Rice code, and the
decoder refuses any z above 2B.  This works for every p.

The blob stores no precision, so the decoder takes every bound from the
tree alone (:func:`tree_bounds`):

* A node v of |C| leaves at level l has inv_delta = 5 + ceil(diam / 2^l).
  Its cluster is connected by pairs closer than 2^l, so its diameter is
  below (|C| - 1) 2^l and inv_delta is at most |C| + 4.  B grows with
  inv_delta, so B at inv_delta = |C| + 4 bounds every multiple a build can
  store at v.
* A first child c of v shares v's center, and its ingress is v.  Where v
  is a part root, s*(v) is that center itself, eta*(c) = 0 and every
  multiple is 0.  Elsewhere s*(v) is the center plus v's rounding error, at
  most half a grid side of v's net, 2^(l(v) - 1) / d^(1/p), per coordinate
  (v has a short child, so its net is delta(v)).  The edge is short, so
  l(v) = l(c) + 1, and eta*(c) = (delta(c) / 2^l(c)) (center - s*(v)) has
  coordinates of at most delta(c) / d^(1/p).  In units of c's grid side
  delta_eff(c) / d^(1/p), that is at most 1 where c has short children
  (delta_eff = delta) and 1/eps where it has none (delta_eff = delta eps),
  and rounding to the nearest multiple stays within it.  So a first
  child's multiples are at most 0, 1 or 1/eps, whatever its precision.

B must stay below 2^63 (:func:`grid_bound_fits`) so that every multiple
fits int64.
"""

from __future__ import annotations

import math

import numpy as np

from .core import GuaranteeError, InputError, _lp_reduce, _validate_p

__all__ = [
    "grid_indices",
    "grid_bound",
    "grid_bound_fits",
    "tree_bounds",
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



def tree_bounds(tree, epsilon: float, d: int, p: float) -> np.ndarray:
    """Per node, the bound B of its grid integers that the decoder enforces,
    from the tree alone (see the module docstring), as int64: 0 at part
    roots, which store none, and at a part root's first child; 1 at any
    other first child with short children and 1/epsilon at one without;
    elsewhere :func:`grid_bound` at inv_delta = leaves + 4.  The last is
    taken once per distinct (has_short, leaves) pair, and for first
    children too: OverflowError, naming the node, when one does not fit
    (:func:`grid_bound_fits`), so a blob never holds a row whose bound
    leaves int64."""
    n_nodes = tree.n_nodes
    inner = np.flatnonzero(~tree.part_root)
    # ids are preorder: v is a leaf when its subtree ends right after it,
    # and v's first child, if it has one, is v + 1
    end = tree.end
    below = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(end == np.arange(1, n_nodes + 1), out=below[1:])
    leaves = below[end[inner]] - below[inner]
    keys, at, which = np.unique(
        2 * leaves + tree.has_short[inner], return_index=True, return_inverse=True
    )
    nets = []
    for key, v in zip(keys.tolist(), inner[at].tolist()):
        delta = delta_effective(epsilon, not key & 1, (key >> 1) + 4)
        if not grid_bound_fits(delta, d, p):
            raise OverflowError(f"the grid bound of node {v} does not fit in 64 bits")
        nets.append(grid_bound(delta, d, p))
    bounds = np.zeros(n_nodes, dtype=np.int64)
    bounds[inner] = np.array(nets, dtype=np.int64)[which]
    # a first child without short children has a bound above 1/epsilon,
    # which therefore fits
    first = inner[end[inner - 1] > inner]
    bounds[first] = 1
    leafy = first[~tree.has_short[first]]
    if leafy.size:
        bounds[leafy] = round(1.0 / epsilon)
    bounds[first[tree.part_root[first - 1]]] = 0
    return bounds
