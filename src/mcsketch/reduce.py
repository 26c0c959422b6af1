"""Dimension handling before sketching: random projection and the
distance-matrix row embedding.

``project_points`` multiplies Euclidean inputs by a random +-1/sqrt(d')
sign matrix with d' = ceil(C * eps^-2 * ln n) columns (``target_dim``),
drawn from a seeded PCG64 generator so builds are reproducible.  The
projection is linear (zero maps to zero, scaling commutes) and with
C = 4 distorts any fixed pair by more than (1 +- eps) only with
vanishing probability, so the end-to-end error budget becomes
(1+eps)(1+4eps) - 1.  Inputs already at or below the target dimension
pass through untouched.  It projects raw coordinates divided by their
exact closest pair and builds no n x n matrix at the original dimension,
only the one that normalizes the projected set.

``frechet_embed`` turns an n x n distance matrix into its own rows as
points under the l-infinity norm; the triangle inequality makes that an
exact isometry (the max |D[i,k] - D[j,k]| is attained at k = j), so
arbitrary finite metrics ride the same sketch pipeline with p = inf.
The embedding takes one l-infinity pass over the rows, validation's,
through SciPy's compiled Chebyshev kernel: its least off-diagonal entry is
normalization's divisor, and the matrix itself, divided in place, is the
stored oracle.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .core import (
    DistanceMatrix,
    InputError,
    PointSet,
    SketchParams,
    _as_points,
    _min_distance,
    normalize,
)

__all__ = ["target_dim", "project_points", "frechet_embed"]


# C in d' = ceil(C * eps^-2 * ln n)
_JL_CONSTANT = 4.0


def target_dim(n: int, epsilon: float) -> int:
    """d' = ceil(C * eps^-2 * ln n) (natural log) with C = 4, capped at
    2^63, more than any dimension, so a tiny epsilon cannot overflow to
    infinity."""
    if n < 2:
        raise InputError("need at least two points")
    target = _JL_CONSTANT * math.log(n) / epsilon / epsilon  # inf, never an error
    return math.ceil(min(target, 2.0**63))


def project_points(coords: np.ndarray, params: SketchParams) -> PointSet | None:
    """The normalized projection of raw Euclidean coordinates to
    ``target_dim(n, params.epsilon)`` columns, with the
    sign matrix of ``params.jl_seed``; None where that is no fewer columns.

    The raw coordinates are divided by their exact closest pair, the divisor
    ``normalize`` would use, and projected; the only n x n pass is the one
    that normalizes the projected set.  The returned scale composes the two
    divisors, so estimates still come back in original units, and its
    ``jl_orig_dim`` is the raw dimension d.
    """
    coords = _as_points(coords)
    n, d = coords.shape
    dprime = target_dim(n, params.epsilon)
    if dprime >= d:
        return None
    mn = _min_distance(coords, 2.0)
    rng = np.random.default_rng(params.jl_seed)
    bits = rng.integers(0, 2, size=(d, dprime))
    signs = bits.astype(np.float64) * 2.0 - 1.0
    out = normalize((coords / mn) @ signs / math.sqrt(dprime), 2.0)
    return replace(out, scale=mn * out.scale, jl_orig_dim=d)


def frechet_embed(dm: DistanceMatrix) -> PointSet:
    """Embed a validated distance matrix isometrically into (R^n, l_inf).

    Point i becomes row i of the matrix.  Validation runs first, since the
    embedding is an isometry only under the triangle inequality.  Its
    matrix of row distances is the only l-inf pass: divided in place by its
    least off-diagonal entry, the divisor, it becomes the stored oracle.
    Its floats are the raw rows' differences divided once, which may differ
    from ``_pairwise`` over the divided rows by a few ulps; they are exactly
    symmetric and their least off-diagonal entry is exactly 1, so the
    spread needs no clamp.
    """
    rows = dm.validate()
    np.fill_diagonal(rows, np.inf)
    mn = float(rows.min())
    rows /= mn
    np.fill_diagonal(rows, 0.0)
    rows.flags.writeable = False
    coords = np.ascontiguousarray(dm.entries, dtype=np.float64) / mn
    coords.flags.writeable = False
    return PointSet(coords=coords, p=math.inf, scale=mn, spread=float(rows.max()), distances=rows)
