"""Dimension handling before sketching: random projection and the
distance-matrix row embedding.

``jl_project`` multiplies Euclidean inputs by a random +-1/sqrt(d') sign
matrix with d' = ceil(C * eps^-2 * ln n) columns, drawn from a seeded
PCG64 generator so builds are reproducible.  The projection is linear
(zero maps to zero, scaling commutes) and with the default C = 4 distorts
any fixed pair by more than (1 +- eps) only with vanishing probability, so
the end-to-end error budget becomes (1+eps)(1+4eps) - 1.  Inputs already
at or below the target dimension pass through untouched.
``project_points`` projects raw coordinates directly: it divides them by
their exact closest pair and builds no n x n matrix at the original
dimension, only the one that normalizes the projected set.

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
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    DistanceMatrix,
    InputError,
    PointSet,
    _as_points,
    _min_distance,
    normalize,
)

__all__ = ["JlConfig", "jl_project", "project_points", "frechet_embed"]


@dataclass(frozen=True)
class JlConfig:
    """Projection parameters: constant C and the generator seed."""

    constant: float = 4.0
    seed: int = 0

    def target_dim(self, n: int, epsilon: float) -> int:
        """d' = ceil(C * eps^-2 * ln n) (natural log), capped at 2^63, more
        than any dimension, so a huge C cannot overflow to infinity."""
        if n < 2:
            raise InputError("need at least two points")
        target = self.constant * epsilon**-2.0 * math.log(n)
        return max(1, math.ceil(min(target, 2.0**63)))


def jl_project(
    ps: PointSet, config: JlConfig, epsilon: float
) -> tuple[PointSet, bool]:
    """Project a Euclidean point set to the target dimension.

    Returns (projected-and-renormalized point set, True) or (ps, False)
    when the input dimension is already at most the target.  The returned
    scale composes the input's scale with the post-projection divisor so
    estimates still come back in original units; the returned set keeps the
    distance matrix that renormalization measured.
    """
    if ps.p != 2.0:
        raise InputError("random projection requires the Euclidean norm (p=2)")
    dprime = config.target_dim(ps.n, epsilon)
    if dprime >= ps.d:
        return ps, False
    return _project(ps.coords, ps.scale, config, dprime), True


def project_points(
    coords: np.ndarray, config: JlConfig, epsilon: float
) -> PointSet | None:
    """``jl_project(normalize(coords, 2.0), config, epsilon)`` without the
    normalization; None where no projection applies.

    The raw coordinates are divided by their exact closest pair, the divisor
    ``normalize`` would use, so the projected set holds the same floats.
    The only n x n pass is the one that normalizes the projected set.
    """
    coords = _as_points(coords)
    n, d = coords.shape
    dprime = config.target_dim(n, epsilon)
    if dprime >= d:
        return None
    mn = _min_distance(coords, 2.0)
    return _project(coords / mn, mn, config, dprime)


def _project(
    coords: np.ndarray, scale: float, config: JlConfig, dprime: int
) -> PointSet:
    """Project ``coords`` (raw units times 1/``scale``) to ``dprime`` columns."""
    rng = np.random.default_rng(config.seed)
    bits = rng.integers(0, 2, size=(coords.shape[1], dprime))
    signs = bits.astype(np.float64) * 2.0 - 1.0
    out = normalize(coords @ signs / math.sqrt(dprime), 2.0)
    return replace(out, scale=scale * out.scale)


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
