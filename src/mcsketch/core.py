"""Core types: point sets, lp metrics, normalization, sketch parameters,
and the on-disk input formats (MCPT point files, MCDM distance matrices,
plain text).

Everything downstream works on a *normalized* point set: coordinates are
divided by the minimum pairwise distance, so the closest pair sits at
distance 1 and the farthest at distance ``spread``.  The divisor is kept as
``scale`` so query answers can be mapped back to original units.  It is
found exactly without a distance matrix: a k-d tree proposes the closest
pair and its near ties are recomputed on the package's own float path
(:func:`_min_distance`).  The one n x n pass of a point build is the
stored matrix of the divided coordinates.

Both binary formats are little-endian.

MCPT:  magic "MCPT", u32 version=1, u8 p-code, [u32 num, u32 den when
       p-code=0], u64 n, u64 d, then n*d f64 row-major coordinates.
       p-code: 1 and 2 mean those norms, 255 means l-infinity, 0 means a
       rational p = num/den given by the two u32 fields.
MCDM:  magic "MCDM", u32 version=1, u64 n, then n*n f64 row-major entries.

Text inputs (one point per line, whitespace- or comma-separated) are
accepted wherever an MCPT file is; p then comes from the caller.
"""

from __future__ import annotations

import itertools
import math
import struct
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

__all__ = [
    "SketchError",
    "InputError",
    "DataError",
    "DuplicatePointError",
    "TriangleInequalityError",
    "UnknownLabelError",
    "FormatError",
    "GuaranteeError",
    "PointSet",
    "DistanceMatrix",
    "SketchParams",
    "snap_epsilon",
    "k_parameter",
    "lp_distance",
    "normalize",
    "oracle_all_pairs",
    "encode_p",
    "decode_p",
    "write_points",
    "read_points",
    "write_matrix",
    "read_text_points",
    "load_input",
]


# --------------------------------------------------------------------------
# Exceptions.  The CLI maps these onto exit codes (see cli.py), so library
# code raises them instead of bare ValueErrors wherever a user could hit the
# condition from the outside.


class SketchError(Exception):
    """Base class for all errors raised by this package."""


class InputError(SketchError):
    """Invalid parameters or malformed in-memory inputs (CLI exit 1)."""


class DataError(SketchError):
    """Input data that parses but is not a usable metric (CLI exit 3)."""


class DuplicatePointError(DataError):
    """Two input points coincide (zero pairwise distance)."""


class TriangleInequalityError(DataError):
    """A distance matrix violates metric axioms beyond tolerance."""


class UnknownLabelError(DataError):
    """A query referenced a point label outside ``0..n-1``."""


class FormatError(SketchError):
    """Malformed bytes: bad magic/version, truncation, corruption (exit 2)."""


class GuaranteeError(SketchError):
    """A proven invariant failed at runtime (CLI exit 4)."""


# --------------------------------------------------------------------------
# Norms.


def _validate_p(p: float) -> float:
    p = float(p)
    if math.isinf(p) and p > 0:
        return math.inf
    if not (p >= 1.0):
        raise InputError(f"norm parameter p must be >= 1 or inf, got {p!r}")
    return p


def _lp_reduce(diff: np.ndarray, p: float) -> np.ndarray:
    """lp norm along the last axis of ``|diff|``.

    At p = 1 this is the plain sum of ``|diff|``: nothing is raised to a
    power, so nothing can overflow before the sum itself does, and integer
    coordinates give exact integer distances while those stay below 2**53
    (a level threshold 2**i is then met exactly).  At every other
    finite p each row is scaled by its own max before powering, which keeps
    the reduction exact for coordinates as large as 2**512 (high-spread
    instances).  The one-pair, all-pairs and landmark paths agree bit for
    bit because they all take these same operations in the same order (see
    ``_SHORT_AXIS``).  Works in place: ``diff`` is overwritten, so callers
    pass a difference they own.

    A batch (``diff.ndim > 1``) whose last axis is shorter than
    ``_SHORT_AXIS`` is copied coordinate-major by ``moveaxis``, its one
    temporary of its own size, and reduced by :func:`_lp_reduce_planes`,
    which makes a few whole-plane calls in place of one reduction per row.
    A single vector (``lp_distance``) and longer rows take the reductions
    below, which allocate nothing of ``diff``'s size.
    """
    if diff.ndim > 1 and 0 < diff.shape[-1] < _SHORT_AXIS:
        return _lp_reduce_planes(np.moveaxis(diff, -1, 0).copy(), p)
    diff = np.abs(diff, diff)  # positional out: a keyword costs more per call
    if p == math.inf:
        return diff.max(axis=-1)
    if p == 1.0:
        return diff.sum(axis=-1)
    m = diff.max(axis=-1, keepdims=True)
    safe = np.where(m == 0.0, 1.0, m)
    u = np.divide(diff, safe, diff)
    if p == 2.0:
        s = np.sqrt(np.multiply(u, u, u).sum(axis=-1))
    else:
        s = _root(np.power(u, p, u).sum(axis=-1), p)
    return s * m[..., 0]


def _root(s, p: float):
    """``s ** (1/p)`` taken by libm's ``pow`` for every element.

    A single vector's sum is a numpy scalar, whose power is libm's; an
    array's power would be NumPy's vectorized ``pow``, which can differ in
    the last bit.  So an array goes through ``math.pow`` one element at a
    time, and a batch of rows gives each row the float it gets alone.
    """
    if np.ndim(s) == 0:
        return s ** (1.0 / p)
    flat = s.ravel().tolist()
    out = np.fromiter(map(math.pow, flat, itertools.repeat(1.0 / p)), np.float64, len(flat))
    return out.reshape(s.shape)


# Below this many terms numpy's pairwise summation adds them one by one in
# order (its unrolled blocks start at 8), so a chain of adds forms the same
# float as ``sum(axis=-1)``: a chain of whole-plane adds in
# :func:`_lp_reduce_planes`, which reduces every short-row batch and every
# short-row block of :func:`_pair_blocks` below p = inf, and a chain of
# Python float adds in :func:`_lp_pair`, which answers
# ``Estimator.estimate`` on short rows.  At and above it every path sums
# with numpy's pairwise ``sum``.  Sharing this order, not any scaling, is
# what makes the paths agree bit for bit.
_SHORT_AXIS = 8


def _lp_reduce_planes(planes: np.ndarray, p: float) -> np.ndarray:
    """:func:`_lp_reduce` of differences stored coordinate-major:
    ``planes[k]`` holds coordinate k of every difference, for fewer than
    ``_SHORT_AXIS`` coordinates.  ``planes`` must be C-contiguous; it is
    overwritten, and the result is a fresh array of one plane's shape.

    At p = 1 the result is the in-order chain of ``np.add`` over the
    absolute planes, the order numpy's reduction takes below
    ``_SHORT_AXIS`` terms.  Otherwise the row max is a chain of
    ``np.maximum`` (a max is exact in any order), the sum the same in-order
    chain, and every other step the same element-wise call as the
    reduction path's, so the floats are its floats bit for bit.  Each plane
    is contiguous, as the array the reduction path powers is: ``np.power``
    may take a vectorized path on contiguous input whose floats can differ
    from the strided loop's.
    """
    np.abs(planes, planes)
    if p == 1.0:
        s = planes[0].copy()
        for c in planes[1:]:
            np.add(s, c, s)
        return s
    m = planes[0].copy()
    for c in planes[1:]:
        np.maximum(m, c, out=m)
    if p == math.inf:
        return m
    safe = np.where(m == 0.0, 1.0, m)
    s = planes[0]
    for k, c in enumerate(planes):
        np.divide(c, safe, c)
        if p == 2.0:
            np.multiply(c, c, c)
        else:
            np.power(c, p, c)
        if k:
            np.add(s, c, s)
    if p == 2.0:
        np.sqrt(s, s)
    else:
        s = _root(s, p)
    return np.multiply(s, m, m)


def _lp_pair(a, b, p: float) -> float:
    """:func:`_lp_reduce` of ``a - b`` in Python floats, for two finite
    float sequences shorter than ``_SHORT_AXIS`` and p in {1, 2, inf}.

    Each step is the reduction's step on one float, correctly rounded by
    IEEE arithmetic on both sides: at p = 1 the in-order sum of
    ``|a_k - b_k|``; at p = 2 the max ``m``, ``x / safe`` squared, the
    sum, ``sqrt`` and the product with ``m``; at p = inf the max.  Each sum
    is the in-order chain numpy forms below ``_SHORT_AXIS`` terms.  So the
    float is ``_lp_reduce``'s bit for bit, with no numpy call.  A general p
    stays on numpy: ``np.power`` on a contiguous array may take a
    vectorized ``pow`` (see :func:`_lp_reduce_planes`).  Python's ``max``
    does not propagate NaN, so arbitrary input goes through
    :func:`lp_distance`, never here.
    """
    # an explicit left-to-right chain: sum() is compensated from Python
    # 3.12 on, and math.fsum always, so either can round otherwise
    s = 0.0
    if p == 1.0:
        for x, y in zip(a, b):
            s += abs(x - y)
        return s
    diff = [abs(x - y) for x, y in zip(a, b)]
    m = max(diff)
    if p == math.inf:
        return m
    safe = m or 1.0
    for x in diff:
        x /= safe
        s += x * x
    return math.sqrt(s) * m


def lp_distance(u: np.ndarray, v: np.ndarray, p: float) -> float:
    """Distance between two coordinate vectors under the lp norm.

    ``p`` may be any real >= 1 or ``math.inf``.
    """
    p = _validate_p(p)
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1:
        raise InputError(f"shape mismatch: {u.shape} vs {v.shape}")
    return float(_lp_reduce(u - v, p))


def k_parameter(spread: float, epsilon: float, d: int, p: float) -> int:
    """Landmark spacing K = ceil(log2(2 * spread * (1/epsilon) * d^(1/p))).

    Every ingress chain is cut to at most K hops by the landmark table, and
    every valid shift lies within +-2^(K+1), which fixes the dtype of the
    shift arrays (:func:`~mcsketch.annotate.shift_dtype`).  InputError when
    it overflows.
    """
    x = 2.0 * spread / epsilon * d ** (1.0 / p)
    if math.isinf(x):
        raise InputError(f"K overflows at spread {spread}, epsilon {epsilon}")
    return math.ceil(math.log2(x))


def _pairwise(coords: np.ndarray, p: float) -> np.ndarray:
    """Full symmetric distance matrix, same floats as ``lp_distance``.

    Built from :func:`_pair_blocks` bands over the upper triangle, each
    band written with its transpose: at p = inf SciPy's compiled Chebyshev
    ``cdist``, at every other p a reduction over one reused difference
    buffer, coordinate-major on short rows; both give ``_lp_reduce``'s
    floats.  A band also recomputes the small lower-triangle corner of its
    own rows; ``|a - b| = |b - a|`` exactly, so the corner holds the floats
    its transpose writes there.
    """
    n = coords.shape[0]
    out = np.empty((n, n), dtype=np.float64)
    for s, block in _pair_blocks(coords, coords, p, tri=True):
        rows = slice(s, s + block.shape[0])
        out[rows, s:] = block
        out[s:, rows] = block.T
    return out


# Rows per band of a triangular pass.  Thin bands keep the recomputed
# corners small: on a 400-point graph metric (p = inf, d = 400) one full
# cdist took 0.034 s and the 16-row bands 0.017 s, with 4 to 64 rows all
# within 0.002 s of that, on a 2-vCPU host.  Below p = inf a band's
# differences stay small enough to sit in cache.
_TRI_ROWS = 16


def _pair_blocks(
    a: np.ndarray, b: np.ndarray, p: float, tri: bool = False, buf: np.ndarray | None = None
) -> Iterator[tuple[int, np.ndarray]]:
    """Distances between the rows of ``a`` and ``b``, one row block at a time.

    Yields ``(s, block)``: ``block[i, j]`` is the lp distance of rows
    ``a[s + i]`` and ``b[j]``, or of ``a[s + i]`` and ``b[s + j]`` when
    ``tri`` (``a`` and ``b`` then index the same points, and the blocks
    cover the upper triangle, diagonal included).  Every entry is the float
    ``_lp_reduce`` gives that pair's difference alone, so
    ``lp_distance``'s:

    * at p = inf it is ``cdist(..., "chebyshev")``, SciPy's compiled max
      of ``|a_k - b_k|``; a difference, an absolute value and a max are
      all exact, so the floats are the reduction's;
    * at every other p the differences go to one buffer of at most
      ``_BLOCK_ELEMS`` entries (more only when one row alone needs more),
      ``buf`` when it is large enough, and are reduced each row the same
      way it reduces alone.  Rows shorter than ``_SHORT_AXIS`` are written
      coordinate-major, shaped (d, rows, cols), one contiguous plane per
      coordinate from ``b``'s transpose (one copy of ``b``), and reduced by
      :func:`_lp_reduce_planes`; longer rows are written (rows, cols, d)
      and reduced by ``_lp_reduce``.

    A block holds at most ``_BLOCK_ELEMS`` differences, or at p = inf
    entries, unless one row alone holds more; a triangular band is at most
    ``_TRI_ROWS`` rows.
    """
    d = a.shape[1]
    most = _TRI_ROWS if tri else a.shape[0]  # rows per block
    planar = p != math.inf and 0 < d < _SHORT_AXIS
    if planar:
        bt = np.ascontiguousarray(b.T)
    s = 0
    while s < a.shape[0]:
        cols = b[s:] if tri else b
        per_row = cols.shape[0] if p == math.inf else cols.size
        r = max(1, min(most, _BLOCK_ELEMS // max(1, per_row)))
        if p == math.inf:
            yield s, cdist(a[s : s + r], cols, "chebyshev")
        else:
            rows = a[s : s + r]
            need = rows.shape[0] * cols.size
            if buf is None or buf.size < need:
                # room for every later block too, as ``cols`` never grows
                buf = np.empty(max(need, min(_BLOCK_ELEMS, most * cols.size)))
            if planar:
                diff = buf[:need].reshape(d, rows.shape[0], cols.shape[0])
                cols_t = bt[:, s:] if tri else bt
                for k in range(d):
                    np.subtract(rows[:, k, None], cols_t[k], out=diff[k])
                yield s, _lp_reduce_planes(diff, p)
            else:
                diff = buf[:need].reshape(rows.shape[0], cols.shape[0], d)
                np.subtract(rows[:, None, :], cols[None, :, :], out=diff)
                yield s, _lp_reduce(diff, p)
        s += r


# --------------------------------------------------------------------------
# Data carriers.

_REL_TOL = 1e-9  # relative slack of DistanceMatrix.validate's checks


@dataclass(frozen=True)
class PointSet:
    """A normalized point set in (R^d, lp).

    Invariants: ``coords`` is (n, d) float64 with n >= 2, the minimum
    pairwise distance is 1 (to within 1e-12 relative), ``scale`` is the
    divisor that was applied, and ``spread`` is the maximum pairwise
    distance of the normalized coordinates.

    ``distances`` is the (n, n) oracle matrix of ``coords`` when it is
    already known, read-only like ``coords`` so the two cannot disagree.
    :func:`normalize` stores the one pass it measured the spread on.
    :func:`~mcsketch.reduce.frechet_embed` stores the row distances that
    :meth:`DistanceMatrix.validate` returned, divided once by ``scale``:
    exactly symmetric, least off-diagonal entry exactly 1, each entry
    within a few ulps of the distance of the divided rows.  It is left out
    of equality and repr; :func:`oracle_all_pairs` computes the matrix
    when it is None.

    ``jl_orig_dim`` is the raw dimension when ``coords`` is a random
    projection of the raw points (:func:`~mcsketch.reduce.project_points`),
    and 0 when no projection was applied; the blob's header records it.
    """

    coords: np.ndarray
    p: float
    scale: float
    spread: float
    distances: np.ndarray | None = field(default=None, compare=False, repr=False)
    jl_orig_dim: int = 0

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def d(self) -> int:
        return self.coords.shape[1]


@dataclass(frozen=True)
class DistanceMatrix:
    """A general finite metric given explicitly as an (n, n) matrix."""

    entries: np.ndarray

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def validate(self) -> np.ndarray:
        """Check the metric axioms; return the l-inf distances of the rows.

        Entry (i, j) of the result is max_k |d_ik - d_jk|: it is
        ``_pairwise(entries, inf)``, SciPy's compiled Chebyshev ``cdist``
        over bands of rows, whose differences, absolute values and maxima
        are exact, so its floats are ``_lp_reduce``'s (see
        :func:`_pair_blocks`).  The result is a fresh array that nothing
        else holds: :func:`~mcsketch.reduce.frechet_embed` takes its least
        off-diagonal entry as the divisor that normalizes the rows and
        divides the matrix itself in place into the stored oracle, so a
        metric input makes this one l-inf pass.  The triangle inequality
        holds iff no entry exceeds max(d_ij, d_ji); the larger entry absorbs
        the asymmetry that the symmetry check allows.  Both checks allow a
        relative slack of ``_REL_TOL``.  A violation names a triple at the
        largest excess.
        """
        d = np.asarray(self.entries, dtype=np.float64)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise InputError(f"distance matrix must be square, got {d.shape}")
        n = d.shape[0]
        if n < 2:
            raise InputError("need at least two points")
        # min and max propagate nan, so they find every non-finite entry
        lo, hi = d.min(), d.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise DataError("distance matrix contains non-finite entries")
        if np.any(np.diag(d) != 0.0):
            raise DataError("distance matrix diagonal must be zero")
        largest = max(hi, -lo)  # max |d_ij|
        if not np.array_equal(d, d.T):
            if np.abs(d - d.T).max() > _REL_TOL * max(1.0, largest):
                raise DataError("distance matrix is not symmetric")
        # the n diagonal entries are zero, so any further entry <= 0 is off it
        if np.count_nonzero(d <= 0.0) > n:
            raise DuplicatePointError("zero distance between distinct labels")
        rows = _pairwise(d, math.inf)
        excess = np.maximum(d, d.T)
        np.subtract(rows, excess, out=excess)
        i, j = np.unravel_index(int(excess.argmax()), d.shape)
        if excess[i, j] > _REL_TOL * largest:
            # rows i and j differ most at k; oriented so that d_ik >= d_jk,
            # the excess says d_ik > max(d_ij, d_ji) + d_jk
            k = int(np.abs(d[i] - d[j]).argmax())
            i, j = (j, i) if d[j, k] > d[i, k] else (i, j)
            raise TriangleInequalityError(
                f"d({i},{k}) = {d[i, k]} > d({i},{j}) + d({j},{k}) = {d[i, j] + d[j, k]}"
            )
        return rows


def snap_epsilon(epsilon: float) -> float:
    """Round the accuracy parameter down to the nearest power of two.

    The snapped value 2**-t (t a positive integer) is what every formula
    uses; frexp keeps the computation exact for all float inputs.
    """
    epsilon = float(epsilon)
    if not (0.0 < epsilon <= 0.5):
        raise InputError(f"epsilon must lie in (0, 1/2], got {epsilon!r}")
    _, e = math.frexp(epsilon)  # epsilon = m * 2**e, m in [0.5, 1)
    return math.ldexp(1.0, e - 1)


@dataclass(frozen=True)
class SketchParams:
    """Knobs for sketch construction.

    ``epsilon`` is snapped down to a power of two at construction so every
    consumer sees the effective value.  ``landmarks`` stores the landmark
    node ids, which a landmark-mode ``Estimator`` needs, in the blob; the
    ``jl_*`` fields configure the random projection, which applies to l2
    inputs only.  Displacements always use the uniform-grid codec of
    ``net``.
    """

    epsilon: float
    landmarks: bool = False
    jl_enabled: bool = True
    jl_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon", snap_epsilon(self.epsilon))
        # the blob header stores the seed as a u64
        seed = self.jl_seed
        if not (isinstance(seed, int | np.integer) and 0 <= seed < 2**64):
            raise InputError(f"jl_seed must be an integer in [0, 2^64), got {seed!r}")

    @property
    def t(self) -> int:
        """epsilon = 2**-t; t is a positive integer after snapping."""
        return int(round(-math.log2(self.epsilon)))


# --------------------------------------------------------------------------
# Normalization and the exact oracle.


def normalize(coords: np.ndarray, p: float) -> PointSet:
    """Scale a raw point array so the closest pair is at distance 1.

    The divisor is the exact closest-pair distance from
    :func:`_min_distance`, which builds no matrix; the one n x n pass runs
    over the divided coordinates and is stored on the result.  Raises
    DuplicatePointError when two rows coincide (the sketch cannot represent
    zero distances between distinct labels), naming the first such pair in
    row-major order.
    """
    p = _validate_p(p)
    coords = _as_points(coords)
    mn = _min_distance(coords, p)
    normed = coords / mn
    normed.flags.writeable = False
    dmn = _pairwise(normed, p)
    dmn.flags.writeable = False
    # the minimum distance is 1 by construction, so the spread (diameter
    # over minimum) is >= 1; recomputing distances from divided coordinates
    # can land a few ulps under that, which the clamp absorbs
    return PointSet(
        coords=normed, p=p, scale=mn, spread=max(1.0, float(dmn.max())), distances=dmn
    )


def _as_points(coords: np.ndarray) -> np.ndarray:
    """``coords`` as a C-contiguous float64 (n, d) array, n >= 2, d >= 1, all
    finite."""
    coords = np.ascontiguousarray(np.asarray(coords, dtype=np.float64))
    if coords.ndim != 2:
        raise InputError(f"expected an (n, d) array, got shape {coords.shape}")
    if coords.shape[0] < 2:
        raise InputError("need at least two points")
    if coords.shape[1] == 0:
        raise InputError("points have no coordinates")
    if not np.all(np.isfinite(coords)):
        raise DataError("coordinates contain non-finite values")
    return coords


# The k-d tree measures distances on its own float path, a few ulps off
# _lp_reduce's; every pair within this relative slack of its candidate is
# recomputed exactly.
_TREE_SLACK = 1e-9
# Below 2**_TREE_FLOOR_LOG2 the candidate's p-th power, the quantity the
# tree sums and compares, is too close to underflow for that bound to hold.
_TREE_FLOOR_LOG2 = -960
# Elements per broadcast temporary: 2 MiB of float64, well below the 32 MiB
# ceiling of glibc's dynamic mmap threshold, so whether a block page-faults
# does not hinge on what earlier code freed.
_BLOCK_ELEMS = 1 << 18


def _min_distance(coords: np.ndarray, p: float) -> float:
    """Smallest off-diagonal entry of ``_pairwise(coords, p)``, same float,
    without building the matrix.

    A k-d tree (Bentley 1975) in the same p proposes the candidate: the
    least distance from a point to its nearest neighbour.  Every pair
    within ``cand * (1 + _TREE_SLACK)`` is then recomputed from ``coords``
    with ``_lp_reduce``.  The tree runs on ``coords`` times the power of
    two that puts max|x| in [1, 2): exact, and it keeps the tree's p-th
    powers from overflowing.  Where the tree cannot vouch for its candidate
    (it raises, the candidate is not finite, or its p-th power is near
    underflow, which includes every duplicate) an exact running minimum
    over ``_lp_reduce`` rows takes over.  Raises DuplicatePointError naming
    the first coinciding pair in row-major order.
    """
    mn = _tree_min_distance(coords, p)
    if mn is None:
        mn, i, j = _row_min_distance(coords, p)
        if mn == 0.0:
            raise DuplicatePointError(f"points {i} and {j} coincide")
    return mn


def _tree_min_distance(coords: np.ndarray, p: float) -> float | None:
    """The exact minimum when the k-d tree can certify it, else None."""
    scaled = np.ldexp(coords, 1 - math.frexp(float(np.abs(coords).max()))[1])
    try:
        tree = cKDTree(scaled)
        cand = float(tree.query(scaled, k=2, p=p)[0][:, 1].min())
        if not 0.0 < cand < math.inf:
            return None
        if (1.0 if p == math.inf else p) * math.log2(cand) < _TREE_FLOOR_LOG2:
            return None
        pairs = tree.query_pairs(cand * (1.0 + _TREE_SLACK), p=p, output_type="ndarray")
    except ValueError:  # the tree's own overflow check
        return None
    step = max(1, _BLOCK_ELEMS // coords.shape[1])
    return min(
        (
            float(_lp_reduce(coords[ab[:, 0]] - coords[ab[:, 1]], p).min())
            for ab in (pairs[s : s + step] for s in range(0, len(pairs), step))
        ),
        default=None,
    )


def _row_min_distance(coords: np.ndarray, p: float) -> tuple[float, int, int]:
    """Running minimum over the rows ``_pairwise`` computes, storing none.

    Returns (minimum, i, j) with (i, j) its first pair in row-major order.
    """
    best, at = math.inf, (0, 1)
    for i in range(coords.shape[0] - 1):
        row = _lp_reduce(coords[i] - coords[i + 1 :], p)
        j = int(row.argmin())
        if row[j] < best:
            best, at = float(row[j]), (i, i + 1 + j)
            if best == 0.0:
                break
    return best, *at


def oracle_all_pairs(ps: PointSet) -> np.ndarray:
    """Exact (n, n) distance matrix of a normalized point set.

    Returns the read-only matrix stored on ``ps`` when there is one, else
    computes it.  For a point set, from :func:`normalize` or computed here,
    every entry equals ``lp_distance(coords[i], coords[j], p)`` bit for bit
    (see :func:`_pair_blocks`).  For a metric input, from
    :func:`~mcsketch.reduce.frechet_embed`, the entries are
    :meth:`DistanceMatrix.validate`'s row distances divided once by
    ``scale``, which may differ from ``lp_distance`` over the divided rows
    by a few ulps.
    """
    if ps.distances is not None:
        return ps.distances
    return _pairwise(ps.coords, ps.p)


# Entries per strip of the column permutation: 128 KiB of float64, so a
# strip and its temporary stay in cache.  At n = 2000 (8-row strips) the
# pass took 10 ms against 30 ms with 131-row strips through fancy indexing.
_STRIP_ELEMS = 1 << 14


def _permute_in_place(out: np.ndarray, pos: np.ndarray) -> None:
    """``out[:] = out[pos][:, pos]`` for a square ``out``, with no second
    matrix.  The columns are permuted in strips of rows, each through one
    temporary of at most ``_STRIP_ELEMS`` entries, then the rows by
    following the permutation's cycles, one row at a time through one row
    of that temporary."""
    n = len(pos)
    tmp = np.empty((max(1, _STRIP_ELEMS // n), n))
    for s in range(0, n, len(tmp)):
        strip = out[s : s + len(tmp)]
        # pos is in range; the default mode="raise" would buffer ``out``
        np.take(strip, pos, axis=1, out=tmp[: len(strip)], mode="clip")
        strip[:] = tmp[: len(strip)]
    # row x takes row pos[x]: along each cycle x, pos[x], pos[pos[x]], ...
    # every row takes the next one's, and the last the first's
    row = tmp[0]
    pos = pos.tolist()
    done = [False] * n
    for x in range(n):
        if done[x] or pos[x] == x:
            continue
        row[:] = out[x]
        while not done[pos[x]]:
            done[x] = True
            out[x] = out[pos[x]]
            x = pos[x]
        done[x] = True
        out[x] = row


# --------------------------------------------------------------------------
# On-disk input formats.

MCPT_MAGIC = b"MCPT"
MCDM_MAGIC = b"MCDM"
FORMAT_VERSION = 1

P_CODE_INF = 255
P_CODE_RATIONAL = 0


def encode_p(p: float) -> tuple[int, int, int]:
    """Map a norm parameter to (code, num, den) header fields."""
    if math.isinf(p):
        return P_CODE_INF, 0, 0
    if p == 1.0:
        return 1, 0, 0
    if p == 2.0:
        return 2, 0, 0
    # find a small exact rational; inputs come from CLI strings like 1.5
    frac = Fraction(p).limit_denominator(10**6)
    if float(frac) != p or frac < 1:
        raise InputError(f"p={p!r} is not representable as a small rational >= 1")
    if frac.numerator >= 2**32 or frac.denominator >= 2**32:
        raise InputError(f"p={p!r} rational encoding out of range")
    return P_CODE_RATIONAL, frac.numerator, frac.denominator

def decode_p(code: int, num: int, den: int) -> float:
    if code == P_CODE_INF:
        return math.inf
    if code in (1, 2):
        return float(code)
    if code == P_CODE_RATIONAL:
        if den == 0 or num < den:
            raise FormatError(f"invalid rational p fields num={num} den={den}")
        return num / den
    raise FormatError(f"unknown p-code {code}")


def write_points(path: str | Path, coords: np.ndarray, p: float) -> None:
    coords = np.asarray(coords, dtype="<f8")
    if coords.ndim != 2:
        raise InputError(f"expected (n, d) coordinates, got shape {coords.shape}")
    code, num, den = encode_p(p)
    n, d = coords.shape
    with open(path, "wb") as fh:
        fh.write(MCPT_MAGIC)
        fh.write(struct.pack("<IB", FORMAT_VERSION, code))
        if code == P_CODE_RATIONAL:
            fh.write(struct.pack("<II", num, den))
        fh.write(struct.pack("<QQ", n, d))
        fh.write(coords.tobytes(order="C"))


def read_points(path: str | Path) -> tuple[np.ndarray, float]:
    """Read an MCPT file; returns (raw coordinates, p)."""
    blob = Path(path).read_bytes()
    if len(blob) < 4 or blob[:4] != MCPT_MAGIC:
        raise FormatError(f"{path}: not an MCPT file (bad magic)")
    off = 4
    try:
        version, code = struct.unpack_from("<IB", blob, off)
        off += 5
        if version != FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported MCPT version {version}")
        num = den = 0
        if code == P_CODE_RATIONAL:
            num, den = struct.unpack_from("<II", blob, off)
            off += 8
        n, d = struct.unpack_from("<QQ", blob, off)
        off += 16
    except struct.error as exc:
        raise FormatError(f"{path}: truncated MCPT header") from exc
    p = decode_p(code, num, den)
    if n < 1 or d < 1 or n * d > 10**9:
        raise FormatError(f"{path}: implausible MCPT dimensions n={n} d={d}")
    want = n * d * 8
    body = blob[off:]
    if len(body) != want:
        raise FormatError(f"{path}: expected {want} payload bytes, found {len(body)}")
    coords = np.frombuffer(body, dtype="<f8").reshape(n, d).astype(np.float64)
    return coords, p


def write_matrix(path: str | Path, entries: np.ndarray) -> None:
    entries = np.asarray(entries, dtype="<f8")
    n = entries.shape[0]
    if entries.shape != (n, n):
        raise InputError(f"expected a square matrix, got shape {entries.shape}")
    with open(path, "wb") as fh:
        fh.write(MCDM_MAGIC)
        fh.write(struct.pack("<IQ", FORMAT_VERSION, n))
        fh.write(entries.tobytes(order="C"))


def _parse_matrix(path: str | Path) -> DistanceMatrix:
    blob = Path(path).read_bytes()
    if len(blob) < 4 or blob[:4] != MCDM_MAGIC:
        raise FormatError(f"{path}: not an MCDM file (bad magic)")
    try:
        version, n = struct.unpack_from("<IQ", blob, 4)
    except struct.error as exc:
        raise FormatError(f"{path}: truncated MCDM header") from exc
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported MCDM version {version}")
    if n < 2 or n * n > 10**9:
        raise FormatError(f"{path}: implausible MCDM size n={n}")
    body = blob[16:]
    if len(body) != n * n * 8:
        raise FormatError(f"{path}: expected {n * n * 8} payload bytes, found {len(body)}")
    entries = np.frombuffer(body, dtype="<f8").reshape(n, n).astype(np.float64)
    return DistanceMatrix(entries=entries)


def read_text_points(path: str | Path) -> np.ndarray:
    """Parse whitespace- or comma-separated coordinates, one point per line.
    FormatError for a file that is not UTF-8 text."""
    rows: list[list[float]] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.replace(",", " ").split()
                try:
                    rows.append([float(tok) for tok in parts])
                except ValueError as exc:
                    raise FormatError(f"{path}:{lineno}: unparsable coordinate") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not rows:
        raise FormatError(f"{path}: no points found")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise DataError(f"{path}: inconsistent row widths")
    return np.asarray(rows, dtype=np.float64)


def load_input(path: str | Path, p_override: float | None = None):
    """Dispatch on magic: returns ('points', coords, p) or ('matrix', dm, inf).
    FormatError for a sketch blob, and for a file with neither magic that
    is not UTF-8 text.

    The matrix is not validated here: :func:`~mcsketch.reduce.frechet_embed`
    validates it in the one l-inf pass, whose matrix becomes the stored
    oracle.  A matrix is always sketched at p = inf, so ``p_override`` other
    than inf is refused with InputError for it.
    """
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == b"MCSK":  # the codec's magic (the codec imports this module)
        raise FormatError(f"{path} is a sketch (an MCSK blob), not a point set or matrix")
    if head == MCPT_MAGIC:
        coords, p = read_points(path)
        return "points", coords, (p_override if p_override is not None else p)
    if head == MCDM_MAGIC:
        if p_override is not None and p_override != math.inf:
            raise InputError(f"{path}: a distance matrix is sketched at p = inf, not {p_override}")
        return "matrix", _parse_matrix(path), math.inf
    coords = read_text_points(path)
    return "points", coords, (p_override if p_override is not None else 2.0)
