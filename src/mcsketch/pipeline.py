"""The sketch pipeline: raw points or a distance matrix in, a blob out.

:func:`sketch_points` normalizes raw lp coordinates, first projecting
Euclidean ones (:func:`prepare_points`); :func:`sketch_metric` embeds a
distance matrix isometrically into l-inf.  Both hand the normalized point
set to :func:`build_sketch`, which builds the threshold-graph HST,
compresses its long edges, annotates it and writes the ``MCSK`` blob, and
returns every intermediate as a :class:`BuildResult`.  The ``gen_*``
functions make the seeded synthetic instances that ``mcsketch gen`` writes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import shortest_path

from .annotate import Annotations, SurrogateTable, annotate
from .codec import SketchModel, serialize
from .core import (
    DistanceMatrix,
    InputError,
    PointSet,
    SketchParams,
    k_parameter,
    normalize,
)
from .estimate import estimate_bound, select_all_landmarks
from .hst import ClusterIndex, SketchTree, build_hst, compress
from .reduce import frechet_embed, project_points

__all__ = [
    "BuildResult",
    "build_sketch",
    "prepare_points",
    "sketch_points",
    "sketch_metric",
    "gen_uniform",
    "gen_gaussian_clusters",
    "gen_high_spread_line",
    "gen_random_graph_metric",
]


@dataclass
class BuildResult:
    """Everything produced while building one sketch.

    ``point_set`` is the sketched (post-projection) point set.  When it came
    from ``normalize`` it holds its (n, n) distance matrix, which
    ``mcsketch eval`` reads as the oracle; keeping a result keeps that matrix.
    """

    blob: bytes
    model: SketchModel
    point_set: PointSet
    tree: SketchTree
    clusters: ClusterIndex
    ann: Annotations
    table: SurrogateTable
    build_seconds: float


def build_sketch(ps: PointSet, params: SketchParams) -> BuildResult:
    """Sketch an already-normalized point set.  The header records the
    projection that made ``ps``, if any: ``ps.jl_orig_dim`` and
    ``params.jl_seed``.  Raises InputError when the spread and epsilon
    leave no finite landmark spacing K, when epsilon leaves a grid bound
    beyond int64, and when the estimates could overflow
    (:func:`~mcsketch.estimate.estimate_bound`), so that every blob it
    writes decodes."""
    start = time.perf_counter()
    kk = k_parameter(ps.spread, params.epsilon, ps.d, ps.p)
    tree0, clusters0 = build_hst(ps)
    tree, clusters = compress(tree0, clusters0, params.epsilon)
    ann, ingress, table = annotate(tree, clusters, ps, params)
    if not math.isfinite(estimate_bound(table.shift_int, table.unit, ps.scale, ps.d, ps.p)):
        raise InputError(f"coordinates too large: estimates at scale {ps.scale} may overflow")
    landmarks = select_all_landmarks(ingress, kk) if params.landmarks else None
    model = SketchModel(
        tree=tree,
        ingress=ingress,
        eta_ints=ann.eta_ints,
        landmarks=landmarks,
        p=ps.p,
        epsilon=params.epsilon,
        scale=ps.scale,
        spread=ps.spread,
        n=ps.n,
        d=ps.d,
        jl_seed=params.jl_seed if ps.jl_orig_dim else 0,
        jl_orig_dim=ps.jl_orig_dim,
    )
    blob = serialize(model)
    return BuildResult(
        blob=blob,
        model=model,
        point_set=ps,
        tree=tree,
        clusters=clusters,
        ann=ann,
        table=table,
        build_seconds=time.perf_counter() - start,
    )


def prepare_points(coords: np.ndarray, p: float, params: SketchParams) -> PointSet:
    """Normalize and, for Euclidean inputs, apply the random projection;
    a projected set records its raw dimension in ``jl_orig_dim``.

    An input that gets projected is never normalized at its original
    dimension (see :func:`~mcsketch.reduce.project_points`).
    """
    if params.jl_enabled and p == 2.0:
        projected = project_points(coords, params)
        if projected is not None:
            return projected
    return normalize(coords, p)


def sketch_points(coords: np.ndarray, p: float, params: SketchParams) -> bytes:
    """Sketch raw lp points; returns the blob bytes."""
    return build_sketch(prepare_points(coords, p, params), params).blob


def sketch_metric(entries: np.ndarray | DistanceMatrix, params: SketchParams) -> bytes:
    """Sketch an arbitrary finite metric given as a distance matrix."""
    dm = entries if isinstance(entries, DistanceMatrix) else DistanceMatrix(
        entries=np.asarray(entries, dtype=np.float64)
    )
    ps = frechet_embed(dm)
    return build_sketch(ps, params).blob


# --------------------------------------------------------------------------
# Generators.


def _rng(seed: int) -> np.random.Generator:
    """The generators' random source; InputError on a negative seed."""
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def gen_uniform(n: int, d: int, seed: int) -> np.ndarray:
    """n points drawn uniformly from the cube [0, 100)^d."""
    if n < 2 or d < 1:
        raise InputError(f"need n >= 2 points of d >= 1 coordinates, got n={n}, d={d}")
    rng = _rng(seed)
    return rng.uniform(0.0, 100.0, size=(n, d))


def gen_gaussian_clusters(n: int, d: int, seed: int) -> np.ndarray:
    """n points around five centers drawn from N(0, 40^2) per coordinate,
    each point a center plus N(0, 1) noise per coordinate."""
    if n < 2 or d < 1:
        raise InputError(f"need n >= 2 points of d >= 1 coordinates, got n={n}, d={d}")
    rng = _rng(seed)
    centers = rng.normal(0.0, 40.0, size=(5, d))
    assign = rng.integers(0, 5, size=n)
    return centers[assign] + rng.normal(0.0, 1.0, size=(n, d))


def gen_high_spread_line(n: int, t: int, seed: int) -> np.ndarray:
    """1-D points whose pairwise gaps range from 2^0 up to exactly 2^t.

    Layout: the exact pair {0, 1} (so normalization divides by 1), a jittered
    blob at unit-ish spacing, and one outpost at exactly 2^t, so the
    normalized spread is exactly 2^t.  The same node set arises at every
    valid t -- only the two long runs hanging off the root (above the blob
    and above the outpost leaf) stretch with t -- so sketch-size growth
    across t isolates the long-edge gap codes.
    """
    if n < 11:
        raise InputError("high-spread-line needs n >= 11")
    if t >= 1024:  # 2^1024 is past the largest float
        raise InputError(f"spread exponent t={t} must be below 1024")
    rng = _rng(seed)
    blob_count = n - 3
    jitter = rng.uniform(-0.9, 0.9, size=blob_count)
    blob = 3.0 + 1.5 * np.arange(blob_count) + 0.25 * jitter
    base = float(blob[-1]) + 2.0
    top = math.ldexp(1.0, t)
    if top <= 2.0 * base:
        raise InputError(
            f"spread exponent t={t} too small for n={n} (need 2^t > {2 * base:g})"
        )
    return np.array([0.0, 1.0, *blob, top], dtype=np.float64).reshape(-1, 1)


def gen_random_graph_metric(n: int, seed: int) -> np.ndarray:
    """Shortest-path metric of a random connected weighted graph: a random
    spanning tree plus 2n random edges, weights uniform in [1, 4)."""
    if n < 2:
        raise InputError("need at least two nodes")
    rng = _rng(seed)
    w = np.zeros((n, n), dtype=np.float64)

    def add_edge(i: int, j: int, weight: float) -> None:
        if w[i, j] == 0.0 or weight < w[i, j]:
            w[i, j] = w[j, i] = weight

    for i in range(1, n):
        add_edge(i, int(rng.integers(0, i)), float(rng.uniform(1.0, 4.0)))
    for _ in range(2 * n):
        i, j = (int(v) for v in rng.integers(0, n, size=2))
        if i != j:
            add_edge(i, j, float(rng.uniform(1.0, 4.0)))
    dist = shortest_path(w, method="D", directed=False)
    return np.asarray(dist, dtype=np.float64)
