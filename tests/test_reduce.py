"""Dimension handling: random sign projection and the l-infinity embedding."""

import math

import numpy as np
import pytest

from mcsketch.pipeline import prepare_points
from mcsketch.core import (
    DistanceMatrix,
    SketchParams,
    lp_distance,
    normalize,
    oracle_all_pairs,
)
from mcsketch.reduce import frechet_embed, project_points, target_dim

import _reference as ref


def test_target_dim_formula():
    # ceil(4 * eps^-2 * ln n)
    assert target_dim(500, 0.25) == 398
    assert target_dim(100, 0.25) == 295
    assert target_dim(3, 0.5) == 18
    assert target_dim(2, 0.5) == 12


def test_target_dim_at_least_one():
    # the fewest points at the coarsest epsilon; the finest epsilons cap
    assert target_dim(2, 0.5) >= 1
    assert target_dim(2, 2.0**-600) == 2**63


def test_projection_requires_l2():
    # the build projects Euclidean inputs only: at p = 1 a point set far
    # above the target dimension is normalized as it is
    coords = np.random.default_rng(0).normal(size=(10, 200))
    assert target_dim(10, 0.25) < 200
    ps = prepare_points(coords, 1.0, SketchParams(0.25))
    assert ps.jl_orig_dim == 0
    assert np.array_equal(ps.coords, normalize(coords, 1.0).coords)


def test_low_dimension_passthrough():
    coords = np.random.default_rng(1).normal(size=(10, 3))
    assert project_points(coords, SketchParams(0.25)) is None
    ps = prepare_points(coords, 2.0, SketchParams(0.25))
    assert ps.jl_orig_dim == 0
    assert np.array_equal(ps.coords, normalize(coords, 2.0).coords)


def test_projection_shrinks_dimension_and_normalizes():
    rng = np.random.default_rng(2)
    out = project_points(rng.normal(size=(60, 800)), SketchParams(0.25, jl_seed=7))
    assert out.d == target_dim(60, 0.25) < 800
    assert out.n == 60 and out.jl_orig_dim == 800
    ref.check_point_set(out)


def test_projection_deterministic_in_seed():
    rng = np.random.default_rng(3)
    raw = rng.normal(size=(30, 600))
    a = project_points(raw, SketchParams(0.25, jl_seed=5))
    b = project_points(raw, SketchParams(0.25, jl_seed=5))
    c = project_points(raw, SketchParams(0.25, jl_seed=6))
    assert np.array_equal(a.coords, b.coords) and a.scale == b.scale
    assert not np.array_equal(a.coords, c.coords)


def test_projection_preserves_distances_within_eps():
    # frozen seed: the measured distortion on this instance stays below eps
    rng = np.random.default_rng(4)
    eps = 0.25
    raw = rng.normal(size=(80, 1000))
    ps = normalize(raw, 2.0)
    out = project_points(raw, SketchParams(eps, jl_seed=0))
    before = oracle_all_pairs(ps) * ps.scale
    after = oracle_all_pairs(out) * out.scale
    iu = np.triu_indices(80, k=1)
    rel = np.abs(after[iu] - before[iu]) / before[iu]
    assert rel.max() <= eps


def test_projection_composite_scale():
    # distances in the output point set times its scale approximate raw input
    rng = np.random.default_rng(5)
    raw = rng.normal(size=(25, 700)) * 3.7
    out = project_points(raw, SketchParams(0.25, jl_seed=1))
    i, j = 3, 17
    true = lp_distance(raw[i], raw[j], 2.0)
    got = out.scale * lp_distance(out.coords[i], out.coords[j], 2.0)
    assert abs(got - true) / true <= 0.25


def test_frechet_embedding_is_isometric():
    rng = np.random.default_rng(6)
    n = 20
    pts = rng.normal(size=(n, 3)) * 10
    dm_entries = oracle_all_pairs(normalize(pts, 2.0))
    dm = DistanceMatrix(entries=dm_entries)
    ps = frechet_embed(dm)
    assert ps.p == math.inf
    assert ps.d == n
    got = oracle_all_pairs(ps) * ps.scale
    assert np.allclose(got, dm_entries, rtol=1e-12, atol=0.0)


def test_frechet_rejects_invalid_matrix():
    bad = DistanceMatrix(
        entries=np.array([[0.0, 1.0, 9.0], [1.0, 0.0, 1.0], [9.0, 1.0, 0.0]])
    )
    with pytest.raises(Exception):
        frechet_embed(bad)


def test_frechet_row_identity():
    # the embedded coordinates are exactly the normalized distance rows
    entries = np.array(
        [[0.0, 2.0, 3.0], [2.0, 0.0, 4.0], [3.0, 4.0, 0.0]]
    )
    ps = frechet_embed(DistanceMatrix(entries=entries))
    assert ps.scale == 2.0
    assert np.array_equal(ps.coords, entries / 2.0)
