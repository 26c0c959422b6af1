"""Distances, normalization, parameters, and the binary point/matrix files."""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcsketch import core
from mcsketch.core import (
    DataError,
    DistanceMatrix,
    DuplicatePointError,
    FormatError,
    InputError,
    SketchParams,
    TriangleInequalityError,
    k_parameter,
    load_input,
    lp_distance,
    normalize,
    oracle_all_pairs,
    read_points,
    read_text_points,
    snap_epsilon,
    write_matrix,
    write_points,
)
from mcsketch.pipeline import (
    gen_gaussian_clusters,
    gen_high_spread_line,
    gen_random_graph_metric,
    sketch_metric,
    sketch_points,
)
from mcsketch.codec import deserialize
from mcsketch.reduce import frechet_embed, project_points

import _reference as ref


# --------------------------------------------------------------------------
# lp distances.


def test_345_triangle_distances():
    a = np.array([0.0, 0.0])
    b = np.array([3.0, 4.0])
    assert lp_distance(a, b, 2) == 5.0
    assert lp_distance(a, b, 1) == 7.0
    assert lp_distance(a, b, math.inf) == 4.0


def test_lp_distance_matches_reference():
    # at p = 1 exactly the left-to-right sum of |u_k - v_k|: no scaling, and
    # numpy sums four terms in order (an explicit chain, as sum() is
    # compensated from Python 3.12 on)
    rng = np.random.default_rng(0)
    for p in (1.0, 2.0, 3.0, math.inf):
        for _ in range(20):
            u = rng.normal(size=4)
            v = rng.normal(size=4)
            if p == 1.0:
                want = 0.0
                for a, b in zip(u.tolist(), v.tolist()):
                    want += abs(a - b)
                assert lp_distance(u, v, p) == want
            else:
                assert lp_distance(u, v, p) == pytest.approx(ref.brute_lp(u, v, p), rel=1e-12)


def _lp_rows_reference(diff, p):
    """``_lp_reduce``'s reduction path one row at a time: each row a (1, d)
    array reduced with ``np.sum(axis=-1)``, at p = 1 unscaled, at every
    other finite p max-scaled and at a general p rooted by libm's ``pow``,
    as a single vector's sum is."""
    out = []
    for row in np.abs(diff).reshape(-1, 1, diff.shape[-1]):
        if p == 1.0:
            out.append(np.sum(row, axis=-1))
            continue
        m = row.max(axis=-1, keepdims=True)
        u = row / np.where(m == 0.0, 1.0, m)
        if p == math.inf:
            s = np.ones(1)
        elif p == 2.0:
            s = np.sqrt(np.sum(u * u, axis=-1))
        else:
            s = np.array([math.pow(t, 1.0 / p) for t in np.sum(np.power(u, p), axis=-1)])
        out.append(s * m[:, 0])
    return np.concatenate(out).reshape(diff.shape[:-1])


def _short_rows(rng, shape):
    """Rows of mixed sign at magnitudes 2^-500 to 2^500, with zero rows,
    rows of one repeated magnitude, rows whose max occurs twice and rows
    that reach the subnormal range."""
    x = rng.normal(size=shape) * np.exp2(rng.integers(-500, 501, size=shape[:-1]))[..., None]
    flat = x.reshape(-1, shape[-1])
    flat[::5] = 0.0
    flat[1::5] = flat[1::5, :1] * rng.choice([-1.0, 1.0], size=flat[1::5].shape)
    flat[2::5, -1] = -flat[2::5, 0]
    flat[3::5] = np.ldexp(flat[3::5], -560)
    return x


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, math.inf])
@pytest.mark.parametrize("d", range(1, 8))
def test_short_axis_kernel_matches_row_sums(d, p):
    # the planar kernel's in-order adds are numpy's summation order below 8
    # terms; a numpy release that sums short rows another way fails here
    # first, before any golden digest does
    rng = np.random.default_rng(d)
    for shape in ((300, d), (7, 40, d)):
        x = _short_rows(rng, shape)
        want = _lp_rows_reference(x, p)
        got = core._lp_reduce(x.copy(), p)
        assert got.shape == shape[:-1]
        assert np.array_equal(got, want)


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
@pytest.mark.parametrize("d", range(1, 8))
def test_short_row_pair_matches_lp_reduce(d, p):
    # Estimator.estimate's scalar path: Python floats, numpy's float bit
    # for bit, on zero and tied differences, 2^-500 to 2^500 and subnormals
    rng = np.random.default_rng(d)
    a = _short_rows(rng, (300, d))
    pairs = [(a, np.zeros_like(a)), (a, a[::-1]), (a, _short_rows(rng, (300, d)))]
    if d >= 3:
        # 1 + t + t in order is 1 + 2^-51 at p = 1 (1 + 2^-52 after the root
        # at p = 2); a compensated sum, math.fsum or sum() from Python 3.12,
        # gives 1 + 2^-52 (1.0), and so does any other order
        t = 1.1e-8 if p == 2.0 else 1.21e-16
        row = np.array([[1.0, t, t] + [0.0] * (d - 3)])
        pairs.append((row, np.zeros_like(row)))
    for x, y in pairs:
        for u, v in zip(x, y):
            want = float(core._lp_reduce(u - v, p))
            assert core._lp_pair(u.tolist(), v.tolist(), p).hex() == want.hex()
    if d >= 3 and p != math.inf:
        assert want == (1.0 + 2.0**-51 if p == 1.0 else 1.0 + 2.0**-52)


def test_l1_distance_of_integer_points_is_exact():
    # 2 + 13 + 1 in order is exactly 16; max-scaled by 13 it was
    # 15.999999999999998
    assert lp_distance([2, 13, 1], [0, 0, 0], 1) == 16.0
    assert lp_distance([2, -13, 1], [0, 0, 0], 1) == 16.0


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2**32 - 1), st.integers(0, 9), st.integers(0, 9))
def test_l1_distance_is_the_plain_sum(d, seed, i, j):
    # at p = 1 a distance is numpy's own sum of |u - v|, with no scaling:
    # in order below _SHORT_AXIS terms, pairwise at and above it
    x = _short_rows(np.random.default_rng(seed), (10, d))
    u, v = x[i], x[j]
    assert lp_distance(u, v, 1).hex() == float(np.abs(u - v).sum()).hex()


@pytest.mark.parametrize("d", [3, 9])
def test_l1_pairwise_on_an_integer_lattice_is_exact(d):
    # integer points, coordinates up to 2^40: every l1 distance is an
    # integer below 2^53, so the matrix equals the integer one exactly
    rng = np.random.default_rng(d)
    pts = rng.integers(-(2**40), 2**40, size=(60, d)) >> rng.integers(0, 41, size=(60, 1))
    want = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=-1)
    got = core._pairwise(pts.astype(np.float64), 1.0)
    assert np.array_equal(got, want.astype(np.float64))


def _pair_rows_reference(a, b, p):
    """Distances of ``a`` against ``b`` by one ``_lp_reduce`` call per row."""
    return np.array([core._lp_reduce(row - b, p) for row in a]).reshape(len(a), len(b))


def _pair_points(d):
    """45 rows of ``_short_rows``, with rows 7, 18, 29 and 40 copies of row 3:
    zero distances between distinct rows and tied distances to the rest."""
    x = _short_rows(np.random.default_rng(d), (45, d))
    x[7::11] = x[3]
    return x


@pytest.mark.parametrize("block", [256, core._BLOCK_ELEMS])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, math.inf])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 7, 8, 12, 400])
def test_pair_blocks_match_rows_one_at_a_time(monkeypatch, d, p, block):
    # the pair kernel, cdist at p = inf and row blocks below, gives every
    # pair the float a row-at-a-time reduction gives it; a 256-entry block
    # splits the rows at several sizes, down to one row that alone needs a
    # larger buffer (d = 400), and 45 rows are 2.8 triangular bands
    monkeypatch.setattr(core, "_BLOCK_ELEMS", block)
    x = _pair_points(d)
    for a, b in ((x[:5], x), (x, x[:5]), (x[:37], x[37:]), (x, x)):
        blocks = list(core._pair_blocks(a, b, p, buf=np.empty(50)))
        assert [s for s, _ in blocks] == [0, *np.cumsum([len(k) for _, k in blocks])[:-1]]
        assert np.array_equal(np.vstack([k for _, k in blocks]), _pair_rows_reference(a, b, p))
    for n in (5, 16, 45):
        for s, band in core._pair_blocks(x[:n], x[:n], p, tri=True):
            assert len(band) <= core._TRI_ROWS
            assert np.array_equal(band, _pair_rows_reference(x[s : s + len(band)], x[s:n], p))
        assert s + len(band) == n
    assert np.array_equal(core._pairwise(x, p), _pair_rows_reference(x, x, p))


@pytest.mark.parametrize("d, p", [(2, 1.0), (4, 2.0), (12, 1.5), (30, 1.0), (400, math.inf)])
def test_pairwise_peak_is_one_matrix_plus_blocks(d, p):
    # besides the n x n result the peak holds one difference buffer of at
    # most _BLOCK_ELEMS entries, allocated once, and a few band-sized
    # arrays: _lp_reduce's temporaries, or the list of floats the libm root
    # walks at a general p; at p = inf only cdist's band.  Measured at
    # n = 1000: 0.42, 0.55, 1.27, 1.17 and 0.12 blocks.  The bound allows
    # two; a second n x n array is four
    n = 1000
    x = np.random.default_rng(d).normal(size=(n, d))
    tracemalloc.start()
    try:
        dm = core._pairwise(x, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dm.shape == (n, n)
    assert peak < n * n * 8 + 2 * core._BLOCK_ELEMS * 8


def test_lp_norm_is_distance_to_origin():
    v, origin = np.array([3.0, -4.0]), np.zeros(2)
    assert lp_distance(v, origin, 2) == 5.0
    assert lp_distance(v, origin, 1) == 7.0
    assert lp_distance(v, origin, math.inf) == 4.0


def test_lp_distance_zero_vector():
    z = np.zeros(3)
    assert lp_distance(z, z, 2) == 0.0
    assert lp_distance(z, z, math.inf) == 0.0


def test_invalid_p_rejected():
    a, b = np.zeros(2), np.ones(2)
    for bad in (0.5, 0.0, -1.0, math.nan):
        with pytest.raises(InputError):
            lp_distance(a, b, bad)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda d: st.tuples(
            st.lists(
                st.floats(-100, 100, allow_nan=False, width=32), min_size=d, max_size=d
            ),
            st.lists(
                st.floats(-100, 100, allow_nan=False, width=32), min_size=d, max_size=d
            ),
            st.lists(
                st.floats(-100, 100, allow_nan=False, width=32), min_size=d, max_size=d
            ),
        )
    ),
    st.sampled_from([1.0, 1.5, 2.0, 4.0, math.inf]),
)
def test_metric_axioms(triple, p):
    u, v, w = (np.asarray(x) for x in triple)
    duv = lp_distance(u, v, p)
    assert duv >= 0.0
    assert duv == lp_distance(v, u, p)
    assert lp_distance(u, u, p) == 0.0
    slack = 1e-9 * max(1.0, duv)
    assert duv <= lp_distance(u, w, p) + lp_distance(w, v, p) + slack


# --------------------------------------------------------------------------
# Normalization and the oracle.


def test_normalize_worked_example():
    ps = normalize(np.array([[0.0], [2.0], [20.0]]), 2.0)
    assert ps.scale == 2.0
    assert ps.spread == 10.0
    assert np.array_equal(ps.coords, np.array([[0.0], [1.0], [10.0]]))
    ref.check_point_set(ps)


def test_normalize_rejects_duplicates():
    with pytest.raises(DuplicatePointError):
        normalize(np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 0.0]]), 2.0)


def test_duplicate_error_names_first_pair_in_row_major_order():
    # coinciding pairs (1, 3) and (0, 4); row-major order meets (0, 4) first
    pts = np.array([[5.0, 5.0], [0.0, 0.0], [3.0, 3.0], [0.0, 0.0], [5.0, 5.0]])
    with pytest.raises(DuplicatePointError, match=r"^points 0 and 4 coincide$"):
        normalize(pts, 2.0)


def test_normalize_makes_one_pass(monkeypatch):
    # the closest pair comes from the k-d tree; the one n x n pass is the
    # stored matrix of the divided coordinates
    coords = np.random.default_rng(9).normal(size=(40, 3))
    passes = []
    real = core._pairwise

    def counting(x, p):
        passes.append(x.shape[1])
        return real(x, p)

    monkeypatch.setattr(core, "_pairwise", counting)
    ps = normalize(coords, 2.0)
    assert passes == [3]
    assert ps.scale == ref.matrix_min_distance(coords, 2.0)


@st.composite
def _closest_pair_cases(draw):
    """(coords, p): random, tie-heavy lattice, near-tie and high-spread
    inputs, some with a duplicate row, scaled by 2**-500, 1 or 2**500."""
    p = draw(st.sampled_from([1.0, 2.0, math.inf, 1.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["normal", "lattice", "near-ties", "line"]))
    if kind == "line":
        n = draw(st.integers(11, 40))
        return gen_high_spread_line(n, draw(st.sampled_from([8, 512, 1000])), 0), p
    n, d = draw(st.integers(2, 40)), draw(st.integers(1, 12))
    if kind == "lattice":
        coords = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
    elif kind == "near-ties":
        # far-apart centers, each with one neighbour at a signed permutation
        # of one offset: equal distances up to the rounding of each sum
        offset = rng.normal(size=d)
        coords = rng.normal(scale=100.0, size=(n, d))
        for a in range(0, n - 1, 2):
            coords[a + 1] = coords[a] + rng.permutation(offset) * rng.choice([-1.0, 1.0], d)
    else:
        coords = rng.normal(size=(n, d))
    if draw(st.booleans()):
        a, b = rng.choice(n, size=2, replace=False)
        coords[b] = coords[a]
    return np.ldexp(coords, draw(st.sampled_from([-500, 0, 500]))), p


def _checked_min_distance(mp, coords, p):
    """Check ``normalize(coords, p)`` against the reference: its scale bit
    for bit, or its duplicate message.  Returns the reference minimum (None
    on duplicates) and the p of each row-scan fallback that ran."""
    fallbacks = []
    real = core._row_min_distance

    def spying(x, q):
        fallbacks.append(q)
        return real(x, q)

    mp.setattr(core, "_row_min_distance", spying)
    try:
        want = ref.matrix_min_distance(coords, p)
    except DuplicatePointError as exc:
        with pytest.raises(DuplicatePointError, match=f"^{re.escape(str(exc))}$"):
            normalize(coords, p)
        return None, fallbacks
    assert normalize(coords, p).scale == want
    return want, fallbacks


@settings(max_examples=400, deadline=None)
@given(_closest_pair_cases())
def test_closest_pair_matches_the_matrix_minimum(case):
    coords, p = case
    with pytest.MonkeyPatch.context() as mp:
        want, fallbacks = _checked_min_distance(mp, coords, p)
    if want is not None:
        # the row scan is a safety net for extreme ranges only: wherever
        # (max|x| / closest pair)**p stays well above underflow, the tree
        # answers
        span = (1.0 if p == math.inf else p) * math.log2(np.abs(coords).max() / want)
        assert span >= 900 or not fallbacks


@pytest.mark.parametrize(
    "coords, p, tree",
    [
        # ordinary inputs: the tree certifies its candidate, also where the
        # raw squares would overflow
        (gen_gaussian_clusters(300, 4, 3), 2.0, True),
        (np.ldexp(gen_gaussian_clusters(300, 4, 3), 600), 2.0, True),
        # the tree raises on its own overflow check in query_pairs
        (np.array([[-1.9], [0.0], [1.9]]), 600.0, False),
        # the candidate's 600th power overflows to inf
        (np.array([[-1.9], [1.9]]), 600.0, False),
        # the scaled candidate 2**-512 squares to a subnormal
        (gen_high_spread_line(40, 512, 0), 2.0, False),
        # duplicates: the candidate is zero
        (np.array([[0.0, 1.0], [3.0, 1.0], [0.0, 1.0]]), 2.0, False),
    ],
)
def test_closest_pair_falls_back_where_the_tree_cannot_vouch(monkeypatch, coords, p, tree):
    _, fallbacks = _checked_min_distance(monkeypatch, coords, p)
    assert fallbacks == ([] if tree else [p])


def test_normalize_needs_two_points():
    with pytest.raises(InputError):
        normalize(np.array([[1.0, 2.0]]), 2.0)


def test_normalize_needs_a_coordinate():
    # points of no coordinates once ended in numpy's ValueError from the
    # closest-pair search
    with pytest.raises(InputError, match="no coordinates"):
        normalize(np.zeros((3, 0)), 2.0)


def test_oracle_matches_lp_distance_bitwise():
    rng = np.random.default_rng(3)
    for p in (1.0, 2.0, math.inf):
        ps = normalize(rng.normal(size=(17, 3)), p)
        dm = oracle_all_pairs(ps)
        for i in range(ps.n):
            for j in range(ps.n):
                assert dm[i, j] == lp_distance(ps.coords[i], ps.coords[j], p)


@pytest.mark.parametrize("d", [2, 10])
def test_oracle_matches_lp_distance_bitwise_at_a_general_p(d):
    # the row root goes through libm, as a single vector's does; with NumPy's
    # vectorized pow 166 (d = 2) and 186 (d = 10) of these entries differed
    ps = normalize(gen_gaussian_clusters(60, d, 8) * 11, 1.5)
    dm = oracle_all_pairs(ps)
    for i in range(ps.n):
        for j in range(ps.n):
            assert dm[i, j] == lp_distance(ps.coords[i], ps.coords[j], 1.5)


def test_oracle_matches_brute_force():
    rng = np.random.default_rng(4)
    ps = normalize(rng.normal(size=(12, 4)), 2.0)
    assert np.allclose(oracle_all_pairs(ps), ref.brute_matrix(ps.coords, 2.0), rtol=1e-12)


# --------------------------------------------------------------------------
# The distance matrix stored by normalize.


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf, 1.5])
def test_stored_matrix_is_a_fresh_oracle_bit_for_bit(p):
    ps = normalize(np.random.default_rng(5).normal(size=(23, 3)) * 7, p)
    dm = oracle_all_pairs(ps)
    assert dm is ps.distances
    assert np.array_equal(dm, core._pairwise(ps.coords, p))
    assert ps.spread == max(1.0, float(dm.max()))


def test_stored_matrix_and_coords_are_read_only():
    ps = normalize(np.random.default_rng(6).normal(size=(8, 2)), 2.0)
    with pytest.raises(ValueError):
        oracle_all_pairs(ps)[0, 1] = 5.0
    with pytest.raises(ValueError):
        ps.coords[0, 0] = 5.0


def test_stored_matrix_survives_projection_and_embedding():
    out = project_points(np.random.default_rng(7).normal(size=(30, 600)), SketchParams(0.5))
    assert out.d < 600
    assert out.distances is not None
    assert np.array_equal(out.distances, core._pairwise(out.coords, 2.0))
    dm = DistanceMatrix(entries=oracle_all_pairs(out) * out.scale)
    emb = frechet_embed(dm)
    # the embedding stores validation's row distances, divided once
    assert emb.distances is not None
    assert np.array_equal(emb.distances, dm.validate() / emb.scale)
    with pytest.raises(ValueError):
        emb.distances[0, 1] = 5.0


def _assert_embedded_oracle(d):
    """frechet_embed's stored matrix keeps PointSet's invariants exactly."""
    emb = frechet_embed(DistanceMatrix(entries=d))
    stored = emb.distances
    off = stored[~np.eye(emb.n, dtype=bool)]
    assert np.array_equal(stored, stored.T)
    assert off.min() == 1.0
    assert emb.spread == stored.max()
    assert not stored.flags.writeable and not emb.coords.flags.writeable
    ref.check_point_set(emb)
    # the divided rows measure the same distances up to a few ulps
    assert np.allclose(stored, core._pairwise(emb.coords, math.inf), rtol=1e-14, atol=0.0)
    return emb


@pytest.mark.parametrize("seed", range(1, 9))
def test_embedded_graph_metric_keeps_the_point_set_invariants(seed):
    # shortest-path metrics are full of tight triangles: d_ik = d_ij + d_jk
    _assert_embedded_oracle(gen_random_graph_metric(60, seed))


def test_embedded_matrix_inside_validate_tolerance_keeps_its_minimum():
    # the closest pair lowered by 1e-10 relative to max|d| leaves a triangle
    # excess through every node beyond it, and one entry raised alone leaves
    # an asymmetry: both within validate's 1e-9 slack.  The row distances
    # still divide to a minimum of exactly 1; max(d, d.T) would not
    d = gen_random_graph_metric(60, 3)
    n, big = d.shape[0], np.abs(d).max()
    a, b = np.unravel_index(np.where(np.eye(n, dtype=bool), np.inf, d).argmin(), d.shape)
    assert any(d[a, k] == d[a, b] + d[b, k] for k in range(n) if k not in (a, b))
    d[a, b] -= 1e-10 * big
    d[b, a] -= 1e-10 * big
    d[5, 7] += 1e-10 * big
    emb = _assert_embedded_oracle(d)
    sym = np.maximum(d, d.T) / emb.scale
    assert sym[~np.eye(n, dtype=bool)].min() < 1.0 - 1e-12


def test_point_set_equality_and_repr_ignore_stored_matrix():
    ps = normalize(np.array([[0.0], [2.0], [20.0]]), 2.0)
    bare = dataclasses.replace(ps, distances=None)
    assert bare == ps
    assert repr(bare) == repr(ps)
    assert "distances" not in repr(ps)


def test_directly_constructed_point_set_computes_matrix():
    ps = normalize(np.random.default_rng(8).normal(size=(9, 3)), 1.0)
    direct = core.PointSet(coords=ps.coords, p=ps.p, scale=ps.scale, spread=ps.spread)
    assert direct.distances is None
    assert np.array_equal(oracle_all_pairs(direct), ps.distances)


def test_validate_recomputes_from_coordinates():
    ps = normalize(np.array([[0.0], [2.0], [20.0]]), 2.0)
    # a stored matrix that agrees with a wrong spread does not fool the check
    fake = np.array([[0.0, 1.0, 4.0], [1.0, 0.0, 4.0], [4.0, 4.0, 0.0]])
    wrong = dataclasses.replace(ps, spread=4.0, distances=fake)
    with pytest.raises(InputError, match="measured 10"):
        ref.check_point_set(wrong)


# --------------------------------------------------------------------------
# Parameters.


def test_snap_epsilon():
    assert snap_epsilon(0.5) == 0.5
    assert snap_epsilon(0.25) == 0.25
    assert snap_epsilon(0.3) == 0.25
    assert snap_epsilon(0.0625) == 0.0625
    assert snap_epsilon(0.1) == 0.0625
    for bad in (0.0, -0.25, 0.75, 1.0):
        with pytest.raises(InputError):
            snap_epsilon(bad)


def test_sketch_params_snaps_and_validates():
    params = SketchParams(epsilon=0.3)
    assert params.epsilon == 0.25
    assert params.t == 2
    assert SketchParams(epsilon=0.5).t == 1
    with pytest.raises(InputError):
        SketchParams(epsilon=0.75)


@pytest.mark.parametrize(
    "bad",
    [
        {"jl_seed": -1},
        {"jl_seed": 2**64},
        {"jl_seed": 1.5},
    ],
)
def test_sketch_params_refuse_what_the_build_cannot_use(bad):
    # a negative seed once failed in numpy's generator and 2^64 when the
    # blob header packed it as a u64; both are refused up front
    with pytest.raises(InputError, match=next(iter(bad))):
        SketchParams(epsilon=0.25, **bad)


def test_projection_seeds_and_constants_at_their_limits_build():
    # the largest u64 seed projects and comes back from the header; an
    # epsilon whose eps^-2 passes the float limit asks for more dimensions
    # than the input has, so no projection applies
    pts = np.random.default_rng(0).normal(size=(20, 500))
    blob = sketch_points(pts, 2.0, SketchParams(epsilon=0.25, jl_seed=2**64 - 1))
    assert deserialize(blob).jl_seed == 2**64 - 1
    assert project_points(pts, SketchParams(epsilon=2.0**-600)) is None


def test_k_parameter_examples():
    # ceil(log2(2 * spread / eps * d**(1/p)))
    assert k_parameter(2.0, 0.5, 1, 2.0) == 3
    assert k_parameter(1.0, 1.0, 1, 2.0) == 1
    assert k_parameter(2.0**16, 0.25, 1, 2.0) == 19
    assert k_parameter(4.0, 0.25, 4, 2.0) == 6  # 2*4/0.25*2 = 64


# --------------------------------------------------------------------------
# Distance-matrix validation.


def test_distance_matrix_validate_accepts_metric():
    dm = DistanceMatrix(
        entries=np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]])
    )
    dm.validate()


def test_distance_matrix_rejects_triangle_violation():
    bad = DistanceMatrix(
        entries=np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    )
    with pytest.raises(TriangleInequalityError):
        bad.validate()


def test_distance_matrix_rejects_zero_offdiagonal():
    bad = DistanceMatrix(
        entries=np.array([[0.0, 0.0], [0.0, 0.0]])
    )
    with pytest.raises(DuplicatePointError):
        bad.validate()


def test_distance_matrix_rejects_asymmetry():
    bad = DistanceMatrix(entries=np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(DataError):
        bad.validate()


@pytest.mark.parametrize(
    "entry, err",
    [(math.nan, DataError), (math.inf, DataError), (-math.inf, DataError), (-1.0, DuplicatePointError)],
)
def test_distance_matrix_rejects_non_finite_and_negative_entries(entry, err):
    d = _euclidean_matrix(5, 1)
    d[1, 3] = d[3, 1] = entry
    with pytest.raises(err):
        DistanceMatrix(entries=d).validate()


def test_validate_peak_is_two_matrices():
    # the returned row distances and one buffer for their excess over
    # max(d, d.T); the non-finite scan, the count of entries <= 0 and
    # max |d| make no float matrix.  Measured at n = 400: 2.05 matrices,
    # against 4.0 with a temporary for each
    n = 400
    d = gen_random_graph_metric(n, 3)
    tracemalloc.start()
    try:
        DistanceMatrix(entries=d).validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * n * n * 8


# a message "d(i,j) = x > d(i,k) + d(k,j) = y" names the triple (i, j, k)
_TRIPLE = re.compile(r"d\((\d+),(\d+)\) = \S+ > d\(\1,(\d+)\) \+ d\(\3,\2\)")


def _euclidean_matrix(n, seed):
    return core._pairwise(np.random.default_rng(seed).normal(size=(n, 3)), 2.0)


@settings(max_examples=150, deadline=None)
@given(
    graph=st.booleans(),
    n=st.integers(3, 12),
    seed=st.integers(0, 10_000),
    scale=st.sampled_from([1e-3, 0.1, 1.0, 37.0, 1e4]),
    factor=st.sampled_from([0.0, 0.5, -0.5, 2.0, -2.0]),
    pair=st.tuples(st.integers(0, 11), st.integers(0, 11)),
)
def test_validate_agrees_with_k_loop(graph, n, seed, scale, factor, pair):
    # tight graph metrics and non-tight Euclidean matrices, with max|d|
    # below and above 1, and one symmetric pair moved by a multiple of the
    # slack; the row-distance check must give the k-loop's verdict
    d = (gen_random_graph_metric(n, seed) if graph else _euclidean_matrix(n, seed)) * scale
    a, b = pair[0] % n, pair[1] % n
    if a != b:
        delta = factor * core._REL_TOL * np.abs(d).max()
        d[a, b] += delta
        d[b, a] += delta
    slack = core._REL_TOL * np.abs(d).max()
    want = ref.triangle_violation(d) is not None
    try:
        rows = DistanceMatrix(entries=d).validate()
    except TriangleInequalityError as exc:
        match = _TRIPLE.search(str(exc))
        assert match, str(exc)
        i, j, k = (int(g) for g in match.groups())
        assert d[i, j] > d[i, k] + d[k, j] + slack
        assert want
    else:
        assert not want
        assert np.array_equal(rows, core._pairwise(d, math.inf))


def test_validate_accepts_asymmetry_within_tolerance():
    # max|d| = 0.1 and one entry lowered by 5e-10: inside the symmetry
    # tolerance (1e-9) but five times the triangle slack.  Row distance
    # (0, 1) sees the unlowered d(1, 0), so a check of the row distances
    # against d itself, not against max(d, d.T), would reject the matrix.
    d = _euclidean_matrix(6, 3)
    d *= 0.1 / d.max()
    d[0, 1] -= 5e-10
    assert ref.triangle_violation(d) is None
    rows = DistanceMatrix(entries=d).validate()
    assert (rows - d).max() > core._REL_TOL * np.abs(d).max()


# --------------------------------------------------------------------------
# File formats.


def test_points_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    coords = rng.normal(size=(9, 4))
    path = tmp_path / "pts.mcpt"
    for p in (1.0, 2.0, math.inf, 1.5):
        write_points(path, coords, p)
        back, p_back = read_points(path)
        assert np.array_equal(back, coords)
        assert p_back == p


def test_matrix_roundtrip(tmp_path):
    entries = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]])
    path = tmp_path / "dm.mcdm"
    write_matrix(path, entries)
    kind, back, p = load_input(path)
    assert (kind, p) == ("matrix", math.inf)
    assert np.array_equal(back.entries, entries)


def test_matrix_read_validates(tmp_path):
    entries = np.array([[0.0, 1.0, 9.0], [1.0, 0.0, 1.0], [9.0, 1.0, 0.0]])
    path = tmp_path / "bad.mcdm"
    write_matrix(path, entries)
    # the build checks the metric axioms of a matrix it reads
    _, dm, _ = load_input(path)
    with pytest.raises(TriangleInequalityError):
        sketch_metric(dm, SketchParams(0.25))


def test_points_bad_magic(tmp_path):
    path = tmp_path / "x.mcpt"
    path.write_bytes(b"NOPE" + bytes(40))
    with pytest.raises(FormatError):
        read_points(path)


def test_points_truncated(tmp_path):
    rng = np.random.default_rng(6)
    path = tmp_path / "trunc.mcpt"
    write_points(path, rng.normal(size=(4, 2)), 2.0)
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(FormatError):
        read_points(path)


def test_text_points(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("# comment\n0 0\n3,4\n\n1 1\n")
    coords = read_text_points(path)
    assert np.array_equal(coords, np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]]))


def test_text_points_ragged(tmp_path):
    path = tmp_path / "ragged.txt"
    path.write_text("0 0\n1 2 3\n")
    with pytest.raises(DataError):
        read_text_points(path)


def test_load_input_dispatch(tmp_path):
    coords = np.array([[0.0], [1.0], [5.0]])
    ppath = tmp_path / "a.mcpt"
    write_points(ppath, coords, 1.0)
    kind, payload, p = load_input(ppath)
    assert kind == "points" and p == 1.0 and np.array_equal(payload, coords)
    kind, payload, p = load_input(ppath, p_override=math.inf)
    assert p == math.inf

    mpath = tmp_path / "a.mcdm"
    write_matrix(mpath, np.array([[0.0, 1.0], [1.0, 0.0]]))
    kind, payload, p = load_input(mpath)
    assert kind == "matrix" and p == math.inf and isinstance(payload, DistanceMatrix)

    tpath = tmp_path / "a.txt"
    tpath.write_text("0\n1\n5\n")
    kind, payload, p = load_input(tpath)
    assert kind == "points" and p == 2.0 and payload.shape == (3, 1)


def test_encode_p_rational_roundtrip():
    code, num, den = core.encode_p(1.5)
    assert (num, den) == (3, 2)
    assert core.decode_p(code, num, den) == 1.5
    code, num, den = core.encode_p(math.inf)
    assert core.decode_p(code, num, den) == math.inf
    code, num, den = core.encode_p(2.0)
    assert core.decode_p(code, num, den) == 2.0
