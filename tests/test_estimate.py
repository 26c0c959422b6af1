"""Query-side estimation: anchors, modes, landmarks, all-pairs consistency."""

import math

import numpy as np
import pytest

from mcsketch.cli import build_sketch, gen_high_spread_line
from mcsketch.codec import deserialize, serialize
from mcsketch.core import (
    InputError,
    SketchParams,
    UnknownLabelError,
    k_parameter,
    normalize,
    oracle_all_pairs,
)
from mcsketch.estimate import Estimator, select_all_landmarks, select_landmarks
from mcsketch.hst import subtree_decomposition

import _reference as ref


def _result(points, eps=0.25, p=2.0, **kw):
    ps = normalize(np.asarray(points, dtype=float), p)
    params = SketchParams(epsilon=eps, jl_enabled=False, **kw)
    return build_sketch(ps, params)


# --------------------------------------------------------------------------
# Landmark selection on hand-built ingress trees.


def _chain(length):
    """Ingress path 0 -> 1 -> ... -> length-1 rooted at 0."""
    return {i: [i + 1] for i in range(length - 1)}


def test_chain_of_2k_plus_2_nodes_yields_two_landmarks():
    K = 3
    kids = _chain(2 * K + 2)  # depths 0 .. 2K+1
    got = select_landmarks(kids, 0, K)
    # deepest node's K-th ancestor sits at depth K+1; after its subtree is
    # gone the deepest survivor (depth K) selects the root itself
    assert got == {K + 1, 0}


def test_chain_shorter_than_k_yields_none():
    K = 4
    assert select_landmarks(_chain(K), 0, K) == set()  # depths 0..K-1
    assert select_landmarks({}, 0, K) == set()  # single node


def test_chain_of_exactly_k_plus_1_selects_root():
    K = 4
    got = select_landmarks(_chain(K + 1), 0, K)  # depths 0..K
    assert got == {0}


def test_star_never_needs_landmarks():
    K = 2
    kids = {0: [1, 2, 3, 4, 5]}
    assert select_landmarks(kids, 0, K) == set()


def test_landmark_count_bound_random_trees():
    rng = np.random.default_rng(0)
    for trial in range(20):
        s = int(rng.integers(2, 60))
        K = int(rng.integers(1, 6))
        kids: dict[int, list[int]] = {}
        for v in range(1, s):
            kids.setdefault(int(rng.integers(0, v)), []).append(v)
        got = select_landmarks(kids, 0, K)
        assert len(got) <= math.ceil(s / K)


def test_every_node_within_k_hops_of_anchor():
    rng = np.random.default_rng(1)
    for trial in range(20):
        s = int(rng.integers(2, 80))
        K = int(rng.integers(1, 6))
        parent = {v: int(rng.integers(0, v)) for v in range(1, s)}
        kids: dict[int, list[int]] = {}
        for v, u in parent.items():
            kids.setdefault(u, []).append(v)
        anchors = select_landmarks(kids, 0, K) | {0}
        for v in range(s):
            hops = 0
            cur = v
            while cur not in anchors:
                cur = parent[cur]
                hops += 1
            assert hops <= K


# --------------------------------------------------------------------------
# Estimator basics.


def test_estimate_identical_labels_is_zero():
    res = _result([[0.0], [1.0], [10.0]])
    est = Estimator(res.blob)
    for x in range(3):
        assert est.estimate(x, x) == 0.0


def test_unknown_label_raises():
    res = _result([[0.0], [1.0], [10.0]])
    est = Estimator(res.blob)
    with pytest.raises(UnknownLabelError):
        est.estimate(0, 3)
    with pytest.raises(UnknownLabelError):
        est.estimate(-1, 0)


def test_unknown_mode_rejected():
    res = _result([[0.0], [1.0]])
    with pytest.raises(InputError):
        Estimator(res.blob, mode="telepathic")
    with pytest.raises(InputError):
        Estimator(res.blob, mode="lazy")


def test_landmark_mode_requires_table():
    res = _result([[0.0], [1.0], [10.0]])
    with pytest.raises(InputError):
        Estimator(res.blob, mode="landmark")


def test_estimator_accepts_model_directly():
    res = _result([[0.0], [1.0], [10.0]])
    est = Estimator(res.model)
    est2 = Estimator(res.blob)
    assert est.estimate(0, 2) == est2.estimate(0, 2)


@pytest.mark.parametrize("mode", ["precomputed", "landmark"])
def test_estimators_from_one_model_leave_it_untouched(mode):
    # each Estimator shifts its own copy of the grid integers; one that
    # shifted the model's array would corrupt the next and the blob
    rng = np.random.default_rng(9)
    res = _result(rng.normal(size=(20, 3)) * 15, landmarks=True)
    model = deserialize(res.blob)
    grid = model.eta_ints.copy()
    assert grid.dtype == np.int64 and grid.shape == (model.tree.n_nodes, model.d)
    assert res.model.eta_ints.dtype == np.int64
    assert np.array_equal(grid, res.model.eta_ints)
    assert not grid[[v for v, u in enumerate(model.ingress) if u is None]].any()
    first = Estimator(model, mode=mode)
    second = Estimator(model, mode=mode)
    assert np.array_equal(model.eta_ints, grid)
    assert serialize(model) == res.blob
    got = [[first.estimate(i, j) for j in range(20)] for i in range(20)]
    again = [[second.estimate(i, j) for j in range(20)] for i in range(20)]
    assert np.array_equal(got, again)
    assert np.array_equal(first.estimate_all_pairs(), second.estimate_all_pairs())


def test_estimate_symmetry():
    rng = np.random.default_rng(2)
    res = _result(rng.normal(size=(12, 2)) * 8)
    est = Estimator(res.blob)
    for i in range(12):
        for j in range(12):
            assert est.estimate(i, j) == est.estimate(j, i)


# --------------------------------------------------------------------------
# Anchors and shifted surrogates against the build-side table.


def test_shifted_surrogates_match_build_table():
    rng = np.random.default_rng(3)
    res = _result(rng.normal(size=(15, 3)) * 12)
    est = Estimator(res.blob)
    decomp = subtree_decomposition(res.tree)
    for v in range(res.tree.n_nodes):
        assert np.array_equal(est.shifted_surrogate(v), res.table.shift_float(v))


def test_estimate_equals_shifted_surrogate_distance():
    rng = np.random.default_rng(4)
    res = _result(rng.normal(size=(10, 2)) * 20)
    est = Estimator(res.blob)
    tree = res.tree
    leaf_of = tree.leaf_of()
    from mcsketch.core import lp_distance

    def brute_anchor(u, leaf):
        # topmost long-edge top on the path u -> leaf (u excluded from being
        # "crossed"); walk up from the leaf instead, recording the last top
        path = [leaf]
        while path[-1] != u:
            path.append(tree.parent[path[-1]])
        anchor = leaf
        for node in path[:-1]:  # edges from leaf upward, excluding u's parent edge
            if tree.long_edge[node]:
                anchor = tree.parent[node]
        return anchor

    def brute_lca(a, b):
        ancestors = set()
        x = a
        while x != -1:
            ancestors.add(x)
            x = tree.parent[x]
        x = b
        while x not in ancestors:
            x = tree.parent[x]
        return x

    for x in range(10):
        for y in range(x + 1, 10):
            u = brute_lca(leaf_of[x], leaf_of[y])
            vx = brute_anchor(u, leaf_of[x])
            vy = brute_anchor(u, leaf_of[y])
            want = res.point_set.scale * lp_distance(
                est.shifted_surrogate(vx), est.shifted_surrogate(vy), 2.0
            )
            assert est.estimate(x, y) == want


# --------------------------------------------------------------------------
# Modes agree bit for bit.


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf], ids=lambda p: f"grid-{p}")
def test_modes_bit_identical(p):
    rng = np.random.default_rng(5)
    res = _result(rng.normal(size=(18, 2)) * 14, p=p, landmarks=True)
    est_p = Estimator(res.blob, mode="precomputed")
    est_l = Estimator(res.blob, mode="landmark")
    for i in range(18):
        for j in range(18):
            e = est_p.estimate(i, j)
            assert est_l.estimate(i, j) == e


def test_landmark_replay_matches_shift_table_ints():
    rng = np.random.default_rng(6)
    res = _result(rng.normal(size=(30, 2)) * 25, landmarks=True)
    est = Estimator(res.blob, mode="landmark")
    K = k_parameter(
        res.point_set.spread, res.model.epsilon, res.point_set.d, res.point_set.p
    )
    for v in range(res.tree.n_nodes):
        got = est.shifted_surrogate(v)
        assert est.last_hops <= K
        assert np.array_equal(got, res.table.shift_float(v))


def test_landmark_table_contents():
    rng = np.random.default_rng(7)
    res = _result(rng.normal(size=(40, 2)) * 40, landmarks=True)
    K = k_parameter(
        res.point_set.spread, res.model.epsilon, res.point_set.d, res.point_set.p
    )
    want = select_all_landmarks(res.tree, res.ann.ingress, K)
    assert set(res.model.landmarks) == want
    for v, ints in res.model.landmarks.items():
        assert np.array_equal(ints, res.table.shift_int[v])


def test_all_pairs_matches_single_queries():
    rng = np.random.default_rng(8)
    for p in (1.0, 2.0, math.inf):
        res = _result(rng.normal(size=(16, 2)) * 11, p=p)
        est = Estimator(res.blob)
        allp = est.estimate_all_pairs()
        assert allp.shape == (16, 16)
        assert np.array_equal(allp, allp.T)
        assert np.all(np.diag(allp) == 0.0)
        for i in range(16):
            for j in range(16):
                assert allp[i, j] == est.estimate(i, j)


@pytest.mark.parametrize(
    "t, k_plus_2", [(8, 13), (56, 61), (57, 62), (58, 63), (512, 517)]
)
def test_int64_and_exact_shifts_agree_across_the_boundary(t, k_plus_2):
    # shifts are int64 up to K+2 = 62 and exact Python ints beyond; either
    # way builder, both modes and all-pairs match exact per-coordinate sums
    res = _result(gen_high_spread_line(32, t, 1), eps=0.25, landmarks=True)
    model = res.model
    assert k_parameter(model.spread, model.epsilon, model.d, model.p) + 2 == k_plus_2
    want = np.dtype(np.int64) if k_plus_2 <= 62 else np.dtype(object)
    est_p = Estimator(res.blob)
    est_l = Estimator(res.blob, mode="landmark")
    assert res.table.shift_int.dtype == want
    assert est_l._steps.dtype == want
    exact = ref.exact_shift_floats(model)
    decomp = subtree_decomposition(res.tree)
    for v in range(res.tree.n_nodes):
        root = decomp.roots[decomp.part_of[v]]
        assert np.array_equal(res.table.s_star[v], res.table.s_star[root] + exact[v])
        assert np.array_equal(est_p.shifted_surrogate(v), exact[v])
        assert np.array_equal(est_l.shifted_surrogate(v), exact[v])
    allp = est_p.estimate_all_pairs()
    assert np.array_equal(est_l.estimate_all_pairs(), allp)
    for i in range(model.n):
        for j in range(model.n):
            assert allp[i, j] == est_p.estimate(i, j)


def test_all_pairs_rows_wider_than_one_block():
    # 40 x 7000 coordinates: one suffix of rows alone exceeds _BLOCK_ELEMS
    rng = np.random.default_rng(9)
    for p in (2.0, math.inf):
        res = _result(rng.normal(size=(40, 7000)), p=p)
        est = Estimator(res.blob)
        allp = est.estimate_all_pairs()
        for i in range(40):
            for j in range(40):
                assert allp[i, j] == est.estimate(i, j)
