"""Query-side estimation: anchors, modes, landmarks, all-pairs consistency."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcsketch.annotate import shift_to_float
from mcsketch.cli import (
    build_sketch,
    gen_gaussian_clusters,
    gen_high_spread_line,
    gen_random_graph_metric,
    sketch_metric,
    sketch_points,
)
from mcsketch.codec import deserialize, serialize
from mcsketch.core import (
    FormatError,
    GuaranteeError,
    InputError,
    SketchParams,
    UnknownLabelError,
    k_parameter,
    normalize,
    oracle_all_pairs,
)
from mcsketch import core, estimate
from mcsketch.core import _BLOCK_ELEMS, _SHORT_AXIS
from mcsketch.estimate import _SMALL_BLOCK, Estimator, select_all_landmarks
from mcsketch.hst import _children

import _reference as ref
from _reference import subtree_decomposition


def _result(points, eps=0.25, p=2.0, **kw):
    ps = normalize(np.asarray(points, dtype=float), p)
    params = SketchParams(epsilon=eps, jl_enabled=False, **kw)
    return build_sketch(ps, params)


# --------------------------------------------------------------------------
# Landmark selection on hand-built ingress trees.


def _chain(length):
    """Ingress path 0 -> 1 -> ... -> length-1 rooted at 0."""
    return np.arange(-1, length - 1)


def _random_tree(rng, s):
    """Ingress array of a random tree of s nodes rooted at 0."""
    return np.array([-1] + [int(rng.integers(0, v)) for v in range(1, s)])


def test_chain_of_2k_plus_2_nodes_yields_two_landmarks():
    K = 3
    got = select_all_landmarks(_chain(2 * K + 2), K)  # depths 0 .. 2K+1
    # the deepest node's K-th ancestor sits at depth K+1; the node at depth
    # K is left uncovered, K hops below the root
    assert got == [0, K + 1]


def test_chain_shorter_than_k_yields_none():
    K = 4
    assert select_all_landmarks(_chain(K), K) == []  # depths 0..K-1
    assert select_all_landmarks(_chain(1), K) == []  # single node


def test_chain_of_exactly_k_plus_1_selects_root():
    K = 4
    assert select_all_landmarks(_chain(K + 1), K) == [0]  # depths 0..K


def test_all_landmarks_skip_only_parts_of_at_most_k_nodes():
    # part 0 is an ingress chain of K + 1 nodes, which selects its root;
    # part 1 is a chain of K nodes, which selects none
    K = 4
    ingress = np.array([-1, 0, 1, 2, 3, -1, 5, 6, 7])
    assert select_all_landmarks(ingress, K) == [0]


def test_star_never_needs_landmarks():
    K = 2
    assert select_all_landmarks(np.array([-1, 0, 0, 0, 0, 0]), K) == []


def test_landmark_spacing_below_one_refused():
    with pytest.raises(InputError, match="landmark spacing"):
        select_all_landmarks(_chain(3), 0)


def test_landmark_count_bound_random_trees():
    rng = np.random.default_rng(0)
    for trial in range(20):
        s = int(rng.integers(2, 60))
        K = int(rng.integers(1, 6))
        got = select_all_landmarks(_random_tree(rng, s), K)
        assert len(got) <= math.ceil(s / K)


def test_every_node_within_k_hops_of_anchor():
    rng = np.random.default_rng(1)
    for trial in range(20):
        s = int(rng.integers(2, 80))
        K = int(rng.integers(1, 6))
        ingress = _random_tree(rng, s)
        anchors = set(select_all_landmarks(ingress, K)) | {0}
        for v in range(s):
            hops = 0
            cur = v
            while cur not in anchors:
                cur = ingress[cur]
                hops += 1
            assert hops <= K


@st.composite
def _ingress_forests(draw):
    """An ingress forest (-1 at part roots) with arbitrary ids: each node in
    a random order links to an earlier one, to the one just before it (long
    chains), or starts a part (parts of a node or a few)."""
    n = draw(st.integers(1, 60))
    ids = draw(st.permutations(range(n)))
    ingress = np.full(n, -1)
    for i in range(1, n):
        kind = draw(st.sampled_from(["any", "chain", "chain", "root"]))
        if kind == "any":
            ingress[ids[i]] = ids[draw(st.integers(0, i - 1))]
        elif kind == "chain":
            ingress[ids[i]] = ids[i - 1]
    return ingress


@settings(max_examples=300, deadline=None)
@given(_ingress_forests(), st.integers(1, 8))
def test_selection_equals_the_greedy(ingress, K):
    got = select_all_landmarks(ingress, K)
    assert got == sorted(ref.greedy_landmarks(ingress, K))


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
    # a label is an integer, never truncated or parsed: 1.9 is not label 1
    for label in (1.9, 2.0, np.float64(1.0), "1", None, [1]):
        with pytest.raises(UnknownLabelError):
            est.estimate(label, 2)
        with pytest.raises(UnknownLabelError):
            est.estimate(0, label)
    assert est.estimate(np.int64(1), np.int32(2)) == est.estimate(1, 2)


@pytest.mark.parametrize("mode", ["precomputed", "landmark"])
def test_shifted_surrogate_takes_integer_node_ids(mode):
    res = _result(np.random.default_rng(2).normal(size=(20, 3)) * 15, landmarks=True)
    est = Estimator(res.blob, mode=mode)
    last = res.tree.n_nodes - 1
    # a node id is an integer, never truncated or parsed
    for v in (1.5, 2.0, np.float64(1.0), "2", None, [1], -1, last + 1):
        with pytest.raises(InputError):
            est.shifted_surrogate(v)
    # a bool is the integer it equals, as for labels, and never a mask
    for v, same in ((np.int64(1), 1), (np.int32(last), last), (True, 1), (False, 0)):
        got = est.shifted_surrogate(v)
        assert got.shape == (3,)
        assert np.array_equal(got, est.shifted_surrogate(same))


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
    assert not grid[[v for v, u in enumerate(model.ingress) if u < 0]].any()
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
    table = shift_to_float(res.table.shift_int, res.table.unit)
    for v in range(res.tree.n_nodes):
        assert np.array_equal(est.shifted_surrogate(v), table[v])


def test_precomputed_surrogate_rows_are_read_only():
    # a row handed out is a view of the table every estimate reads
    rng = np.random.default_rng(3)
    res = _result(rng.normal(size=(60, 2)) * 12)
    est = Estimator(res.blob)
    want = est.estimate_all_pairs()
    singles = [[est.estimate(i, j) for j in range(60)] for i in range(60)]
    for v in range(res.tree.n_nodes):
        row = est.shifted_surrogate(v)
        with pytest.raises(ValueError):
            row += 1.0
    assert np.array_equal(est.estimate_all_pairs(), want)
    assert np.array_equal([[est.estimate(i, j) for j in range(60)] for i in range(60)], singles)
    assert np.array_equal(singles, want)


@pytest.mark.parametrize("mode", ["precomputed", "landmark"])
@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
@pytest.mark.parametrize("d", [2, 4, 10])
def test_estimate_equals_shifted_surrogate_distance(d, p, mode):
    # short rows take estimate's scalar path and d = 10 the numpy one; the
    # points span 2^0 to 2^20, so paths below an LCA cross several long edges
    rng = np.random.default_rng(4)
    points = rng.normal(size=(30, d)) * np.exp2(rng.integers(0, 21, size=(30, 1)))
    res = _result(points, p=p, landmarks=True)
    est = Estimator(res.blob, mode=mode)
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

    for x in range(30):
        for y in range(x + 1, 30):
            u = brute_lca(leaf_of[x], leaf_of[y])
            vx = brute_anchor(u, leaf_of[x])
            vy = brute_anchor(u, leaf_of[y])
            want = res.point_set.scale * lp_distance(
                est.shifted_surrogate(vx), est.shifted_surrogate(vy), p
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


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
@pytest.mark.parametrize("d", range(1, _SHORT_AXIS + 1))
def test_landmark_estimates_equal_precomputed_on_every_short_row(d, p):
    # rows shorter than _SHORT_AXIS replay in Python ints, d = _SHORT_AXIS
    # in numpy; the points span 2^0 to 2^20, so chains cross long edges.
    # Every one of these sketches stores a landmark, and in 17 of the 24 a
    # landmark with a nonzero shift anchors some of the queries' replays
    rng = np.random.default_rng(19)
    points = rng.normal(size=(64, d)) * np.exp2(rng.integers(0, 21, size=(64, 1)))
    res = _result(points, p=p, landmarks=True)
    est_p = Estimator(res.blob)
    est_l = Estimator(res.blob, mode="landmark")
    assert (est_l._cols is None) == (d >= _SHORT_AXIS)
    assert est_l.model.landmarks
    for i in range(64):
        for j in range(64):
            assert est_l.estimate(i, j) == est_p.estimate(i, j)
    assert est_l.max_hops > 0
    for v in range(res.tree.n_nodes):
        assert np.array_equal(est_l.shifted_surrogate(v), est_p.shifted_surrogate(v))


@pytest.mark.parametrize("d", range(1, 13))
def test_l1_landmark_single_and_all_pairs_estimates_agree(d):
    # at p = 1 every path sums |differences| in numpy's order: Python float
    # adds (single queries below _SHORT_AXIS), whole-plane adds (all-pairs
    # blocks below it) and numpy's pairwise sum (everything at and above it)
    rng = np.random.default_rng(27)
    points = rng.normal(size=(40, d)) * np.exp2(rng.integers(0, 21, size=(40, 1)))
    res = _result(points, p=1.0, landmarks=True)
    est_p = Estimator(res.blob)
    est_l = Estimator(res.blob, mode="landmark")
    allp = est_p.estimate_all_pairs()
    for i in range(40):
        for j in range(40):
            e = est_p.estimate(i, j)
            assert est_l.estimate(i, j) == e
            assert allp[i, j] == e
    assert est_l.max_hops > 0
    assert np.array_equal(est_l.estimate_all_pairs(), allp)


@pytest.mark.parametrize("d", [2, 10])
def test_landmark_hops_are_exact(d, monkeypatch):
    # d = 2 replays in Python ints, d = 10 in numpy
    rng = np.random.default_rng(13)
    points = rng.normal(size=(40, d)) * np.exp2(rng.integers(0, 21, size=(40, 1)))
    res = _result(points, landmarks=True)
    est = Estimator(res.blob, mode="landmark")
    ingress = est.model.ingress
    anchors = set(est.model.landmarks) | {v for v, u in enumerate(ingress) if u < 0}

    def brute_hops(v):
        hops = 0
        while v not in anchors:
            v = ingress[v]
            hops += 1
        return hops

    high = 0
    for v in rng.permutation(res.tree.n_nodes).tolist():
        est.shifted_surrogate(v)
        assert est.last_hops == brute_hops(v)
        high = max(high, est.last_hops)
        assert est.max_hops == high
    assert high > 1
    # installed on the class, as perfbench's hop probe is
    calls = []
    replay = Estimator.shifted_surrogate

    def counted(self, v):
        calls.append(v)
        return replay(self, v)

    monkeypatch.setattr(Estimator, "shifted_surrogate", counted)
    for x in range(40):
        for y in range(40):
            calls.clear()
            est.estimate(x, y)
            assert len(calls) == (0 if x == y else 2)
            if calls:
                assert est.last_hops == brute_hops(calls[-1])
    assert est.max_hops == high


def test_landmark_replay_matches_shift_table_ints():
    rng = np.random.default_rng(6)
    res = _result(rng.normal(size=(30, 2)) * 25, landmarks=True)
    est = Estimator(res.blob, mode="landmark")
    K = k_parameter(
        res.point_set.spread, res.model.epsilon, res.point_set.d, res.point_set.p
    )
    table = shift_to_float(res.table.shift_int, res.table.unit)
    for v in range(res.tree.n_nodes):
        got = est.shifted_surrogate(v)
        assert est.last_hops <= K
        assert np.array_equal(got, table[v])


@pytest.mark.parametrize("d", [2, 10])
def test_landmark_rows_for_any_id_list(d):
    # the table holds ids only, and the Estimator sums each listed node's
    # shift itself: any strictly ascending list, part roots and leaves
    # included, gives the precomputed rows, and every replay walks to the
    # nearest listed node or part root
    rng = np.random.default_rng(23)
    points = rng.normal(size=(50, d)) * np.exp2(rng.integers(0, 21, size=(50, 1)))
    res = _result(points, landmarks=True)
    model = deserialize(res.blob)
    tree = model.tree
    ingress = model.ingress
    roots = np.flatnonzero(ingress < 0)
    leaves = np.flatnonzero(np.array(tree.leaf_label) >= 0)
    picked = rng.choice(tree.n_nodes, size=tree.n_nodes // 5, replace=False)
    model.landmarks = sorted({*picked.tolist(), *roots[1:3].tolist(), *leaves[:4].tolist()})
    est_l = Estimator(model, mode="landmark")
    est_p = Estimator(res.blob)
    anchors = set(model.landmarks) | set(roots.tolist())

    def hops(v):
        count = 0
        while v not in anchors:
            v = ingress[v]
            count += 1
        return count

    for v in range(tree.n_nodes):
        assert np.array_equal(est_l.shifted_surrogate(v), est_p.shifted_surrogate(v))
        assert est_l.last_hops == hops(v)
    assert est_l.max_hops > 1


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda ids: [-1] + ids, "landmark node -1 out of range"),
        (lambda ids: ids + [28], "landmark node 28 out of range"),
        (lambda ids: ids + ids, "landmark node 10 does not ascend"),
        (lambda ids: ids + [3], "landmark node 3 does not ascend"),
    ],
    ids=["negative", "past-the-end", "duplicate", "descending"],
)
def test_landmark_ids_out_of_order_or_range_refused(edit, match):
    # id -1 once indexed the last node's row: the landmark rows of nodes 26
    # and 27, and 25 estimates, changed with no error.  The writer refuses
    # such a table too, rather than write a blob the decoder refuses
    pts = np.unique(np.random.default_rng(0).integers(0, 6, (40, 2)).astype(float), axis=0)
    model = _result(pts, p=1.0, landmarks=True).model
    assert model.tree.n_nodes == 28 and model.landmarks == [10]
    model.landmarks = edit(model.landmarks)
    Estimator(model)  # the precomputed mode reads no landmark
    with pytest.raises(FormatError, match=match):
        Estimator(model, mode="landmark")
    # the writer refuses a model, as it refuses every other, with
    # GuaranteeError; the message is the decoder's
    with pytest.raises(GuaranteeError, match=match):
        serialize(model)


@pytest.mark.parametrize(
    "ids, match",
    [
        ([10.7], "landmark node 10.7 is not an integer"),
        ([10.0], "landmark node 10.0 is not an integer"),
        ([10, 2**70], f"landmark node {2**70} out of range"),
    ],
    ids=["fraction", "integral-float", "beyond-int64"],
)
def test_landmark_ids_that_are_not_integers_refused(ids, match):
    # 10.7 was once truncated to 10, the sketch's one landmark: the writer
    # stored 10 and a landmark Estimator anchored there, with no error; an
    # id beyond int64 escaped as OverflowError
    pts = np.unique(np.random.default_rng(0).integers(0, 6, (40, 2)).astype(float), axis=0)
    model = _result(pts, p=1.0, landmarks=True).model
    assert model.landmarks == [10]
    model.landmarks = ids
    with pytest.raises(FormatError, match=match):
        Estimator(model, mode="landmark")
    with pytest.raises(GuaranteeError, match=match):
        serialize(model)


@pytest.mark.parametrize("mode", ["precomputed", "landmark"])
def test_model_with_an_ingress_cycle_refused(mode):
    # a model handed straight to Estimator skips the decoder's cycle check;
    # a landmark replay from either node would loop for ever.  The two nodes
    # are no landmarks and no node's ingress, so no landmark check sees them
    pts = gen_gaussian_clusters(200, 2, 3)
    model = deserialize(sketch_points(pts, 1.0, SketchParams(epsilon=1 / 16, landmarks=True)))
    ingress = model.ingress
    used = set(ingress.tolist())
    a, b = [
        v
        for v in np.flatnonzero(ingress >= 0).tolist()
        if v not in model.landmarks and v not in used
    ][:2]
    ingress[a], ingress[b] = b, a
    with pytest.raises(FormatError, match="ingress references contain a cycle"):
        Estimator(model, mode=mode)


def test_landmark_table_contents():
    rng = np.random.default_rng(7)
    res = _result(rng.normal(size=(40, 2)) * 40, landmarks=True)
    K = k_parameter(
        res.point_set.spread, res.model.epsilon, res.point_set.d, res.point_set.p
    )
    want = select_all_landmarks(res.model.ingress, K)
    assert res.model.landmarks == want
    est = Estimator(res.blob, mode="landmark")
    table = shift_to_float(res.table.shift_int, res.table.unit)
    for v in want:
        assert np.array_equal(est.shifted_surrogate(v), table[v])
        assert est.last_hops == 0


def test_all_pairs_matches_single_queries():
    rng = np.random.default_rng(8)
    for p in (1.0, 1.5, 2.0, math.inf):
        res = _result(rng.normal(size=(16, 2)) * 11, p=p)
        est = Estimator(res.blob)
        allp = est.estimate_all_pairs()
        assert allp.shape == (16, 16)
        assert np.array_equal(allp, allp.T)
        assert np.all(np.diag(allp) == 0.0)
        for i in range(16):
            for j in range(16):
                assert allp[i, j] == est.estimate(i, j)


def _assert_all_pairs_match_single_queries(blob):
    est = Estimator(blob)
    allp = est.estimate_all_pairs()
    for i in range(est.n):
        for j in range(est.n):
            assert allp[i, j] == est.estimate(i, j)


def test_all_pairs_matches_single_queries_on_a_graph_metric():
    # p = inf with d = 60: the blocks come from cdist, the queries from
    # _lp_reduce
    _assert_all_pairs_match_single_queries(
        sketch_metric(gen_random_graph_metric(60, 4), SketchParams(epsilon=0.25))
    )


@pytest.mark.parametrize("d", [2, 10])
def test_all_pairs_matches_single_queries_at_a_general_p(d):
    # a block's roots go through libm, as a single query's does; with NumPy's
    # vectorized pow 32 (d = 2) and 144 (d = 10) of these entries differed
    pts = gen_gaussian_clusters(60, d, 8) * 11
    _assert_all_pairs_match_single_queries(
        sketch_points(pts, 1.5, SketchParams(epsilon=0.25, jl_enabled=False))
    )


@pytest.mark.parametrize("block", [64, _BLOCK_ELEMS])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, math.inf])
def test_all_pairs_batches_small_rectangles(monkeypatch, p, block):
    # the merges' child rectangles (a child's leaves against the later
    # children's) lie on both sides of _SMALL_BLOCK: the small ones are
    # reduced in a batch after the pass, the others by the pair kernel.  A
    # 64-entry block splits the batch into many chunks (and the kernel's
    # blocks into single rows)
    pts = gen_gaussian_clusters(120, 2, 1) * 11
    blob = sketch_points(pts, p, SketchParams(epsilon=0.25, landmarks=True, jl_enabled=False))
    tree = Estimator(blob).tree
    end = tree.end.tolist()
    lo, hi = tree.leaf_ranges()
    rects = [
        (hi[c] - lo[c], hi[u] - hi[c])
        for u in range(tree.n_nodes)
        if tree.leaf_label[u] < 0
        for c in _children(end, u)[:-1]
    ]
    small = [(h, w) for h, w in rects if h * w * 2 <= _SMALL_BLOCK]
    assert 0 < len(small) < len(rects)
    monkeypatch.setattr(estimate, "_BLOCK_ELEMS", block)
    monkeypatch.setattr(core, "_BLOCK_ELEMS", block)
    chunks = []
    reduce = estimate._lp_reduce
    monkeypatch.setattr(estimate, "_lp_reduce", lambda diff, p: chunks.append(len(diff)) or reduce(diff, p))
    for mode in ("precomputed", "landmark"):
        est = Estimator(blob, mode=mode)
        chunks.clear()
        allp = est.estimate_all_pairs()
        # every small pair reduced once, in chunks of whole rectangle rows
        # of at most block / (d + 8) pairs, or one row that alone is wider
        assert sum(chunks) == sum(h * w for h, w in small)
        assert max(chunks) <= max(block // 10, *(w for _, w in small))
        assert (len(chunks) == 1) == (block == _BLOCK_ELEMS)
        for i in range(est.n):
            for j in range(est.n):
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
            assert allp[i, j] == est_l.estimate(i, j)


@pytest.mark.parametrize("t", [60, 200])
def test_exact_int_replay_on_numpy_rows(t):
    # seven zero columns take the high-spread line to d = _SHORT_AXIS, so
    # its exact-int steps (K + 2 > 62) replay through the numpy table
    points = np.hstack([gen_high_spread_line(32, t, 1), np.zeros((32, _SHORT_AXIS - 1))])
    res = _result(points, landmarks=True)
    est_p = Estimator(res.blob)
    est_l = Estimator(res.blob, mode="landmark")
    assert est_l._steps.dtype == object
    assert est_l._cols is None
    for v in range(res.tree.n_nodes):
        assert np.array_equal(est_l.shifted_surrogate(v), est_p.shifted_surrogate(v))
    assert est_l.max_hops > 1
    for i in range(32):
        for j in range(32):
            assert est_l.estimate(i, j) == est_p.estimate(i, j)


@pytest.mark.parametrize("d", [2, 10])
def test_landmark_estimator_leaves_its_model_untouched(d):
    # the landmark Estimator folds each landmark's shift into its own step
    # array; the model's grid integers, ingress references and landmark ids
    # stay as decoded, so a precomputed Estimator built from the same model
    # afterwards gives the same rows
    rng = np.random.default_rng(14)
    points = rng.normal(size=(60, d)) * np.exp2(rng.integers(0, 21, size=(60, 1)))
    res = _result(points, landmarks=True)
    model = deserialize(res.blob)
    grid, ingress = model.eta_ints.copy(), model.ingress.copy()
    ids = list(model.landmarks)
    assert any(res.table.shift_int[v].any() for v in ids)
    est_l = Estimator(model, mode="landmark")
    assert np.array_equal(model.eta_ints, grid)
    assert np.array_equal(model.ingress, ingress)
    assert model.landmarks == ids
    est_p = Estimator(model)
    fresh = Estimator(res.blob)
    for v in range(res.tree.n_nodes):
        assert np.array_equal(est_p.shifted_surrogate(v), fresh.shifted_surrogate(v))
        assert np.array_equal(est_l.shifted_surrogate(v), fresh.shifted_surrogate(v))


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


@pytest.mark.parametrize("d, p", [(2, 1.0), (4, 2.0), (4, math.inf)])
def test_all_pairs_peak_is_one_matrix_plus_blocks(d, p):
    # the leaf-preorder matrix is put into label order in place.  Besides
    # the n x n result the peak holds one _BLOCK_ELEMS difference buffer,
    # the planar kernel's two arrays of _BLOCK_ELEMS / d entries (row max
    # and divisor; the max becomes the block's result) and the small
    # rectangles' records: 2.8 buffers at d = 2, 2.0 at d = 4, p = 2.  The
    # small rectangles' batch runs after the buffer is freed, in chunks of
    # at most _BLOCK_ELEMS / (d + 8) pairs, and the permutation goes
    # through one strip of _STRIP_ELEMS entries.  At p = inf there is no
    # difference buffer, and cdist's block holds at most _BLOCK_ELEMS
    # entries: 1.5 buffers.  A second n x n array, 4 buffers at n = 1000,
    # exceeds the bound.
    n = 1000
    pts = gen_gaussian_clusters(n, d, 1)
    est = Estimator(sketch_points(pts, p, SketchParams(epsilon=0.25, jl_enabled=False)))
    tracemalloc.start()
    try:
        allp = est.estimate_all_pairs()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert allp.shape == (n, n)
    assert peak < n * n * 8 + 4 * _BLOCK_ELEMS * 8
